package main

import (
	"bytes"
	"testing"
)

func TestSameSeedSameBodies(t *testing.T) {
	a, err := recipePool(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recipePool(5, 60)
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := singleBodies(a, "w-5", 150), singleBodies(b, "w-5", 150)
	ba, bb := batchBodies(a, "wb-5", 3, 64), batchBodies(b, "wb-5", 3, 64)
	for i := range sa {
		if !bytes.Equal(sa[i].data, sb[i].data) {
			t.Fatalf("single body %d differs between two generations from seed 5", i)
		}
	}
	for i := range ba {
		if !bytes.Equal(ba[i].data, bb[i].data) {
			t.Fatalf("batch body %d differs between two generations from seed 5", i)
		}
	}

	c, err := recipePool(6, 60)
	if err != nil {
		t.Fatal(err)
	}
	if sc := singleBodies(c, "w-5", 1); bytes.Equal(sc[0].data, sa[0].data) {
		t.Error("seeds 5 and 6 produced the same first body")
	}
}

func TestBodiesAreDistinctRecipes(t *testing.T) {
	pool, err := recipePool(1, 20)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, b := range singleBodies(pool, "x", 50) {
		if seen[string(b.data)] {
			t.Fatalf("body for %s repeats an earlier one", b.ids[0])
		}
		seen[string(b.data)] = true
	}
	for _, b := range batchBodies(pool, "y", 2, 64) {
		if len(b.ids) != 64 {
			t.Fatalf("batch has %d ids", len(b.ids))
		}
	}
}

func TestZipfSameSeedSameSequence(t *testing.T) {
	a, b, c := newZipf(9, 1000, 1), newZipf(9, 1000, 1), newZipf(10, 1000, 1)
	same, counts := true, make([]int, 1000)
	for i := 0; i < 20000; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("draw %d: %d vs %d from the same seed", i, x, y)
		}
		same = same && x == c.next()
		counts[x]++
	}
	if same {
		t.Error("seeds 9 and 10 drew the same sequence")
	}
	// s=1: key 0 is drawn about twice as often as key 1 and ten times
	// as often as key 9.
	if r := float64(counts[0]) / float64(counts[1]); r < 1.6 || r > 2.5 {
		t.Errorf("count(0)/count(1) = %.2f, want about 2", r)
	}
	if r := float64(counts[0]) / float64(counts[9]); r < 6 || r > 15 {
		t.Errorf("count(0)/count(9) = %.2f, want about 10", r)
	}
}
