package main

import (
	"math"
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {99, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	// A failed operation enters as +Inf and so misses the limit.
	withFail := []float64{1, 2, 3, math.Inf(1)}
	if got := percentile(withFail, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure = %v, want +Inf", got)
	}
	if got := percentile(withFail, 50); got != 2 {
		t.Errorf("p50 with a failure = %v, want 2", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The expected cut points are what Python's
// statistics.quantiles(xs, n=4) prints for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 9}, [3]float64{1, 5, 9}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestPrintSpread(t *testing.T) {
	in := `noise line
{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":1,"unit":"ms"}}}
{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":2,"unit":"ms"}}}
{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":3,"unit":"ms"}}}
{"correct":true,"attempted":1,"failed":0,"metrics":{"x_ms":{"value":4,"unit":"ms"}}}
`
	var out strings.Builder
	if err := printSpread(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	// Quartiles 1.25 and 3.75 around a median of 2.5.
	if !strings.Contains(out.String(), "spread 1.000") || !strings.Contains(out.String(), "4 runs") {
		t.Errorf("spread output:\n%s", out.String())
	}
}
