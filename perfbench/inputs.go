package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"sort"

	"repro/internal/corpus"
	"repro/internal/recipe"
)

// poolSize is how many distinct generated recipes back a workload's
// requests. Requests beyond it reuse a pooled recipe's content under a
// new ID; the ID is part of the canonical hash, so the server still
// sees a recipe it has never seen and runs the whole miss path on it.
const poolSize = 4000

// recipePool generates n posted-form recipes from seed: what a user
// would submit, with the generator's resolved grams and hidden topic
// stripped. Recipes the annotator would refuse (no gel, unparseable
// amount) are dropped, so no request fails for its input.
func recipePool(seed uint64, n int) ([]recipe.Recipe, error) {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	var buf bytes.Buffer
	// Over-generate a little; the refusals are a few percent at most.
	if err := corpus.GenerateTo(cfg, &buf, n+n/4+16); err != nil {
		return nil, err
	}
	out := make([]recipe.Recipe, 0, n)
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() && len(out) < n {
		var r recipe.Recipe
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("decoding generated recipe: %w", err)
		}
		r.Truth = 0
		for i := range r.Ingredients {
			r.Ingredients[i] = recipe.Ingredient{Name: r.Ingredients[i].Name, Amount: r.Ingredients[i].Amount}
		}
		probe := r
		probe.Ingredients = append([]recipe.Ingredient(nil), r.Ingredients...)
		if probe.Resolve() != nil || !probe.HasGel() {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) < n {
		return nil, fmt.Errorf("generator yielded %d annotatable recipes, want %d", len(out), n)
	}
	return out, nil
}

// withID is pooled recipe i%len(pool) posted under id.
func withID(pool []recipe.Recipe, i int, id string) recipe.Recipe {
	r := pool[i%len(pool)]
	r.ID = id
	return r
}

// encodeRecipe is the exact request body for one recipe.
func encodeRecipe(r *recipe.Recipe) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(r); err != nil {
		panic(err) // a generated recipe is plain data; encoding cannot fail
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

// body is one encoded request and the recipe IDs its answer must echo.
type body struct {
	data []byte
	ids  []string
}

// singleBodies encodes n single-recipe bodies with IDs prefix-0…n-1.
func singleBodies(pool []recipe.Recipe, prefix string, n int) []body {
	out := make([]body, n)
	for i := range out {
		r := withID(pool, i, fmt.Sprintf("%s-%d", prefix, i))
		out[i] = body{data: encodeRecipe(&r), ids: []string{r.ID}}
	}
	return out
}

// batchBodies encodes n bodies of size recipes each for
// /annotate/batch, every recipe under a fresh ID.
func batchBodies(pool []recipe.Recipe, prefix string, n, size int) []body {
	out := make([]body, n)
	k := 0
	for i := range out {
		var buf bytes.Buffer
		buf.WriteString(`{"recipes":[`)
		ids := make([]string, size)
		for j := 0; j < size; j++ {
			r := withID(pool, k, fmt.Sprintf("%s-%d", prefix, k))
			k++
			if j > 0 {
				buf.WriteByte(',')
			}
			buf.Write(encodeRecipe(&r))
			ids[j] = r.ID
		}
		buf.WriteString(`]}`)
		out[i] = body{data: buf.Bytes(), ids: ids}
	}
	return out
}

// zipf draws keys 0…n-1 with P(k) ∝ 1/(k+1)^s by inverting the
// cumulative distribution, so the sequence depends only on the seed.
type zipf struct {
	cdf []float64
	rng *rand.Rand
}

func newZipf(seed uint64, n int, s float64) *zipf {
	cdf := make([]float64, n)
	acc := 0.0
	for k := range cdf {
		acc += 1 / math.Pow(float64(k+1), s)
		cdf[k] = acc
	}
	for k := range cdf {
		cdf[k] /= acc
	}
	return &zipf{cdf: cdf, rng: rand.New(rand.NewPCG(seed, 0x21FF))}
}

func (z *zipf) next() int {
	u := z.rng.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// writeBaseCorpus writes n generated recipes as the JSONL corpus a
// re-fit grows the ingested records on top of.
func writeBaseCorpus(path string, seed uint64, n int) error {
	cfg := corpus.DefaultConfig()
	cfg.Seed = seed
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := corpus.GenerateTo(cfg, f, n); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
