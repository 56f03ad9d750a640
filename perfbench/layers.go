package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/annotate"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/pipeline"
	"repro/internal/recipe"
	"repro/internal/rheology"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/storage"
)

// foldInIters is the annotator's default sweep count, which the server
// serves with.
const foldInIters = 100

// layerInput is what the in-process pass times each layer on: the
// workload's own request bodies and records.
type layerInput struct {
	blob []byte // the serving bundle
	k    int
	// annotate is the /annotate body sequence the handler is timed on,
	// in the workload's order; warm is sent first, untimed.
	annotate, warm []body
	// ingestFirst posts every annotate body to /ingest before the timed
	// reads, as ingest-refit's traffic does, and turns on the write and
	// re-fit stages.
	ingestFirst bool
	records     []recipe.Recipe // the records a re-fit folds in
	basePath    string          // the re-fit's frozen base corpus
	dir         string
}

// layerResult holds per-layer medians and the handler's cache split.
type layerResult struct {
	m          map[string]float64
	missShare  float64 // handler calls that missed the cache
	timedCalls int
	sweepTotal float64 // seconds of Gibbs sweeps inside RunStream
}

func discardLogf(string, ...any) {}

func loadOutput(blob []byte) (*pipeline.Output, error) {
	return pipeline.LoadBundle(bytes.NewReader(blob))
}

// serverOptions mirrors cmd/textureserver's defaults for the layers the
// handler exercises: the response cache on, the default pool.
func serverOptions() serve.Options {
	o := serve.DefaultOptions()
	o.Cache = true
	o.Logf = discardLogf
	return o
}

// runLayers times the public entry point of each layer in-process,
// recording a span around every call. The write and re-fit stages run
// only for ingest-refit's input, the one workload whose traffic
// reaches them.
func runLayers(ctx context.Context, in layerInput, tr *tracer, chk *checker) (*layerResult, error) {
	res := &layerResult{m: map[string]float64{}}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return nil, err
	}
	out, err := loadOutput(in.blob)
	if err != nil {
		return nil, err
	}
	if err := annotateStages(ctx, out, in, tr, chk); err != nil {
		return nil, err
	}
	if err := handlerStage(in, tr, chk, res); err != nil {
		return nil, err
	}
	if err := loadStage(in, tr); err != nil {
		return nil, err
	}
	stages := map[string]string{
		"recipe.decode": "recipe.decode_us", "recipe.resolve": "recipe.resolve_us",
		"recipe.hash": "recipe.hash_us", "lexicon.extract": "lexicon.extract_us",
		"core.foldin": "core.foldin_us", "core.topterms": "core.topterms_us",
		"rheology.predict": "rheology.predict_us", "annotate.annotate": "annotate.annotate_us",
		"annotate.encode": "annotate.encode_us", "serve.handler": "serve.handler_us",
	}
	msStages := map[string]string{"pipeline.load_bundle": "pipeline.load_bundle_ms"}
	if in.ingestFirst {
		if err := appendStage(in, tr); err != nil {
			return nil, err
		}
		if err := refitStages(ctx, in, tr, res); err != nil {
			return nil, err
		}
		stages["ingest.append"] = "ingest.append_us"
		for name, key := range map[string]string{
			"pipeline.encode": "pipeline.encode_ms", "storage.publish": "storage.publish_ms",
			"storage.promote": "storage.promote_ms", "storage.fetch": "storage.fetch_ms",
			"serve.swap": "serve.swap_ms",
		} {
			msStages[name] = key
		}
	}
	d := byName(tr.snapshot(), false)
	for name, key := range stages {
		res.m[key] = median(d[name])
	}
	for name, key := range msStages {
		res.m[key] = median(d[name]) / 1e3
	}
	if in.ingestFirst {
		res.m["pipeline.runstream_s"] = median(d["pipeline.runstream"]) / 1e6
		res.m["ingest.refit_once_s"] = median(d["ingest.refit_once"]) / 1e6
		res.m["pipeline.prefit_s"] = res.m["pipeline.runstream_s"] - res.sweepTotal
	}
	res.m["annotate.other_us"] = res.m["annotate.annotate_us"] - res.m["lexicon.extract_us"] -
		res.m["core.foldin_us"] - res.m["core.topterms_us"] - res.m["rheology.predict_us"]
	return res, nil
}

// loadStage times pipeline.LoadBundle on the serving bundle, the load
// every cold start pays, after one untimed load.
func loadStage(in layerInput, tr *tracer) error {
	for i := 0; i < 6; i++ {
		t := tr
		if i == 0 {
			t = newTracer()
		}
		var err error
		t.timed("pipeline.load_bundle", -1, int64(i), func() { _, err = loadOutput(in.blob) })
		if err != nil {
			return err
		}
	}
	return nil
}

// annotateStages runs the annotator's stages one by one on each body,
// then Annotator.Annotate as a whole, so the whole can be split into
// its stages plus a residual.
func annotateStages(ctx context.Context, out *pipeline.Output, in layerInput, tr *tracer, chk *checker) error {
	ann, err := annotate.New(out)
	if err != nil {
		return err
	}
	// The first pass warms the process and is thrown away.
	if err := annotatePass(ctx, out, ann, in, newTracer(), chk); err != nil {
		return err
	}
	return annotatePass(ctx, out, ann, in, tr, chk)
}

func annotatePass(ctx context.Context, out *pipeline.Output, ann *annotate.Annotator, in layerInput, tr *tracer, chk *checker) error {
	n := min(len(in.annotate), 400)
	for i := 0; i < n; i++ {
		b := in.annotate[i]
		req := int64(i)
		root := tr.begin("inproc.annotate", -1, req)
		var rec recipe.Recipe
		var derr error
		tr.timed("recipe.decode", root, req, func() { derr = json.Unmarshal(b.data, &rec) })
		if derr != nil {
			return fmt.Errorf("decoding body %d: %w", i, derr)
		}
		var rerr error
		tr.timed("recipe.resolve", root, req, func() { rerr = rec.Resolve() })
		if rerr != nil {
			return fmt.Errorf("resolving body %d: %w", i, rerr)
		}
		tr.timed("recipe.hash", root, req, func() { _ = recipe.CanonicalHash(&rec) })
		var ids []int
		tr.timed("lexicon.extract", root, req, func() { ids = out.Dict.ExtractTermIDs(rec.Description) })
		words := ids[:0:0]
		for _, id := range ids {
			if _, skip := out.ExcludedTerms[out.Dict.Term(id).Kana]; !skip {
				words = append(words, id)
			}
		}
		var theta []float64
		var ferr error
		tr.timed("core.foldin", root, req, func() {
			theta, ferr = out.Model.FoldInCtx(ctx, words, rec.GelFeatures(), rec.EmulsionFeatures(), foldInIters, ann.Seed)
		})
		if ferr != nil {
			return fmt.Errorf("fold-in of body %d: %w", i, ferr)
		}
		tr.timed("core.topterms", root, req, func() { _ = out.Model.TopTerms(stats.ArgMax(theta), ann.TopTerms) })
		tr.timed("rheology.predict", root, req, func() {
			_ = rheology.Predict(rec.GelConcentrations(), rec.EmulsionConcentrations())
		})
		var card *annotate.Card
		var aerr error
		tr.timed("annotate.annotate", root, req, func() { card, aerr = ann.Annotate(ctx, &rec) })
		if aerr != nil {
			return fmt.Errorf("annotating body %d: %w", i, aerr)
		}
		var enc []byte
		var eerr error
		tr.timed("annotate.encode", root, req, func() {
			w := card.Wire()
			enc, eerr = json.Marshal(&w)
		})
		if eerr != nil {
			return eerr
		}
		tr.end(root)
		chk.check(checkCard(enc, b.ids[0], in.k))
	}
	return nil
}

// serveOne runs one request through the handler with a recorder.
func serveOne(h http.Handler, path string, data []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	return rec
}

// handlerStage times Server.Handler().ServeHTTP on the workload's
// /annotate sequence, after the workload's untimed warm-up.
func handlerStage(in layerInput, tr *tracer, chk *checker, res *layerResult) error {
	out, err := loadOutput(in.blob)
	if err != nil {
		return err
	}
	opts := serverOptions()
	if in.ingestFirst {
		mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: filepath.Join(in.dir, "handler-wal")})
		if err != nil {
			return err
		}
		defer mgr.Close()
		opts.Ingest = mgr
	}
	srv, err := serve.NewWithOptions(out, opts)
	if err != nil {
		return err
	}
	h := srv.Handler()
	for _, b := range in.warm {
		if r := serveOne(h, "/annotate", b.data); r.Code != http.StatusOK {
			chk.check(fmt.Errorf("in-process warm-up /annotate: status %d", r.Code))
		}
	}
	n := min(len(in.annotate), 2000)
	if in.ingestFirst {
		for _, b := range in.annotate[:n] {
			if r := serveOne(h, "/ingest", b.data); r.Code != http.StatusAccepted {
				chk.check(fmt.Errorf("in-process /ingest: status %d", r.Code))
			}
		}
		// Ingest warms the cache in the background; let it settle.
		waitUntil(2*time.Second, func() bool { return srv.Stats().InFlight == 0 && srv.Stats().Cache.Size >= n })
	}
	before := srv.Stats().Cache
	for i, b := range in.annotate[:n] {
		var r *httptest.ResponseRecorder
		tr.timed("serve.handler", -1, int64(i), func() { r = serveOne(h, "/annotate", b.data) })
		if r.Code != http.StatusOK {
			chk.check(fmt.Errorf("in-process /annotate: status %d", r.Code))
			continue
		}
		chk.check(checkCard(r.Body.Bytes(), b.ids[0], in.k))
	}
	after := srv.Stats().Cache
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses > 0 {
		res.missShare = float64(misses) / float64(hits+misses)
	}
	res.timedCalls = n
	return nil
}

// appendStage times ingest.Manager.Append, fsync included, on a fresh
// WAL.
func appendStage(in layerInput, tr *tracer) error {
	mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: filepath.Join(in.dir, "append-wal")})
	if err != nil {
		return err
	}
	defer mgr.Close()
	n := min(len(in.records), 300)
	for i := 0; i < n; i++ {
		rec := in.records[i]
		rec.Ingredients = append([]recipe.Ingredient(nil), rec.Ingredients...)
		if err := rec.Resolve(); err != nil {
			return err
		}
		var ack ingest.Ack
		var aerr error
		tr.timed("ingest.append", -1, int64(i), func() { ack, aerr = mgr.Append(&rec) })
		if aerr != nil {
			return aerr
		}
		if ack.Duplicate {
			return fmt.Errorf("in-process append of record %d was a duplicate", i)
		}
	}
	return nil
}

// refitStages times the re-fit chain's entry points on the base corpus
// plus the workload's records: the streamed fit with its sweeps, the
// bundle encode, the registry's publish, promote and fetch, the live
// swap, and finally one whole Refitter.RefitOnce.
func refitStages(ctx context.Context, in layerInput, tr *tracer, res *layerResult) error {
	corpusPath := filepath.Join(in.dir, "refit-corpus.jsonl")
	if err := writeRefitCorpus(corpusPath, in.basePath, in.records); err != nil {
		return err
	}
	popts := pipeline.DefaultOptions()
	var sweeps []float64
	popts.Model.Hooks = core.SweepHooks{OnSweep: func(st core.SweepStats) { sweeps = append(sweeps, ms(st.Total)) }}
	var out *pipeline.Output
	var err error
	tr.timed("pipeline.runstream", -1, 0, func() { out, err = pipeline.RunStream(pipeline.FileSource(corpusPath), popts) })
	if err != nil {
		return fmt.Errorf("RunStream: %w", err)
	}
	res.m["core.sweep_ms"] = median(sweeps)
	res.m["core.sweeps"] = float64(len(sweeps))

	var blob []byte
	for i := 0; i < 3; i++ {
		tr.timed("pipeline.encode", -1, int64(i), func() { blob, _, err = out.EncodeBundle() })
		if err != nil {
			return err
		}
	}
	res.m["pipeline.bundle_bytes"] = float64(len(blob))

	reg, err := newRegistry(filepath.Join(in.dir, "registry"))
	if err != nil {
		return err
	}
	var gen storage.Generation
	tr.timed("storage.publish", -1, 0, func() { gen, err = reg.Publish(ctx, blob, "benchmark") })
	if err != nil {
		return err
	}
	tr.timed("storage.promote", -1, 0, func() { err = reg.Promote(ctx, gen.ID) })
	if err != nil {
		return err
	}
	srv, err := serve.NewWithOptions(out, serverOptions())
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		var fetched []byte
		tr.timed("storage.fetch", -1, int64(i), func() { fetched, err = reg.Fetch(ctx, gen) })
		if err != nil {
			return err
		}
		loaded, err := loadOutput(fetched)
		if err != nil {
			return err
		}
		tr.timed("serve.swap", -1, int64(i), func() { err = srv.SwapOutput(loaded) })
		if err != nil {
			return err
		}
	}

	mgr, err := ingest.OpenManager(ingest.ManagerOptions{Dir: filepath.Join(in.dir, "refit-wal")})
	if err != nil {
		return err
	}
	defer mgr.Close()
	for i := range in.records {
		rec := in.records[i]
		rec.Ingredients = append([]recipe.Ingredient(nil), rec.Ingredients...)
		if err := rec.Resolve(); err != nil {
			return err
		}
		if _, err := mgr.Append(&rec); err != nil {
			return err
		}
	}
	refitReg, err := newRegistry(filepath.Join(in.dir, "refit-registry"))
	if err != nil {
		return err
	}
	refitter, err := ingest.NewRefitter(ingest.RefitOptions{
		Manager:    mgr,
		Base:       pipeline.FileSource(in.basePath),
		Pipeline:   pipeline.DefaultOptions(),
		Registry:   refitReg,
		MinRecords: uint64(len(in.records)),
	})
	if err != nil {
		return err
	}
	var ran bool
	tr.timed("ingest.refit_once", -1, 0, func() { _, ran, err = refitter.RefitOnce(ctx) })
	if err != nil {
		return fmt.Errorf("RefitOnce: %w", err)
	}
	if !ran {
		return fmt.Errorf("RefitOnce found nothing to fit")
	}
	res.sweepTotal = sum(sweeps) / 1e3
	return nil
}

// writeRefitCorpus writes the base corpus followed by the records as
// one JSONL file: the bytes a re-fit streams.
func writeRefitCorpus(path, basePath string, records []recipe.Recipe) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	base, err := os.Open(basePath)
	if err != nil {
		f.Close()
		return err
	}
	_, err = io.Copy(f, base)
	base.Close()
	for i := 0; err == nil && i < len(records); i++ {
		_, err = f.Write(append(encodeRecipe(&records[i]), '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// waitUntil polls cond every millisecond for at most d.
func waitUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// newRegistry is a model registry on a file-system store; the store
// treats a missing root as an outage, so the root is created first.
func newRegistry(dir string) (*storage.Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return storage.NewRegistry(storage.NewFSStore(dir)), nil
}
