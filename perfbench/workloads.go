package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/pipeline"
	"repro/internal/serve"
)

// Traffic shape. README.md gives the reasons for each number.
const (
	annotateRate = 400.0 // /annotate requests per second, open loop
	ingestRate   = 100.0 // /ingest requests per second, open loop
	readRate     = 100.0 // /annotate reads of ingested recipes per second
	readDelay    = time.Second
	batchSize    = 64
	hotKeys      = 4 * serve.DefaultCacheSize
	hotWarmup    = 24000 // untimed zipf draws that fill the cache first
	refitsPerRun = 3
	baseRecipes  = 3000
	batchCycle   = 400 // distinct /annotate/batch bodies, 25,600 recipes
	pollEvery    = 25 * time.Millisecond
	lateLimitMS  = 10.0 // dispatch lateness (p99) past which a run is invalid

	// setup_s is the median of many cold starts spread over the run. On
	// the annotate workloads the open loop runs in segments of
	// segmentLen with a burst of setupBurst cold starts before each
	// segment and after the last; ingest-refit, whose re-fits must not
	// share the cores with a cold start, takes setupStarts of them, half
	// before its traffic and half after its re-fits settle.
	setupBurst  = 4
	segmentLen  = 3 * time.Second
	setupStarts = 24

	// Latency and CPU figures of the annotate workloads are medians over
	// windows, segmentWindows to a segment; a window holds at least
	// minWindowOps requests, ten beyond its p90.
	segmentWindows = 3
	minWindowOps   = 100
)

var workloads = map[string]func(context.Context, config, *checker) (map[string]metric, error){
	"annotate-fresh": annotateFresh,
	"annotate-hot":   annotateHot,
	"ingest-refit":   ingestRefit,
}

// session is the state one workload run shares between its phases.
type session struct {
	cfg    config
	chk    *checker
	client *http.Client
	srv    *server
	k      int
	tr     *tracer
	m      map[string]metric
	blob   []byte
	bundle string
	setup  []float64 // seconds per timed cold start
	starts int       // cold starts so far, the untimed first included
}

func newSession(cfg config, chk *checker) *session {
	s := &session{cfg: cfg, chk: chk, client: newClient(), m: map[string]metric{}}
	if cfg.trace {
		s.tr = newTracer()
	}
	return s
}

func (s *session) put(name string, v float64, unit string) { s.m[name] = metric{Value: v, Unit: unit} }

// fitBundle fits the model every workload serves, with the pipeline's
// defaults (the paper's ≈3,000-recipe corpus, 300 sweeps), and saves it
// as the bundle file the server loads.
func (s *session) fitBundle() error {
	out, err := pipeline.Run(pipeline.DefaultOptions())
	if err != nil {
		return fmt.Errorf("fitting the serving bundle: %w", err)
	}
	s.bundle = filepath.Join(s.cfg.dir, "model.bundle")
	if err := out.SaveBundleFile(s.bundle); err != nil {
		return err
	}
	s.blob, err = os.ReadFile(s.bundle)
	return err
}

// coldStarts starts and stops the server n times and records spawn →
// first 200 from /readyz for each; args(i) gives the flags of start i.
// A run calls it several times, so setup_s spans the run rather than
// one moment of it; the first start of a run is untimed: it pays for
// loading the binary from disk.
func (s *session) coldStarts(args func(i int) []string, n int) error {
	if s.starts == 0 {
		n++
	}
	for i := 0; i < n; i++ {
		srv, d, err := startServer(s.cfg.bin, filepath.Join(s.cfg.dir, "setup.log"), args(s.starts))
		if err != nil {
			return err
		}
		if err := srv.stop(); err != nil {
			return fmt.Errorf("stopping a set-up probe server: %w", err)
		}
		if s.starts++; s.starts > 1 {
			s.setup = append(s.setup, d.Seconds())
		}
	}
	s.put("setup_s", median(s.setup), "s")
	return nil
}

// start launches the server under measurement and reads its topic
// count for the answer checks.
func (s *session) start(args []string) error {
	srv, _, err := startServer(s.cfg.bin, filepath.Join(s.cfg.dir, "server.log"), args)
	if err != nil {
		return err
	}
	s.srv = srv
	s.k, err = srv.topics(context.Background(), s.client)
	return err
}

func (s *session) stop() {
	if s.srv != nil {
		if err := s.srv.stop(); err != nil {
			s.chk.check(fmt.Errorf("server exit: %v", err))
		}
		s.srv = nil
	}
}

// schedule lays bodies out at rate per second from offset, tracing
// every other request in a traced run so traced and untraced latency
// come from the same traffic.
func (s *session) schedule(bodies []body, path string, rate float64, offset time.Duration) []op {
	ops := make([]op, len(bodies))
	for i := range bodies {
		ops[i] = op{
			due:    offset + time.Duration(float64(i)/rate*float64(time.Second)),
			path:   path,
			body:   &bodies[i],
			traced: s.tr != nil && i%2 == 0,
		}
	}
	return ops
}

// phase is one timed open loop. The server's CPU time is sampled at
// every window boundary so CPU per operation can be taken per window.
type phase struct {
	ops    []op
	res    openLoopResult
	window time.Duration
	cpu    []time.Duration // at start + k·window
}

// openLoop runs ops and samples the server's CPU every window.
func (s *session) openLoop(ctx context.Context, ops []op, window time.Duration) (*phase, error) {
	split := false
	for i := range ops {
		split = split || ops[i].path == "/ingest"
	}
	ph := &phase{ops: ops, window: window}
	start := time.Now().Add(20 * time.Millisecond)
	windows := int(ops[len(ops)-1].due/window) + 1
	ph.cpu = make([]time.Duration, windows+1)
	var cpuErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range ph.cpu {
			sleepUntil(start.Add(time.Duration(k) * window))
			if c, err := s.srv.cpuTime(); err != nil {
				cpuErr = err
			} else {
				ph.cpu[k] = c
			}
		}
	}()
	ph.res = runOpenLoop(ctx, s.client, "http://"+s.srv.addr, start, ops, split, s.tr)
	wg.Wait()
	if cpuErr != nil {
		return nil, cpuErr
	}
	return ph, nil
}

// segments are the pieces of one timed open loop.
type segments []*phase

// segmented runs ops, scheduled over length from 0, as n segments of
// equal length, each rebased to start at 0 and cut into segmentWindows
// windows. between runs before each segment and once after the last:
// the cold starts of setup_s, which so sample the whole run while no
// request is in flight.
func (s *session) segmented(ctx context.Context, ops []op, length time.Duration, n int, between func() error) (segments, error) {
	var out segments
	for _, piece := range splitOps(ops, length, n) {
		if err := between(); err != nil {
			return nil, err
		}
		ph, err := s.openLoop(ctx, piece, length/time.Duration(n)/segmentWindows)
		if err != nil {
			return nil, err
		}
		out = append(out, ph)
	}
	if err := between(); err != nil {
		return nil, err
	}
	return out, nil
}

// splitOps cuts ops, sorted by due time over length, into n pieces of
// length/n by due time, each rebased to start at 0; the last piece
// also takes any op due at or after length.
func splitOps(ops []op, length time.Duration, n int) [][]op {
	seg := length / time.Duration(n)
	out := make([][]op, n)
	lo := 0
	for j := range out {
		hi := lo
		for hi < len(ops) && (j == n-1 || ops[hi].due < time.Duration(j+1)*seg) {
			hi++
		}
		out[j] = append([]op(nil), ops[lo:hi]...)
		for i := range out[j] {
			out[j][i].due -= time.Duration(j) * seg
		}
		lo = hi
	}
	return out
}

// checkLateness reports how late the dispatcher handed requests over
// and invalidates the run if it fell behind its schedule.
func (s *session) checkLateness(segs segments) {
	var late []float64
	for _, ph := range segs {
		late = append(late, ph.res.late...)
	}
	p99, worst := percentile(late, 99), percentile(late, 100)
	diag("loadgen.late_p99_ms", p99, "ms")
	diag("loadgen.late_max_ms", worst, "ms")
	if p99 > lateLimitMS {
		s.chk.check(fmt.Errorf("open-loop generator fell behind its schedule: p99 lateness %.1f ms", p99))
	}
}

// windowed returns the median over every segment's windows of f
// applied to each window's latencies (ms) of the ops keep selects,
// skipping windows with fewer than minN of them. A burst of slow
// seconds moves one window, not the result.
func (segs segments) windowed(keep func(op) bool, minN int, f func([]float64) float64) float64 {
	var per []float64
	for _, ph := range segs {
		for from := time.Duration(0); from <= ph.ops[len(ph.ops)-1].due; from += ph.window {
			xs := ph.res.windowLatenciesMS(ph.ops, keep, from, from+ph.window)
			if len(xs) >= minN {
				per = append(per, f(xs))
			}
		}
	}
	return median(per)
}

// latenciesMS is every segment's latencies (ms) of the ops keep
// selects.
func (segs segments) latenciesMS(keep func(op) bool) []float64 {
	var xs []float64
	for _, ph := range segs {
		xs = append(xs, ph.res.latenciesMS(ph.ops, keep)...)
	}
	return xs
}

// cpuPerOp is the median over windows of the server's CPU time in the
// window divided by the operations due in it that completed.
func (segs segments) cpuPerOp() float64 {
	var per []float64
	for _, ph := range segs {
		for k := 0; k+1 < len(ph.cpu); k++ {
			from, to := time.Duration(k)*ph.window, time.Duration(k+1)*ph.window
			done := 0
			for i := range ph.ops {
				if ph.ops[i].due >= from && ph.ops[i].due < to && !ph.res.outcomes[i].failed() {
					done++
				}
			}
			if done > 0 {
				per = append(per, us(ph.cpu[k+1]-ph.cpu[k])/float64(done))
			}
		}
	}
	return median(per)
}

// count5xx counts the 5xx answers of every segment.
func (segs segments) count5xx() int {
	n := 0
	for _, ph := range segs {
		for i := range ph.res.outcomes {
			if ph.res.outcomes[i].status >= 500 {
				n++
			}
		}
	}
	return n
}

// checkAnnotates counts and checks the /annotate answers of an open
// loop.
func (s *session) checkAnnotates(segs segments) {
	n, failed := 0, 0
	for _, ph := range segs {
		for i := range ph.ops {
			if ph.ops[i].path != "/annotate" {
				continue
			}
			n++
			o := &ph.res.outcomes[i]
			if o.failed() {
				failed++
				continue
			}
			s.chk.check(checkAnnotate(o, ph.ops[i].body.ids[0], s.k))
		}
	}
	s.chk.count(n, failed)
}

// checkAnnotate validates one /annotate answer that did not fail.
func checkAnnotate(o *outcome, id string, k int) error {
	if o.status != http.StatusOK {
		return fmt.Errorf("/annotate answered %d", o.status)
	}
	return checkCard(o.answer, id, k)
}

// warmUp sends bodies to /annotate at rate, untimed and uncounted,
// and checks every answer.
func (s *session) warmUp(ctx context.Context, bodies []body, rate float64) {
	ops := s.schedule(bodies, "/annotate", rate, 0)
	for i := range ops {
		ops[i].traced = false
	}
	res := runOpenLoop(ctx, s.client, "http://"+s.srv.addr, time.Now(), ops, false, nil)
	for i := range ops {
		if err := checkAnnotate(&res.outcomes[i], bodies[i].ids[0], s.k); err != nil {
			s.chk.check(fmt.Errorf("warm-up: %w", err))
		}
	}
}

// annotateLatency reports the /annotate latency: p50 and p90 as the
// median over windows of that percentile within the window, and p99
// over all the requests. In a traced run it also compares traced and
// untraced medians.
func (s *session) annotateLatency(segs segments) {
	isAnn := func(o op) bool { return o.path == "/annotate" }
	p := func(q float64) func([]float64) float64 {
		return func(xs []float64) float64 { return percentile(xs, q) }
	}
	s.put("annotate_p50_ms", segs.windowed(isAnn, minWindowOps, p(50)), "ms")
	s.put("annotate_p90_ms", segs.windowed(isAnn, minWindowOps, p(90)), "ms")
	all := segs.latenciesMS(isAnn)
	diag("annotate.samples", float64(len(all)), "count")
	diag("annotate_p99_ms", percentile(all, 99), "ms")
	if s.tr != nil {
		traced := segs.windowed(func(o op) bool { return isAnn(o) && o.traced }, minWindowOps/2, p(50))
		plain := segs.windowed(func(o op) bool { return isAnn(o) && !o.traced }, minWindowOps/2, p(50))
		diag("trace.annotate_p50_traced_ms", traced, "ms")
		diag("trace.annotate_p50_untraced_ms", plain, "ms")
		diag("trace.overhead_ms", traced-plain, "ms")
	}
}

// cacheDelta reports the cache counters moved between two snapshots.
func (s *session) cacheDelta(a, b statusz) (hits, misses, waiters int64) {
	if a.Cache == nil || b.Cache == nil {
		s.chk.check(fmt.Errorf("/statusz has no cache block"))
		return 0, 0, 0
	}
	return b.Cache.Hits - a.Cache.Hits, b.Cache.Misses - a.Cache.Misses, b.Cache.Waiters - a.Cache.Waiters
}

// serverCounters reports the serve.* per-layer counters over a phase.
func (s *session) serverCounters(a, b statusz, fivexx int) {
	hits, misses, waiters := s.cacheDelta(a, b)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	diag("serve.cache_lookups", float64(hits+misses), "count")
	s.put("serve.cache_hit_ratio", ratio, "ratio")
	s.put("serve.cache_waiters", float64(waiters), "count")
	s.put("serve.failed", float64(b.Shed-a.Shed+b.Timeouts-a.Timeouts)+float64(fivexx), "count")
}

func (s *session) peakRSS() error {
	rss, err := s.srv.peakRSSMiB()
	if err != nil {
		return err
	}
	s.put("server_peak_rss_mb", rss, "MiB")
	return nil
}

// layers runs the in-process pass of a traced run, records its
// per-layer metrics and prints the annotate path's stage table.
func (s *session) layers(ctx context.Context, in layerInput, decodesAll bool) error {
	lr, err := runLayers(ctx, in, s.tr, s.chk)
	if err != nil {
		return err
	}
	decodeShare := lr.missShare
	if decodesAll {
		decodeShare = 1
	}
	for k, v := range lr.m {
		s.put(k, v, unitOf(k))
	}
	diag("inproc.handler_calls", float64(lr.timedCalls), "count")
	spans := s.tr.snapshot()
	tcp := byName(spans, false)["tcp/annotate"]
	e2e := median(tcp)
	s.put("serve.transport_us", e2e-lr.m["serve.handler_us"], "us")
	m := lr.m
	printStageTable("annotate (traced TCP p50)", "µs", e2e, []stageRow{
		{"serve.transport", e2e - m["serve.handler_us"], 1},
		{"recipe.decode", m["recipe.decode_us"], decodeShare},
		{"recipe.resolve", m["recipe.resolve_us"], decodeShare},
		{"recipe.hash", m["recipe.hash_us"], decodeShare},
		{"lexicon.extract", m["lexicon.extract_us"], lr.missShare},
		{"core.foldin", m["core.foldin_us"], lr.missShare},
		{"core.topterms", m["core.topterms_us"], lr.missShare},
		{"rheology.predict", m["rheology.predict_us"], lr.missShare},
		{"annotate.other", m["annotate.other_us"], lr.missShare},
		{"annotate.encode", m["annotate.encode_us"], lr.missShare},
	})
	fmt.Println("  (residual = serve.handler self time: routing, middleware, cache bookkeeping)")
	diag("serve.handler_miss_share", lr.missShare, "ratio")
	// Self times of the client spans: queueing for a connection versus
	// the exchange itself.
	self := byName(spans, true)
	diag("client.queue_p50_us", median(self["client.queue"]), "us")
	diag("client.exchange_p50_us", median(self["client.exchange"]), "us")
	diag("inproc.annotate_loop_self_p50_us", median(self["inproc.annotate"]), "us")
	return nil
}

// unitOf is the unit of an in-process per-layer metric, from its name.
func unitOf(name string) string {
	switch {
	case name == "core.sweeps":
		return "count"
	case name == "pipeline.bundle_bytes":
		return "bytes"
	case name == "ingest.wal_bytes_per_record":
		return "B/record"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	default:
		return "s"
	}
}

// writeTrace writes the run's spans under the run's own directory name
// in .bench_build/traces.
func (s *session) writeTrace() error {
	dir := filepath.Join(filepath.Dir(s.cfg.dir), "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", s.cfg.workload, s.cfg.seed))
	fmt.Println("trace written to", path)
	return s.tr.writeJSONL(path)
}

// annotateFresh: an open loop of /annotate on recipes the server has
// never seen, then a closed-loop /annotate/batch backfill.
func annotateFresh(ctx context.Context, cfg config, chk *checker) (map[string]metric, error) {
	s := newSession(cfg, chk)
	pool, err := recipePool(cfg.seed, poolSize)
	if err != nil {
		return nil, err
	}
	batchFor := time.Duration(cfg.seconds) * time.Second / 4
	openFor := time.Duration(cfg.seconds)*time.Second - batchFor
	n := int(annotateRate * openFor.Seconds())
	warm := singleBodies(pool, fmt.Sprintf("fresh-warm-%d", cfg.seed), int(annotateRate))
	bodies := singleBodies(pool, fmt.Sprintf("fresh-%d", cfg.seed), n)
	// The backfill cycles through batchCycle batches: a period over six
	// times the cache, so every recipe is evicted before it comes round
	// again and every item takes the miss path (checked below).
	batches := batchBodies(pool, fmt.Sprintf("fresh-batch-%d", cfg.seed), batchCycle, batchSize)

	if err := s.fitBundle(); err != nil {
		return nil, err
	}
	args := []string{"-bundle", s.bundle}
	if err := s.start(args); err != nil {
		return nil, err
	}
	defer s.stop()
	s.warmUp(ctx, warm, annotateRate)

	st0, err := s.srv.status(ctx, s.client)
	if err != nil {
		return nil, err
	}
	ops := s.schedule(bodies, "/annotate", annotateRate, 0)
	segs, err := s.segmented(ctx, ops, openFor, segmentCount(openFor), func() error {
		return s.coldStarts(func(int) []string { return args }, setupBurst)
	})
	if err != nil {
		return nil, err
	}
	st1, err := s.srv.status(ctx, s.client)
	if err != nil {
		return nil, err
	}

	var mu sync.Mutex
	recipes, bfailed := 0, 0
	bl := runClosedLoop(ctx, s.client, "http://"+s.srv.addr+"/annotate/batch", batches, batchFor, math.MaxInt, func(i int, o *outcome) {
		ok, err := checkBatch(o, batches[i].ids, s.k)
		chk.check(err)
		mu.Lock()
		defer mu.Unlock()
		recipes += ok
		if o.failed() {
			bfailed++
		}
	})
	st2, err := s.srv.status(ctx, s.client)
	if err != nil {
		return nil, err
	}
	if err := s.peakRSS(); err != nil {
		return nil, err
	}
	s.stop()

	s.checkLateness(segs)
	s.checkAnnotates(segs)
	s.annotateLatency(segs)
	s.put("server_cpu_us_per_op", segs.cpuPerOp(), "us")
	hits, misses, _ := s.cacheDelta(st0, st1)
	diag("validity.cache_hit_ratio", float64(hits)/float64(max(hits+misses, 1)), "ratio")
	if hits != 0 {
		chk.check(fmt.Errorf("fresh recipes hit the cache %d times", hits))
	}
	chk.count(bl.sent, bfailed)
	if bhits, _, _ := s.cacheDelta(st1, st2); bhits != 0 {
		chk.check(fmt.Errorf("backfill batches hit the cache %d times", bhits))
	}
	diag("batch_recipes_per_s", float64(recipes)/bl.elapsed.Seconds(), "recipes/s")

	if !cfg.trace {
		return s.gated()
	}
	s.serverCounters(st0, st1, segs.count5xx())
	if err := s.layers(ctx, s.annotateInput(bodies, nil), true); err != nil {
		return nil, err
	}
	s.setupTable(false)
	return s.perLayer()
}

// segmentCount is how many segments of about segmentLen an open loop
// of length d runs in.
func segmentCount(d time.Duration) int {
	return max(1, int((d+segmentLen/2)/segmentLen))
}

// annotateHot: the same open loop on zipf-distributed keys over a key
// space four times the cache, after an untimed warm-up.
func annotateHot(ctx context.Context, cfg config, chk *checker) (map[string]metric, error) {
	s := newSession(cfg, chk)
	pool, err := recipePool(cfg.seed, poolSize)
	if err != nil {
		return nil, err
	}
	keys := singleBodies(pool, fmt.Sprintf("hot-%d", cfg.seed), hotKeys)
	z := newZipf(cfg.seed, hotKeys, 1)
	warm := make([]body, hotWarmup)
	for i := range warm {
		warm[i] = keys[z.next()]
	}
	openFor := time.Duration(cfg.seconds) * time.Second
	n := int(annotateRate * openFor.Seconds())
	seq := make([]body, n)
	for i := range seq {
		seq[i] = keys[z.next()]
	}

	if err := s.fitBundle(); err != nil {
		return nil, err
	}
	args := []string{"-bundle", s.bundle}
	if err := s.start(args); err != nil {
		return nil, err
	}
	defer s.stop()
	wl := runClosedLoop(ctx, s.client, "http://"+s.srv.addr+"/annotate", warm, time.Minute, len(warm), func(i int, o *outcome) {
		if err := checkAnnotate(o, warm[i].ids[0], s.k); err != nil {
			chk.check(fmt.Errorf("warm-up: %w", err))
		}
	})
	if wl.sent != len(warm) {
		return nil, fmt.Errorf("warm-up sent %d of %d requests", wl.sent, len(warm))
	}

	st0, err := s.srv.status(ctx, s.client)
	if err != nil {
		return nil, err
	}
	ops := s.schedule(seq, "/annotate", annotateRate, 0)
	segs, err := s.segmented(ctx, ops, openFor, segmentCount(openFor), func() error {
		return s.coldStarts(func(int) []string { return args }, setupBurst)
	})
	if err != nil {
		return nil, err
	}
	st1, err := s.srv.status(ctx, s.client)
	if err != nil {
		return nil, err
	}
	if err := s.peakRSS(); err != nil {
		return nil, err
	}
	s.stop()

	s.checkLateness(segs)
	s.checkAnnotates(segs)
	s.annotateLatency(segs)
	s.put("server_cpu_us_per_op", segs.cpuPerOp(), "us")
	hits, misses, _ := s.cacheDelta(st0, st1)
	ratio := float64(hits) / float64(max(hits+misses, 1))
	diag("validity.cache_hit_ratio", ratio, "ratio")
	diag("validity.cache_lookups", float64(hits+misses), "count")
	if ratio <= 0 || ratio >= 1 {
		chk.check(fmt.Errorf("hot hit ratio %.3f is not strictly between 0 and 1", ratio))
	}

	if !cfg.trace {
		return s.gated()
	}
	s.serverCounters(st0, st1, segs.count5xx())
	// Byte-identical repeats are answered from the raw index, so only
	// cache misses decode.
	if err := s.layers(ctx, s.annotateInput(seq, warm), false); err != nil {
		return nil, err
	}
	s.setupTable(false)
	return s.perLayer()
}

// endToEnd and perLayer name the metrics of the two kinds of run, in
// the order BENCHMARK.json lists them.
var (
	endToEnd = []string{"setup_s", "annotate_p50_ms", "server_peak_rss_mb"}
	perLayer = []string{
		"serve.handler_us", "serve.transport_us", "serve.cache_hit_ratio", "serve.cache_waiters", "serve.failed",
		"recipe.decode_us", "recipe.resolve_us", "recipe.hash_us", "lexicon.extract_us", "core.foldin_us",
		"core.topterms_us", "rheology.predict_us", "annotate.annotate_us", "annotate.other_us", "annotate.encode_us",
		"ingest.append_us", "ingest.wal_bytes_per_record", "ingest.refit_once_s", "pipeline.runstream_s",
		"core.sweep_ms", "core.sweeps", "pipeline.prefit_s", "pipeline.encode_ms", "pipeline.bundle_bytes",
		"storage.publish_ms", "storage.promote_ms", "storage.fetch_ms", "pipeline.load_bundle_ms", "serve.swap_ms",
	}
)

// ingestOnly names the per-layer metrics of the write and re-fit
// paths, which only ingest-refit's traffic exercises. The result line
// of a traced run must carry every per-layer metric, so the other
// workloads report them as 0, without timing them.
var ingestOnly = map[string]bool{
	"ingest.append_us": true, "ingest.wal_bytes_per_record": true, "ingest.refit_once_s": true,
	"pipeline.runstream_s": true, "core.sweep_ms": true, "core.sweeps": true, "pipeline.prefit_s": true,
	"pipeline.encode_ms": true, "pipeline.bundle_bytes": true, "storage.publish_ms": true,
	"storage.promote_ms": true, "storage.fetch_ms": true, "serve.swap_ms": true,
}

// pick returns the named metrics for the result line and prints every
// other measured one as a diagnostic. Names in zero that were not
// measured are reported as 0 and listed.
func (s *session) pick(names []string, zero map[string]bool) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	var absent []string
	for _, n := range names {
		m, ok := s.m[n]
		switch {
		case ok:
			out[n] = m
		case zero[n]:
			out[n] = metric{Value: 0, Unit: unitOf(n)}
			absent = append(absent, n)
		default:
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
	}
	if len(absent) > 0 {
		fmt.Printf("not exercised by this workload's traffic, reported as 0: %s\n", strings.Join(absent, " "))
	}
	for n, m := range s.m {
		if _, ok := out[n]; !ok {
			diag(n, m.Value, m.Unit)
		}
	}
	return out, nil
}

func (s *session) gated() (map[string]metric, error) { return s.pick(endToEnd, nil) }

func (s *session) perLayer() (map[string]metric, error) {
	if err := s.writeTrace(); err != nil {
		return nil, err
	}
	return s.pick(perLayer, ingestOnly)
}

// refitRecords is -refit-records for a run of the given length: the
// ingest phase crosses it refitsPerRun times, with a fifth of a step to
// spare for records that arrive while a re-fit is being triggered.
func refitRecords(seconds int) int {
	return int(ingestRate * float64(seconds) / (refitsPerRun + 0.2))
}

// annotateInput is the in-process pass's input on an annotate
// workload: the workload's /annotate bodies, after its warm-up.
func (s *session) annotateInput(bodies, warm []body) layerInput {
	return layerInput{blob: s.blob, k: s.k, annotate: bodies, warm: warm, dir: filepath.Join(s.cfg.dir, "layers")}
}

// baseSeed keeps the re-fit base corpus apart from the request recipes.
func baseSeed(seed uint64) uint64 { return seed ^ 0xBA5E }

// setupTable splits setup_s into the bundle fetch and load the traced
// run timed in-process, and the rest of a cold start.
func (s *session) setupTable(follower bool) {
	rows := []stageRow{{"pipeline.load_bundle", s.m["pipeline.load_bundle_ms"].Value, 1}}
	if follower {
		rows = append(rows, stageRow{"storage.fetch", s.m["storage.fetch_ms"].Value, 1}, stageRow{"serve.swap", s.m["serve.swap_ms"].Value, 1})
	}
	printStageTable("setup (median cold start)", "ms", s.m["setup_s"].Value*1e3, rows)
	fmt.Println("  (residual = process start, flag parsing, listen, readiness probing)")
}

// checkBatch validates one /annotate/batch answer: every item a card
// for its recipe. It returns the items answered.
func checkBatch(o *outcome, ids []string, k int) (int, error) {
	if o.failed() {
		return 0, nil
	}
	if o.status != http.StatusOK {
		return 0, fmt.Errorf("/annotate/batch answered %d", o.status)
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(o.answer, &br); err != nil || len(br.Results) != len(ids) {
		return 0, fmt.Errorf("batch answer malformed: %v", err)
	}
	for j, it := range br.Results {
		if it.Card == nil || it.Error != "" {
			return 0, fmt.Errorf("batch item %d failed: %s", j, it.Error)
		}
		if err := checkWireCard(it.Card, ids[j], k); err != nil {
			return 0, err
		}
	}
	return len(ids), nil
}
