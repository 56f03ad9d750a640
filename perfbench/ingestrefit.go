package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/recipe"
	"repro/internal/serve"
)

// poll is one /statusz sample of the timed run, with the server's
// resident set read at the same moment.
type poll struct {
	at    time.Time
	st    statusz
	rssMB float64
}

// poller samples /statusz every pollEvery until stopped.
type poller struct {
	mu     sync.Mutex
	polls  []poll
	errs   int
	cancel context.CancelFunc
	done   chan struct{}
}

func startPoller(ctx context.Context, s *session) *poller {
	ctx, cancel := context.WithCancel(ctx)
	p := &poller{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			st, err := s.srv.status(ctx, s.client)
			at := time.Now()
			rss, rerr := s.srv.rssMiB()
			p.mu.Lock()
			if err != nil || rerr != nil {
				if ctx.Err() == nil {
					p.errs++
				}
			} else {
				p.polls = append(p.polls, poll{at: at, st: st, rssMB: rss})
			}
			p.mu.Unlock()
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *poller) last() (poll, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.polls) == 0 {
		return poll{}, false
	}
	return p.polls[len(p.polls)-1], true
}

// stop ends the polling and returns every sample; it may be called
// more than once.
func (p *poller) stop() []poll {
	p.cancel()
	<-p.done
	return p.polls
}

// refitTiming is one re-fit seen from outside: crossing ack → running
// → promoted → served by the follower.
type refitTiming struct {
	gen                   int64
	wait, run, lag, total time.Duration
	crossSeq, watermark   uint64
	peakMB                float64 // highest resident set sampled from crossing to served
}

// analyzeRefits splits every promotion seen in the polls into its
// phases. acks maps each acked sequence number to when its ack
// arrived; r is -refit-records.
func analyzeRefits(polls []poll, acks map[uint64]time.Time, r uint64, chk *checker) []refitTiming {
	var out []refitTiming
	var prevGen int64
	var prevW uint64
	from := 0
	for i, p := range polls {
		in := p.st.Ingest
		if in == nil || in.LastPromoted == prevGen {
			continue
		}
		t := refitTiming{gen: in.LastPromoted, crossSeq: prevW + r, watermark: in.Watermark}
		cross, ok := acks[t.crossSeq]
		if !ok {
			chk.check(fmt.Errorf("re-fit to generation %d: no ack for the crossing record %d", t.gen, t.crossSeq))
			return out
		}
		running := p.at
		for _, q := range polls[from:i] {
			if q.at.After(cross) && q.st.Ingest != nil && q.st.Ingest.RefitState == ingest.RefitRunning {
				running = q.at
				break
			}
		}
		served := time.Time{}
		for _, q := range polls[from:] {
			if q.at.After(cross) {
				t.peakMB = max(t.peakMB, q.rssMB)
			}
			if !q.at.Before(p.at) && q.st.Registry != nil && q.st.Registry.Generation == t.gen {
				served = q.at
				break
			}
		}
		if served.IsZero() {
			chk.check(fmt.Errorf("promoted generation %d was never served", t.gen))
			return out
		}
		if running.Before(cross) {
			running = cross
		}
		t.wait, t.run, t.lag = running.Sub(cross), p.at.Sub(running), served.Sub(p.at)
		t.total = served.Sub(cross)
		out = append(out, t)
		prevGen, prevW, from = t.gen, t.watermark, i
	}
	return out
}

// ingestRefit: an open loop of /ingest beside /annotate reads of the
// recipes ingested a second earlier, on a server following a
// file-system registry whose re-fit controller fires every
// -refit-records acks.
func ingestRefit(ctx context.Context, cfg config, chk *checker) (map[string]metric, error) {
	s := newSession(cfg, chk)
	pool, err := recipePool(cfg.seed, poolSize)
	if err != nil {
		return nil, err
	}
	n := int(ingestRate * float64(cfg.seconds))
	r := refitRecords(cfg.seconds)
	bodies := singleBodies(pool, fmt.Sprintf("ingest-%d", cfg.seed), n)
	warm := singleBodies(pool, fmt.Sprintf("ingest-warm-%d", cfg.seed), 200)
	basePath := filepath.Join(cfg.dir, "base.jsonl")
	if err := writeBaseCorpus(basePath, baseSeed(cfg.seed), baseRecipes); err != nil {
		return nil, err
	}
	if err := s.fitBundle(); err != nil {
		return nil, err
	}
	regDir := filepath.Join(cfg.dir, "registry")
	reg, err := newRegistry(regDir)
	if err != nil {
		return nil, err
	}
	gen, err := reg.Publish(ctx, s.blob, "benchmark seed")
	if err != nil {
		return nil, err
	}
	if err := reg.Promote(ctx, gen.ID); err != nil {
		return nil, err
	}
	args := func(walDir string) []string {
		return []string{
			"-store", "fs:" + regDir, "-ingest-dir", walDir, "-refit-base", basePath,
			"-refit-records", strconv.Itoa(r), "-refit-interval", "50ms", "-registry-poll", "50ms",
		}
	}
	setupArgs := func(i int) []string { return args(filepath.Join(cfg.dir, fmt.Sprintf("setup-wal-%d", i))) }
	if err := s.coldStarts(setupArgs, setupStarts/2); err != nil {
		return nil, err
	}
	if err := s.start(args(filepath.Join(cfg.dir, "wal"))); err != nil {
		return nil, err
	}
	defer s.stop()
	s.warmUp(ctx, warm, 2*readRate)

	ops := append(s.schedule(bodies, "/ingest", ingestRate, 0),
		s.schedule(bodies[:n-int(readRate*readDelay.Seconds())], "/annotate", readRate, readDelay+5*time.Millisecond)...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })

	st0, err := s.srv.status(ctx, s.client)
	if err != nil {
		return nil, err
	}
	cpu0, err := s.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	p := startPoller(ctx, s)
	defer p.stop()
	// One window over the whole phase: the re-fits run about half the
	// time, so a median over windows would flip between windows with and
	// without a re-fit from one run to the next.
	whole := time.Duration(cfg.seconds) * time.Second
	ph, err := s.openLoop(ctx, ops, whole)
	if err != nil {
		return nil, err
	}
	segs := segments{ph}
	res := &ph.res
	phaseEnd := time.Now()
	// Wait for the re-fits this traffic caused: refitsPerRun promotions
	// served, or (if fewer fired) the controller idle with less than one
	// step pending.
	deadline := phaseEnd.Add(2 * time.Minute)
	for {
		q, ok := p.last()
		if ok && q.st.Ingest != nil && q.st.Registry != nil {
			in, rg := q.st.Ingest, q.st.Registry
			settled := in.RefitState != ingest.RefitRunning && rg.Generation == in.LastPromoted
			if settled && (promotions(p) >= refitsPerRun ||
				(time.Since(phaseEnd) > 5*time.Second && in.RecordsSinceFit < uint64(r))) {
				break
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("re-fits did not settle within 2 minutes of the traffic's end")
		}
		time.Sleep(pollEvery)
	}
	cpu1, err := s.srv.cpuTime()
	if err != nil {
		return nil, err
	}
	polls := p.stop()
	st1, err := s.srv.status(ctx, s.client)
	if err != nil {
		return nil, err
	}
	hwm, err := s.srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	diag("server.vmhwm_mb", hwm, "MiB")
	s.stop()
	if err := s.coldStarts(setupArgs, setupStarts/2); err != nil {
		return nil, err
	}

	// Answer checks: every ingest a fresh 202, every read a card.
	acks := map[uint64]time.Time{}
	ingested, ifailed := 0, 0
	for i := range ops {
		if ops[i].path != "/ingest" {
			continue
		}
		ingested++
		o := &res.outcomes[i]
		switch {
		case o.failed():
			ifailed++
			continue
		case o.status != http.StatusAccepted:
			chk.check(fmt.Errorf("/ingest of a fresh recipe answered %d", o.status))
			continue
		}
		var ack serve.IngestAck
		if err := json.Unmarshal(o.answer, &ack); err != nil || ack.Duplicate || ack.Seq == 0 {
			chk.check(fmt.Errorf("/ingest ack malformed or duplicate: %s", o.answer))
			continue
		}
		acks[ack.Seq] = o.done
	}
	chk.count(ingested, ifailed)
	s.checkLateness(segs)
	s.checkAnnotates(segs)
	if st1.Ingest == nil || st1.Registry == nil {
		return nil, fmt.Errorf("/statusz lacks the ingest or registry block")
	}
	if st1.Ingest.WAL.Records != uint64(len(acks)) {
		chk.check(fmt.Errorf("WAL holds %d records but %d were acked", st1.Ingest.WAL.Records, len(acks)))
	}
	if st1.Registry.Generation != st1.Ingest.LastPromoted {
		chk.check(fmt.Errorf("serving generation %d, last promoted %d", st1.Registry.Generation, st1.Ingest.LastPromoted))
	}
	refits := analyzeRefits(polls, acks, uint64(r), chk)
	diag("validity.acked_records", float64(len(acks)), "count")
	diag("validity.wal_records", float64(st1.Ingest.WAL.Records), "count")
	diag("validity.refits", float64(len(refits)), "count")
	diag("validity.refit_records", float64(r), "count")
	if len(refits) < 2 {
		chk.check(fmt.Errorf("only %d re-fits promoted in the run", len(refits)))
	}
	if p.errs > 0 {
		chk.check(fmt.Errorf("%d /statusz polls failed", p.errs))
	}

	s.annotateLatency(segs)
	isIngest := func(o op) bool { return o.path == "/ingest" }
	lat := res.latenciesMS(ops, isIngest)
	diag("ingest_p50_ms", percentile(lat, 50), "ms")
	diag("ingest_p90_ms", percentile(lat, 90), "ms")
	diag("ingest.ack_p99_ms", percentile(lat, 99), "ms")
	var total, wait, run, lag, peak []float64
	for _, t := range refits {
		peak = append(peak, t.peakMB)
		total = append(total, t.total.Seconds())
		wait = append(wait, t.wait.Seconds())
		run = append(run, t.run.Seconds())
		lag = append(lag, t.lag.Seconds())
		fmt.Printf("refit generation %d: crossing seq %d, watermark %d, wait %.3fs run %.3fs lag %.3fs total %.3fs, peak RSS %.1f MiB\n",
			t.gen, t.crossSeq, t.watermark, t.wait.Seconds(), t.run.Seconds(), t.lag.Seconds(), t.total.Seconds(), t.peakMB)
	}
	diag("refit_s", median(total), "s")
	// The process-lifetime peak is the largest of a few GC-timed spikes,
	// one per re-fit; the median re-fit's peak is the steadier figure.
	s.put("server_peak_rss_mb", median(peak), "MiB")
	diag("ingest.refit_wait_s", median(wait), "s")
	diag("ingest.refit_run_s", median(run), "s")
	diag("serve.follower_lag_s", median(lag), "s")
	// CPU over the whole phase and the re-fits it caused, per
	// operation: the re-fits make per-window figures meaningless.
	done := 0
	for i := range res.outcomes {
		if !res.outcomes[i].failed() {
			done++
		}
	}
	s.put("server_cpu_us_per_op", us(cpu1-cpu0)/float64(max(done, 1)), "us")
	wal := st1.Ingest.WAL
	s.put("ingest.wal_bytes_per_record", float64(wal.Bytes)/float64(max(wal.Records, 1)), "B/record")

	if !cfg.trace {
		return s.gated()
	}
	s.serverCounters(st0, st1, segs.count5xx())
	// The re-fit stages fold in the first -refit-records of the
	// recipes this run ingested.
	records := make([]recipe.Recipe, r)
	for i := range records {
		if err := json.Unmarshal(bodies[i].data, &records[i]); err != nil {
			return nil, err
		}
	}
	in := layerInput{blob: s.blob, k: s.k, annotate: bodies, ingestFirst: true,
		records: records, basePath: basePath, dir: filepath.Join(cfg.dir, "layers")}
	if err := s.layers(ctx, in, true); err != nil {
		return nil, err
	}
	m := s.m
	e2e := median(byName(s.tr.snapshot(), false)["tcp/ingest"])
	printStageTable("ingest (traced TCP p50)", "µs", e2e, []stageRow{
		{"recipe.decode", m["recipe.decode_us"].Value, 1},
		{"recipe.resolve", m["recipe.resolve_us"].Value, 1},
		{"ingest.append", m["ingest.append_us"].Value, 1},
	})
	fmt.Println("  (residual = transport, routing, ack encoding)")
	printStageTable("refit (median over re-fits)", "s", median(total), []stageRow{
		{"ingest.refit_wait", median(wait), 1},
		{"ingest.refit_run", median(run), 1},
		{"serve.follower_lag", median(lag), 1},
	})
	printStageTable("refit_run (in-process split)", "s", median(run), []stageRow{
		{"pipeline.prefit", m["pipeline.prefit_s"].Value, 1},
		{"core.sweeps", m["core.sweep_ms"].Value * m["core.sweeps"].Value / 1e3, 1},
		{"pipeline.encode", m["pipeline.encode_ms"].Value / 1e3, 1},
		{"storage.publish", m["storage.publish_ms"].Value / 1e3, 1},
		{"storage.promote", m["storage.promote_ms"].Value / 1e3, 1},
	})
	fmt.Println("  (residual = serving traffic competing for the cores, WAL replay)")
	printStageTable("follower_lag (in-process split)", "s", median(lag), []stageRow{
		{"storage.fetch", m["storage.fetch_ms"].Value / 1e3, 1},
		{"pipeline.load_bundle", m["pipeline.load_bundle_ms"].Value / 1e3, 1},
		{"serve.swap", m["serve.swap_ms"].Value / 1e3, 1},
	})
	fmt.Println("  (residual = registry poll interval and manifest reads)")
	s.setupTable(true)
	return s.perLayer()
}

// promotions counts the distinct re-fit generations promoted so far.
func promotions(p *poller) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	var last int64
	for _, q := range p.polls {
		if q.st.Ingest != nil && q.st.Ingest.LastPromoted != last {
			last = q.st.Ingest.LastPromoted
			n++
		}
	}
	return n
}
