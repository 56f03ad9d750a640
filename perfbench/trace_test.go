package main

import (
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/serve"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Start: 0, End: 100 * ms, Parent: -1},
		// Two overlapping children count once: [10,50] covers 40.
		{Name: "a", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "b", Start: 20 * ms, End: 50 * ms, Parent: 0},
		// A child running past its parent is clipped: [90,100] covers 10.
		{Name: "c", Start: 90 * ms, End: 120 * ms, Parent: 0},
		// A grandchild reduces its parent's self time, not the root's.
		{Name: "b1", Start: 25 * ms, End: 35 * ms, Parent: 2},
		// A span never ended has no self time.
		{Name: "open", Start: 60 * ms, End: -1, Parent: 0},
	}
	self := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms, -1}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].Name, self[i], want[i])
		}
	}
	names := byName(spans, true)
	if got := names["root"]; len(got) != 1 || got[0] != 50000 {
		t.Errorf("byName self root = %v µs, want [50000]", got)
	}
	if _, ok := names["open"]; ok {
		t.Error("an unfinished span was reported")
	}
}

func TestTracerRecordsParentAndRequest(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", -1, 7)
	tr.timed("child", root, 7, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Req != 7 {
		t.Fatalf("spans = %+v", spans)
	}
	self := selfTimes(spans)
	if whole := spans[0].End - spans[0].Start; self[0]+self[1] != whole {
		t.Errorf("root self %v + child %v != root %v", self[0], self[1], whole)
	}
}

// Each re-fit's wait, run and lag telescope into its total, measured
// from the ack of the record that crossed -refit-records.
func TestAnalyzeRefits(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	mk := func(s float64, state string, promoted, serving int64, wm uint64) poll {
		return poll{at: at(s), st: statusz{
			Ingest:   &ingest.Status{RefitState: state, LastPromoted: promoted, Watermark: wm},
			Registry: &serve.RegistryStatus{Generation: serving},
		}}
	}
	polls := []poll{
		mk(0.0, "idle", 0, 1, 0),
		mk(1.1, "running", 0, 1, 0),
		mk(3.0, "idle", 2, 1, 102),
		mk(3.2, "idle", 2, 2, 102),
		mk(5.2, "running", 2, 2, 102),
		mk(7.0, "idle", 3, 2, 205),
		mk(7.1, "idle", 3, 3, 205),
	}
	acks := map[uint64]time.Time{100: at(1.0), 202: at(5.0)}
	chk := &checker{}
	got := analyzeRefits(polls, acks, 100, chk)
	if !chk.ok() || len(got) != 2 {
		t.Fatalf("refits = %+v, errors %v", got, chk.first)
	}
	want := []struct{ wait, run, lag float64 }{{0.1, 1.9, 0.2}, {0.2, 1.8, 0.1}}
	for i, w := range want {
		r := got[i]
		if d := r.wait.Seconds() - w.wait; d > 1e-9 || d < -1e-9 {
			t.Errorf("refit %d wait %v, want %v", i, r.wait, w.wait)
		}
		if d := r.run.Seconds() - w.run; d > 1e-9 || d < -1e-9 {
			t.Errorf("refit %d run %v, want %v", i, r.run, w.run)
		}
		if d := r.lag.Seconds() - w.lag; d > 1e-9 || d < -1e-9 {
			t.Errorf("refit %d lag %v, want %v", i, r.lag, w.lag)
		}
		if r.wait+r.run+r.lag != r.total {
			t.Errorf("refit %d phases %v+%v+%v != total %v", i, r.wait, r.run, r.lag, r.total)
		}
	}

	// A promotion the follower never serves fails the run.
	chk = &checker{}
	analyzeRefits(polls[:3], acks, 100, chk)
	if chk.ok() {
		t.Error("an unserved promotion passed the check")
	}
}
