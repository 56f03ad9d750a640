package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// A handler slower than the arrival rate makes requests queue behind
// each other. Latency must run from the due time, so it includes that
// queueing, while the dispatcher itself stays on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 40 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
	}))
	defer srv.Close()

	b := body{data: []byte("{}")}
	ops := make([]op, 10)
	for i := range ops {
		ops[i] = op{due: time.Duration(i) * 5 * time.Millisecond, path: "/", body: &b}
	}
	res := runOpenLoop(context.Background(), newClient(), srv.URL, time.Now(), ops, false, nil)

	if late := percentile(res.late, 100); late > 20 {
		t.Errorf("dispatcher ran %.1f ms late with nothing else to do", late)
	}
	for i := range ops {
		o := &res.outcomes[i]
		if o.status != http.StatusOK {
			t.Fatalf("op %d: status %d", i, o.status)
		}
		// Two workers, so op i cannot finish before (i/2+1) service
		// times after the start, whatever its own due time.
		earliest := time.Duration(i/2+1)*service - ops[i].due
		if lat := o.latency(); lat < earliest {
			t.Errorf("op %d: latency %v from due, want at least %v", i, lat, earliest)
		}
		if o.latency() < o.done.Sub(o.sent) {
			t.Errorf("op %d: latency %v shorter than its exchange", i, o.latency())
		}
	}
	last := &res.outcomes[len(ops)-1]
	if wait := last.sent.Sub(last.due); wait < 100*time.Millisecond {
		t.Errorf("last op queued %v behind the slow handler, want ≥ 100ms", wait)
	}
}

// With splitIngest, a stalled write does not hold up the reads.
func TestOpenLoopSplitKeepsReadsOffStalledWrites(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest" {
			time.Sleep(60 * time.Millisecond)
		}
	}))
	defer srv.Close()
	b := body{data: []byte("{}")}
	var ops []op
	for i := 0; i < 6; i++ {
		d := time.Duration(i) * 10 * time.Millisecond
		ops = append(ops, op{due: d, path: "/ingest", body: &b}, op{due: d + time.Millisecond, path: "/annotate", body: &b})
	}
	res := runOpenLoop(context.Background(), newClient(), srv.URL, time.Now(), ops, true, nil)
	for i := range ops {
		if ops[i].path == "/annotate" {
			if lat := res.outcomes[i].latency(); lat > 30*time.Millisecond {
				t.Errorf("read %d waited %v behind stalled writes", i, lat)
			}
		}
	}
}

func TestClosedLoopCyclesUpToLimit(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer srv.Close()
	bodies := make([]body, 3)
	var mu sync.Mutex
	seen := map[int]int{}
	res := runClosedLoop(context.Background(), newClient(), srv.URL, bodies, time.Minute, 7, func(i int, o *outcome) {
		mu.Lock()
		defer mu.Unlock()
		if o.status != http.StatusOK {
			t.Errorf("body %d: status %d", i, o.status)
		}
		seen[i]++
	})
	if res.sent != 7 {
		t.Fatalf("sent %d requests, want the limit of 7", res.sent)
	}
	if seen[0] != 3 || seen[1] != 2 || seen[2] != 2 {
		t.Errorf("requests per body = %v, want 3,2,2", seen)
	}
}

// The segments of a split open loop hold every op once, in order, each
// due within its own segment's length once rebased.
func TestSplitOpsRebasesEachSegment(t *testing.T) {
	const rate = 400.0
	length := 22500 * time.Millisecond
	b := body{data: []byte("{}")}
	ops := make([]op, int(rate*length.Seconds()))
	for i := range ops {
		ops[i] = op{due: time.Duration(float64(i) / rate * float64(time.Second)), body: &b}
	}
	n := segmentCount(length)
	if n != 8 {
		t.Fatalf("segmentCount(%v) = %d, want 8", length, n)
	}
	seg := length / time.Duration(n)
	k := 0
	for j, piece := range splitOps(ops, length, n) {
		if len(piece) < 1100 || len(piece) > 1150 {
			t.Errorf("segment %d holds %d ops, want about %v", j, len(piece), rate*seg.Seconds())
		}
		for _, o := range piece {
			if o.due < 0 || o.due >= seg {
				t.Fatalf("segment %d: op due at %v, outside [0, %v)", j, o.due, seg)
			}
			if want := ops[k].due - time.Duration(j)*seg; o.due != want {
				t.Fatalf("op %d: rebased due %v, want %v", k, o.due, want)
			}
			k++
		}
	}
	if k != len(ops) {
		t.Fatalf("segments hold %d ops, want %d", k, len(ops))
	}
}
