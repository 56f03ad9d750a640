package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Offsets are from the
// tracer's start; Parent is the index of the span that caused this one
// (-1 for a root); spans of one request share Req.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Req    int64         `json:"req"`
}

// tracer keeps spans in memory; they are written out once, when the
// run ends, so recording costs an append and never an I/O.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, req int64) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere, such as an
// open-loop request timed from its due time.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, req int64, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children are
// counted once, and a child reaching outside its parent is clipped to
// it. Spans never ended have no self time and are left out.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			self[i] = -1
			continue
		}
		var iv [][2]time.Duration
		for _, c := range children[i] {
			cs, ce := spans[c].Start, spans[c].End
			if ce < cs {
				continue
			}
			cs, ce = max(cs, s.Start), min(ce, s.End)
			if ce > cs {
				iv = append(iv, [2]time.Duration{cs, ce})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered := time.Duration(0)
		var cur [2]time.Duration
		for k, x := range iv {
			switch {
			case k == 0:
				cur = x
			case x[0] <= cur[1]:
				cur[1] = max(cur[1], x[1])
			default:
				covered += cur[1] - cur[0]
				cur = x
			}
		}
		if len(iv) > 0 {
			covered += cur[1] - cur[0]
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// byName groups durations (µs) of finished spans by span name, either
// whole durations or self times.
func byName(spans []span, self bool) map[string][]float64 {
	var st []time.Duration
	if self {
		st = selfTimes(spans)
	}
	out := make(map[string][]float64)
	for i, s := range spans {
		if s.End < s.Start {
			continue
		}
		d := s.End - s.Start
		if self {
			d = st[i]
		}
		out[s.Name] = append(out[s.Name], us(d))
	}
	return out
}

// stageRow is one line of a path's stage table.
type stageRow struct {
	name  string
	v     float64
	share float64 // share of the path's operations that run this stage
}

// printStageTable prints a path's stages against its end-to-end time
// and appends the residual row, so the rows add up to the total. A
// row's contribution is its median times the share of the path's
// operations that run it.
func printStageTable(path, unit string, total float64, rows []stageRow) {
	fmt.Printf("stages %s: end-to-end %.3f %s\n", path, total, unit)
	acc := 0.0
	for _, r := range rows {
		c := r.v * r.share
		acc += c
		fmt.Printf("  %-24s %12.3f %s  (median %.3f × share %.3f)\n", r.name, c, unit, r.v, r.share)
	}
	fmt.Printf("  %-24s %12.3f %s\n", "residual", total-acc, unit)
}
