package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns is the client's connection and worker bound: one per core of
// the 2-vCPU machine the benchmark is tuned for, so the load generator
// never outnumbers the server's own annotator pool.
const maxConns = 2

// newClient is the benchmark's one HTTP client: at most maxConns
// keep-alive connections to the server, shared by every worker and the
// /statusz poller.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// op is one scheduled request of an open loop.
type op struct {
	due    time.Duration // send time, from the phase start
	path   string        // e.g. "/annotate"
	body   *body
	traced bool
}

// outcome is what one request got. Latency runs from the due time, so
// a stall also charges the requests queued behind it.
type outcome struct {
	due, sent, done time.Time
	status          int // 0 for a transport error
	answer          []byte
}

func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// failed reports the statuses that count as a failed operation: a
// refusal (429), a deadline (504), any 5xx and any transport error.
func (o *outcome) failed() bool {
	return o.status == 0 || o.status == http.StatusTooManyRequests || o.status >= 500
}

// post sends one body and reads the whole answer.
func post(ctx context.Context, c *http.Client, url string, data []byte) (int, []byte) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return 0, nil
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// openLoopResult is an open loop's outcomes and how late its
// dispatcher ran against the schedule.
type openLoopResult struct {
	start    time.Time
	outcomes []outcome
	late     []float64 // dispatch lateness per op, ms
}

// runOpenLoop sends ops on their schedule, offset from start, from
// maxConns workers. The
// dispatcher hands each op over at its due time into a queue that holds
// the whole schedule, so it never waits for a worker; a request that
// finds its workers busy waits in the queue, and that wait is part of
// its latency. With splitIngest, one worker sends the /ingest ops and
// the other everything else, so a write stalled on fsync holds up later
// writes but not the reads beside them; otherwise both workers share
// one queue. tr, when non-nil, records spans for the traced ops.
func runOpenLoop(ctx context.Context, c *http.Client, base string, start time.Time, ops []op, splitIngest bool, tr *tracer) openLoopResult {
	res := openLoopResult{start: start, outcomes: make([]outcome, len(ops)), late: make([]float64, len(ops))}
	queues := [maxConns]chan int{make(chan int, len(ops))}
	for w := 1; w < maxConns; w++ {
		queues[w] = queues[0]
		if splitIngest {
			queues[w] = make(chan int, len(ops))
		}
	}
	lane := func(i int) int {
		if splitIngest && ops[i].path != "/ingest" {
			return 1
		}
		return 0
	}
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func(jobs chan int) {
			defer wg.Done()
			for i := range jobs {
				o := &res.outcomes[i]
				o.sent = time.Now()
				o.status, o.answer = post(ctx, c, base+ops[i].path, ops[i].body.data)
				o.done = time.Now()
				if tr != nil && ops[i].traced {
					root := tr.add("tcp"+ops[i].path, o.due, o.done, -1, int64(i))
					tr.add("client.queue", o.due, o.sent, root, int64(i))
					tr.add("client.exchange", o.sent, o.done, root, int64(i))
				}
			}
		}(queues[w])
	}
	for i := range ops {
		due := res.start.Add(ops[i].due)
		sleepUntil(due)
		res.late[i] = ms(time.Since(due))
		res.outcomes[i].due = due
		queues[lane(i)] <- i
	}
	close(queues[0])
	if splitIngest {
		close(queues[1])
	}
	wg.Wait()
	return res
}

// latenciesMS collects the latencies of the ops selected by keep, in
// ms, with failed ones as +Inf so they miss every percentile.
func (r *openLoopResult) latenciesMS(ops []op, keep func(op) bool) []float64 {
	return r.windowLatenciesMS(ops, keep, 0, math.MaxInt64)
}

// windowLatenciesMS is latenciesMS for the ops due in [from, to).
func (r *openLoopResult) windowLatenciesMS(ops []op, keep func(op) bool, from, to time.Duration) []float64 {
	var xs []float64
	for i := range ops {
		if !keep(ops[i]) || ops[i].due < from || ops[i].due >= to {
			continue
		}
		o := &r.outcomes[i]
		if o.failed() {
			xs = append(xs, math.Inf(1))
			continue
		}
		xs = append(xs, ms(o.latency()))
	}
	return xs
}

// closedLoopResult is how many requests a closed loop completed and
// how long it ran.
type closedLoopResult struct {
	elapsed time.Duration
	sent    int
}

// runClosedLoop posts bodies back to back from maxConns connections
// until d has passed or limit requests were sent, cycling through
// bodies. done sees each answer on the worker that received it.
func runClosedLoop(ctx context.Context, c *http.Client, url string, bodies []body, d time.Duration, limit int, done func(i int, o *outcome)) closedLoopResult {
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				b := &bodies[i%len(bodies)]
				o := outcome{sent: time.Now()}
				o.status, o.answer = post(ctx, c, url, b.data)
				o.done = time.Now()
				done(i%len(bodies), &o)
			}
		}()
	}
	wg.Wait()
	return closedLoopResult{elapsed: time.Since(start), sent: min(int(next.Load()), limit)}
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. The Go
// runtime's timers wake sleepers on a millisecond grid, which on its own
// made the dispatcher 0.6 ms late at the median; the kernel's
// high-resolution sleep is late by under 0.1 ms.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}
