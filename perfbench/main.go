// Command perfbench is the repository's end-to-end benchmark. It starts
// a real cmd/textureserver, drives it over TCP from one process with at
// most two connections, checks every answer, and prints the metrics of
// one workload:
//
//	perfbench -root DIR -server BIN --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics. With --trace 1 the same traffic runs with
// client-side spans, each layer's public entry point is then timed
// in-process on the workload's own inputs, and the last line carries
// the per-layer metrics instead. run.sh builds both binaries and runs
// this command; README.md explains the workloads.
//
//	perfbench -spread < results.jsonl
//
// summarises the result lines of repeated runs: each metric's median and
// its interquartile spread as a share of the median.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checker collects answer-check violations; any one fails the run.
type checker struct {
	mu     sync.Mutex
	errs   int
	first  []string
	failed int64
	tried  int64
}

func (c *checker) check(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.errs++
	if len(c.first) < 10 {
		c.first = append(c.first, err.Error())
	}
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.errs == 0
}

// count adds attempted and failed operations.
func (c *checker) count(attempted, failed int) {
	c.mu.Lock()
	c.tried += int64(attempted)
	c.failed += int64(failed)
	c.mu.Unlock()
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // the textureserver binary
	dir      string // this run's scratch directory
}

// diag prints a diagnostic number: a metric that is measured and shown
// but not part of the gated result line.
func diag(name string, v float64, unit string) {
	fmt.Printf("diag %s = %.4f %s\n", name, v, unit)
}

func main() {
	var (
		root     = flag.String("root", ".", "repository checkout the benchmark writes its scratch files under")
		bin      = flag.String("server", "", "textureserver binary")
		workload = flag.String("workload", "", "workload: annotate-fresh, annotate-hot or ingest-refit")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds")
		trace    = flag.Int("trace", 0, "1 for the traced per-layer run")
		spread   = flag.Bool("spread", false, "read result lines on stdin and print each metric's median and quartile spread")
	)
	flag.Parse()
	if *spread {
		if err := printSpread(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[*workload]
	if !ok || *bin == "" || *seconds < 4 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -server BIN --workload annotate-fresh|annotate-hot|ingest-refit --seed N --seconds S (≥4) --trace 0|1")
		os.Exit(2)
	}
	dir := filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, bin: *bin, dir: dir}
	chk := &checker{}
	metrics, err := run(context.Background(), cfg, chk)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			chk.check(fmt.Errorf("metric %s is %v", name, m.Value))
			metrics[name] = metric{Value: -1, Unit: m.Unit}
		}
	}
	for _, e := range chk.first {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %s = %.4f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	out, err := json.Marshal(result{Correct: chk.ok(), Attempted: chk.tried, Failed: chk.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
