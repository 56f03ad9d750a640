package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// printSpread reads result lines (the JSON objects the benchmark
// prints last), one per run, and prints for each metric its median and
// the distance between its first and third quartiles as a share of the
// median: the run-to-run spread a metric's bound must cover.
func printSpread(r io.Reader, w io.Writer) error {
	values := map[string][]float64{}
	runs := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		var res result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil || res.Metrics == nil {
			continue
		}
		runs++
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("need at least two result lines, got %d", runs)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%d runs\n", runs)
	for _, n := range names {
		xs := values[n]
		q1, q2, q3 := quartiles(xs)
		fmt.Fprintf(w, "%-24s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.3f\n", n, q2, q1, q3, (q3-q1)/q2)
	}
	return nil
}
