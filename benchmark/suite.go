package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// declared is the part of BENCHMARK.json the suite needs: which metrics are
// gated, and by how much each may worsen.
type declared struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// child runs one workload in a process of its own, so that heap, warm
// teams and peak RSS never leak from one workload into the next, and
// returns the result object from the last line of its output.
func child(o options, name string, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-root", o.root, "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-1], &res); jerr != nil {
		return nil, fmt.Errorf("%s: no result (%v, %v)", name, err, jerr)
	}
	return &res, nil
}

func printMetrics(title string, res *result) {
	fmt.Printf("%s  attempted=%d failed=%d correct=%v\n", title, res.Attempted, res.Failed, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  %-34s %16.6f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
}

// suite runs every workload. Plain, it prints the end-to-end and per-layer
// tables. With selfcheck it runs the end-to-end pass twice over the same
// code and prints, for each of the gated pairs, the difference between
// the two as a share of the pair's bound; any share above 1 means the
// benchmark would have rejected a change that changed nothing.
func suite(o options, selfcheck bool) int {
	var decl declared
	data, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err == nil {
		err = json.Unmarshal(data, &decl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	status := 0
	// run reports one child; a child without a result ends the suite.
	run := func(name, title string, traced bool) *result {
		res, err := child(o, name, traced)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printMetrics(name+" ("+title+")", res)
		if !res.Correct {
			status = 1
		}
		return res
	}
	passes := 1
	if selfcheck {
		passes = 2
	}
	runs := make([]map[string]*result, passes)
	for pass := range runs {
		runs[pass] = map[string]*result{}
		for _, w := range workloads {
			runs[pass][w.name] = run(w.name, fmt.Sprintf("pass %d, end to end", pass+1), false)
			if !selfcheck {
				run(w.name, "traced pass, per layer", true)
			}
		}
	}
	if !selfcheck {
		return status
	}
	fmt.Printf("\n%-14s %-12s %14s %14s %8s %10s\n", "workload", "metric", "pass 1", "pass 2", "bound", "|d|/bound")
	for _, w := range workloads {
		for _, m := range decl.EndToEnd {
			a, b := runs[0][w.name].Metrics[m.Name].Value, runs[1][w.name].Metrics[m.Name].Value
			share := math.Abs(b-a) / a / m.Bound
			fmt.Printf("%-14s %-12s %14.6f %14.6f %8.2f %10.2f\n", w.name, m.Name, a, b, m.Bound, share)
			if share > 1 {
				status = 1
			}
		}
	}
	return status
}
