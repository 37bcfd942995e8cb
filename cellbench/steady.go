package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// spec is the part of BENCHMARK.json the steadiness report reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady runs each workload c.steady times, each in its own process
// with seeds 1..N, and prints every end-to-end metric's median,
// quartiles and interquartile range as a share of the median, against
// the metric's bound. A spread above a third of its bound is flagged.
func steady(c *config, stdout, stderr io.Writer) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	seconds := sp.RunSeconds
	fmt.Fprint(stdout, machineBlock())
	for _, w := range sp.Workloads {
		if c.workload != "" && c.workload != w.Name {
			continue
		}
		values := map[string][]float64{}
		var failed, attempted []int
		for seed := 1; seed <= c.steady; seed++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0", "--work", c.work)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var r result
			if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if !r.Correct {
				return fmt.Errorf("%s seed %d: wrong output", w.Name, seed)
			}
			failed, attempted = append(failed, r.Failed), append(attempted, r.Attempted)
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
			}
			fmt.Fprintf(stderr, "%s seed %d: %s\n", w.Name, seed, lines[len(lines)-1])
		}
		fmt.Fprintf(stdout, "%s: %d runs of %d s, failed %v of attempted %v\n", w.Name, c.steady, seconds, failed, attempted)
		fmt.Fprintf(stdout, "  %-14s %12s %12s %12s %8s %7s\n", "metric", "q1", "median", "q3", "iqr%", "bound%")
		for _, m := range sp.EndToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			iqr := 100 * (q3 - q1) / q2
			flag := ""
			if iqr > 100*m.Bound/3 {
				flag = "  above a third of the bound"
			}
			fmt.Fprintf(stdout, "  %-14s %12.4f %12.4f %12.4f %8.2f %7.0f%s\n", m.Name, q1, q2, q3, iqr, 100*m.Bound, flag)
		}
	}
	return nil
}
