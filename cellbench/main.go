// Command cellbench is cellmatch's end-to-end benchmark. It runs one
// seeded workload against the matcher and the serving stack in a
// single process, checks every output against its own reference
// matcher, and prints the workload's metrics as one JSON object on the
// last line of standard output:
//
//	cellbench --workload logscan --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes a separate
// traced run that reports the per-layer metrics. --steady N runs every
// workload N times in child processes and prints each end-to-end
// metric's median and quartiles against its bound in BENCHMARK.json.
// See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	work     string
	steady   int
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("cellbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c := &config{}
	fs.StringVar(&c.workload, "workload", "", fmt.Sprintf("workload to run, one of %v", workloadNames))
	fs.Int64Var(&c.seed, "seed", 1, "seed for every generated input")
	fs.IntVar(&c.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&c.trace, "trace", 0, "1 makes the traced run that reports per-layer metrics")
	fs.StringVar(&c.work, "work", ".bench_build", "directory for the run's scratch files")
	fs.IntVar(&c.steady, "steady", 0, "run each workload this many times and report spreads")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	switch {
	case fs.NArg() > 0:
		return nil, fmt.Errorf("unexpected arguments %v", fs.Args())
	case c.seconds < 1:
		return nil, fmt.Errorf("--seconds %d: need at least 1", c.seconds)
	case c.trace != 0 && c.trace != 1:
		return nil, fmt.Errorf("--trace %d: want 0 or 1", c.trace)
	case c.steady == 0 && c.workload == "":
		return nil, fmt.Errorf("--workload is required")
	}
	return c, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "cellbench:", err)
		return 2
	}
	if c.steady > 0 {
		err = steady(c, stdout, stderr)
	} else {
		err = runWorkload(c, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "cellbench:", err)
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runWorkload(c *config, stdout, stderr io.Writer) error {
	in, err := makeInput(c.workload, c.seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(c.work, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b, err := newBench(in, work, stderr)
	if err != nil {
		return err
	}
	var ms map[string]metric
	if c.trace == 1 {
		ms, err = b.runTraced(time.Duration(c.seconds) * time.Second)
		if err == nil {
			err = b.tr.write(filepath.Join(c.work, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed)))
		}
	} else {
		ms, err = b.runUntraced(time.Duration(c.seconds) * time.Second)
	}
	if cerr := b.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(result{
		Correct: !b.wrong, Attempted: b.ops, Failed: b.failed, Metrics: ms,
	})
}

// e2eUnits lists the end-to-end metrics; BENCHMARK.json carries the
// same names with their bounds. Every timing is on the process's CPU
// clock (see processCPU).
var e2eUnits = map[string]string{
	"setup_s":             "s",
	"scan_MB_per_cpu_s":   "MB/cpu-s",
	"scan_cpu_p50_ms":     "ms",
	"stream_MB_per_cpu_s": "MB/cpu-s",
	"batch_cpu_ms":        "ms",
	"reload_cpu_ms":       "ms",
	"dict_MB":             "MB",
}

// runUntraced measures whole rounds until d has passed.
func (b *bench) runUntraced(d time.Duration) (map[string]metric, error) {
	start := time.Now()
	for time.Since(start) < d {
		b.round()
	}
	return b.e2e()
}

// e2e reduces the samples to the end-to-end metrics: medians of
// per-round samples, and percentiles over every request.
func (b *bench) e2e() (map[string]metric, error) {
	out := map[string]metric{}
	for _, name := range []string{"setup_s", "scan_MB_per_cpu_s", "stream_MB_per_cpu_s", "batch_cpu_ms", "reload_cpu_ms", "dict_MB"} {
		if len(b.samples[name]) == 0 {
			return nil, fmt.Errorf("no successful %s sample", name)
		}
		out[name] = metric{median(b.samples[name]), e2eUnits[name]}
	}
	scan := sorted(b.samples["scan_cpu_ms"])
	if len(scan) == 0 {
		return nil, fmt.Errorf("no successful /scan request")
	}
	out["scan_cpu_p50_ms"] = metric{nearestRank(scan, 0.5), "ms"}
	// The tail is logged, not reported: even on the CPU clock its
	// spread across ten runs reached the largest usable bound on a
	// shared 2-vCPU host (see README.md).
	if p90, err := tailPercentile(scan, 0.9); err == nil {
		fmt.Fprintf(b.log, "cellbench: %s: /scan CPU p90 %.4f ms over %d requests\n", b.in.name, p90, len(scan))
	}
	b.logWall()
	return out, nil
}

// logWall logs the wall-clock figures beside the reported ones. They
// are what a caller waits on an unshared host, but on a shared one they
// move with the host's load (see README.md).
func (b *bench) logWall() {
	wall := sorted(b.samples["scan_ms"])
	if len(wall) == 0 {
		return
	}
	tail := "p90 needs more requests"
	if p90, err := tailPercentile(wall, 0.9); err == nil {
		tail = fmt.Sprintf("p90 %.3f ms", p90)
	}
	batch := sorted(b.samples["batch_ms"])
	batchP50 := math.NaN()
	if len(batch) > 0 {
		batchP50 = nearestRank(batch, 0.5)
	}
	fmt.Fprintf(b.log, "cellbench: %s: wall clock: set-up %.4f s, FindAll %.1f MB/s, /scan p50 %.3f ms, %s over %d requests, stream %.1f MB/s, /scan/batch p50 %.3f ms, reload %.3f ms\n",
		b.in.name, median(b.samples["setup_wall_s"]), median(b.samples["scan_MBps"]),
		nearestRank(wall, 0.5), tail, len(wall), median(b.samples["stream_MBps"]), batchP50, median(b.samples["reload_ms"]))
}
