package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"

	"cellmatch/internal/core"
	"cellmatch/internal/server"
)

func TestOracleFindsOverlapsInOrder(t *testing.T) {
	pats := [][]byte{[]byte("he"), []byte("she"), []byte("his"), []byte("hers"), []byte("s")}
	got := newOracle(pats, false).find([]byte("ushers his"))
	want := []core.Match{
		{Pattern: 4, End: 2}, {Pattern: 0, End: 4}, {Pattern: 1, End: 4},
		{Pattern: 3, End: 6}, {Pattern: 4, End: 6}, {Pattern: 2, End: 10}, {Pattern: 4, End: 10},
	}
	if err := sameMatches(got, want); err != nil {
		t.Fatal(err)
	}
}

func TestOracleFoldsBothSides(t *testing.T) {
	o := newOracle([][]byte{[]byte("AbC")}, true)
	if got := o.find([]byte("abc ABC aBc")); len(got) != 3 {
		t.Errorf("folded oracle found %d of 3", len(got))
	}
	if got := newOracle([][]byte{[]byte("AbC")}, false).find([]byte("abc ABC AbC")); len(got) != 1 {
		t.Errorf("exact oracle found %d of 1", len(got))
	}
}

// The oracle is independent of the matcher; on every workload's inputs
// it must agree with it exactly.
func TestOracleAgreesWithMatcher(t *testing.T) {
	for _, name := range workloadNames {
		in, err := makeInput(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		m, err := core.Compile(in.dict(true), in.opts)
		if err != nil {
			t.Fatal(err)
		}
		data := in.corpus[:512<<10]
		got, err := m.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameMatches(got, newOracle(in.dict(true), in.opts.CaseFold).find(data)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		probe, err := m.FindAll(in.probe)
		if err != nil {
			t.Fatal(err)
		}
		r := responseFor(m, in.probe, probe)
		if err := checkProbe(&r, in.probeHits, len(in.base), true); err != nil {
			t.Errorf("%s probe: %v", name, err)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func responseFor(m *core.Matcher, data []byte, ms []core.Match) server.ScanResponse {
	var buf bytes.Buffer
	if err := encodeResponse(&buf, m, data, ms); err != nil {
		panic(err)
	}
	var r server.ScanResponse
	if err := json.Unmarshal(buf.Bytes(), &r); err != nil {
		panic(err)
	}
	return r
}

func TestCheckResponseRejectsCorruption(t *testing.T) {
	pats := [][]byte{[]byte("abc"), []byte("bcd"), []byte("zz")}
	data := []byte("xxabcdxxzzabc")
	m, err := core.Compile(pats, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := newOracle(pats, false).find(data)
	good := responseFor(m, data, want)
	if err := checkResponse(&good, data, want, len(want), pats); err != nil {
		t.Fatalf("a correct response was rejected: %v", err)
	}
	for name, corrupt := range map[string]func(r *server.ScanResponse){
		"dropped match": func(r *server.ScanResponse) { r.Matches = r.Matches[1:]; r.Count-- },
		"count only":    func(r *server.ScanResponse) { r.Count++ },
		"shifted end":   func(r *server.ScanResponse) { r.Matches[1].End++; r.Matches[1].Start++ },
		"wrong pattern": func(r *server.ScanResponse) { r.Matches[0].Pattern = 1 },
		"bad pattern":   func(r *server.ScanResponse) { r.Matches[0].Pattern = 9 },
		"wrong text":    func(r *server.ScanResponse) { r.Matches[2].Text = "zy" },
		"wrong start":   func(r *server.ScanResponse) { r.Matches[2].Start-- },
		"swapped order": func(r *server.ScanResponse) { r.Matches[0], r.Matches[1] = r.Matches[1], r.Matches[0] },
		"duplicated": func(r *server.ScanResponse) {
			r.Matches = append(r.Matches[:1], r.Matches...)
			r.Matches = r.Matches[:len(r.Matches)-1]
		},
	} {
		r := responseFor(m, data, want)
		corrupt(&r)
		if err := checkResponse(&r, data, want, len(want), pats); err == nil {
			t.Errorf("%s: corrupted response accepted", name)
		}
	}
}

func TestCheckProbe(t *testing.T) {
	hits := []core.Match{{Pattern: 3, End: 10}, {Pattern: 4, End: 20}}
	in := server.ScanResponse{Matches: []server.MatchJSON{{Pattern: 1, End: 5}, {Pattern: 3, End: 10}, {Pattern: 4, End: 20}}}
	if err := checkProbe(&in, hits, 3, true); err != nil {
		t.Errorf("complete probe rejected: %v", err)
	}
	if err := checkProbe(&in, hits, 3, false); err == nil {
		t.Error("batch matches accepted while the batch is out")
	}
	in.Matches = in.Matches[:2]
	if err := checkProbe(&in, hits, 3, true); err == nil {
		t.Error("probe missing a planted hit accepted")
	}
}

// BENCHMARK.json must list exactly the metrics the benchmark prints.
func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var sp struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		units  map[string]string
	}{{sp.EndToEnd, e2eUnits}, {sp.PerLayer, layerUnits}} {
		seen := map[string]bool{}
		for _, m := range c.listed {
			seen[m.Name] = true
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("BENCHMARK.json lists %s in %s; the benchmark prints it in %q (present: %v)", m.Name, m.Unit, u, ok)
			}
		}
		for _, name := range sortedKeys(c.units) {
			if !seen[name] {
				t.Errorf("metric %s is printed but not listed in BENCHMARK.json", name)
			}
		}
	}
}

// One traced round of every workload: every operation succeeds and
// every phase leaves a sample.
func TestOneRoundEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		in, err := makeInput(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newBench(in, t.TempDir(), os.Stderr)
		if err != nil {
			t.Fatal(err)
		}
		b.tr = newTracer()
		b.round()
		if err := b.close(); err != nil {
			t.Fatal(err)
		}
		if b.failed != 0 || b.wrong || b.ops == 0 {
			t.Errorf("%s: %d of %d operations failed (wrong output: %v)", name, b.failed, b.ops, b.wrong)
		}
		for _, s := range []string{"setup_s", "setup_wall_s", "dict_MB", "scan_MB_per_cpu_s", "scan_MBps", "scan_cpu_ms", "scan_ms", "reload_cpu_ms", "reload_ms", "stream_MB_per_cpu_s", "stream_MBps", "batch_cpu_ms", "batch_ms"} {
			if len(b.samples[s]) == 0 {
				t.Errorf("%s: no %s sample", name, s)
			}
		}
		if b.gen != 3 || b.batches[0] == 0 {
			t.Errorf("%s: generation %d after two reloads, %d batches", name, b.gen, b.batches[0])
		}
	}
}
