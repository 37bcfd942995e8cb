package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/filter"
	"cellmatch/internal/parallel"
	"cellmatch/internal/registry"
	"cellmatch/internal/server"
)

// readBufBytes is larger than any host cache the benchmark expects, so
// the read ceiling measures memory bandwidth.
const readBufBytes = 64 << 20

// layerKit is what the layer step needs beyond the bench itself.
type layerKit struct {
	filter  *filter.Filter
	step    *stepTable
	readBuf []byte
	pool    *parallel.Pool
	remove  []int // batch pattern ids in the batch-in dictionary
	pairs   [][][]byte
}

// runTraced is the per-layer run: whole rounds of the served phases
// (so the server-side layer metrics come from the same traffic as the
// end-to-end ones), each followed by the layer step once untraced and
// once traced, in alternating order. The untraced step prices the
// tracing itself.
func (b *bench) runTraced(d time.Duration) (map[string]metric, error) {
	f, err := filter.Build(b.in.base, b.m[0].System().Red)
	if err != nil {
		return nil, fmt.Errorf("filter: %w", err)
	}
	k := &layerKit{filter: f, step: newStepTable(), readBuf: make([]byte, readBufBytes), pool: parallel.NewPool(0)}
	defer k.pool.Close()
	// Real bytes, not untouched zero pages the kernel maps for free.
	for off := 0; off < len(k.readBuf); off += copy(k.readBuf[off:], b.in.corpus) {
	}
	for i := range b.in.batch {
		k.remove = append(k.remove, len(b.in.base)+i)
	}
	for i := 0; i+1 < len(b.in.batchPayloads); i += 2 {
		k.pairs = append(k.pairs, b.in.batchPayloads[i:i+2])
	}
	b.tr = newTracer()
	var plain, traced []float64
	start := time.Now()
	for r := 1; time.Since(start) < d; r++ {
		b.round()
		for i := 0; i < 2; i++ {
			runtime.GC()
			if (r+i)%2 == 0 {
				plain = append(plain, b.layerStep(nil, k, r).Seconds())
			} else {
				traced = append(traced, b.layerStep(b.tr, k, r).Seconds())
			}
		}
	}
	return b.layerMetrics(k, 100*(median(traced)-median(plain))/median(plain))
}

// layerStep calls each module's public functions once, under spans
// when t is set, and checks every result.
func (b *bench) layerStep(t *tracer, k *layerKit, trace int) time.Duration {
	in := b.in
	start := time.Now()
	root := t.begin("round", 0, trace)
	timed := func(name string, n int, f func() error) {
		id := t.begin(name, root, trace)
		err := f()
		t.end(id, n)
		b.record(name, err)
	}
	pats := func(m *core.Matcher, want int) error {
		if m.NumPatterns() != want {
			return wrongf("%d patterns, want %d", m.NumPatterns(), want)
		}
		return nil
	}

	var cold, grown *core.Matcher
	timed("compile.cold", len(in.base), func() (err error) {
		cold, err = core.Compile(in.base, in.opts)
		return err
	})
	if cold != nil {
		b.record("compile.cold", pats(cold, len(in.base)))
		timed("compile.delta", len(in.batch), func() (err error) {
			grown, _, err = cold.AddPatterns(in.batch)
			return err
		})
	}
	if grown != nil {
		b.record("compile.delta", pats(grown, len(in.base)+len(in.batch)))
		var shrunk *core.Matcher
		timed("compile.delta", len(in.batch), func() (err error) {
			shrunk, _, err = grown.RemovePatterns(k.remove)
			return err
		})
		if shrunk != nil {
			b.record("compile.delta", pats(shrunk, len(in.base)))
		}
	}
	timed("core.stats", 0, func() error {
		if st := b.m[0].Stats(); st.Patterns != len(in.base) {
			return wrongf("Stats reports %d patterns", st.Patterns)
		}
		return nil
	})
	var loaded *core.Matcher
	timed("registry.load", 0, func() (err error) {
		loaded, _, err = registry.DictDeltaLoader(b.path, in.opts)(nil)
		return err
	})
	if loaded != nil {
		reg := registry.NewDelta(b.path, registry.DictDeltaLoader(b.path, in.opts))
		timed("registry.publish", 0, func() error {
			if e := reg.Swap(loaded, b.path); e.Generation != 1 {
				return wrongf("first publish is generation %d", e.Generation)
			}
			return nil
		})
	}

	var segs []filter.Segment
	var skipped int64
	timed("filter.segments", len(in.corpus), func() error {
		segs, skipped = k.filter.Segments(in.corpus)
		return nil
	})
	cand := 0
	for _, s := range segs {
		cand += s.End - s.Start
	}
	t.end(t.begin("filter.skipped", root, trace), int(skipped))
	t.end(t.begin("filter.candidates", root, trace), cand)

	findAll := func(name string, f func() ([]core.Match, error)) {
		timed(name, len(in.corpus), func() error {
			ms, err := f()
			if err != nil {
				return err
			}
			return b.checkCorpus(ms)
		})
	}
	m := b.m[0]
	findAll("verify.unfiltered", func() ([]core.Match, error) { return m.FindAllUnfiltered(in.corpus) })
	timed("verify.count", len(in.corpus), func() error {
		n, err := m.Count(in.corpus)
		if err == nil && n != len(b.want.corpus) {
			err = wrongf("Count %d, want %d", n, len(b.want.corpus))
		}
		return err
	})
	findAll("core.findall", func() ([]core.Match, error) { return m.FindAll(in.corpus) })
	findAll("parallel.findall", func() ([]core.Match, error) {
		return m.FindAllParallel(in.corpus, core.ParallelOptions{})
	})
	findAll("parallel.reader", func() ([]core.Match, error) {
		return m.ScanReader(bytes.NewReader(in.corpus), core.ParallelOptions{})
	})
	for i, pair := range k.pairs {
		timed("parallel.batch", len(pair), func() error {
			got, err := m.FindAllBatch(pair, core.ParallelOptions{Pool: k.pool})
			if err != nil {
				return err
			}
			for j := range pair {
				if err := sameMatches(got[j], b.want.batch[2*i+j]); err != nil {
					return wrongOutput{err}
				}
			}
			return nil
		})
	}

	for i, p := range in.scanPayloads {
		var ms []core.Match
		want := withoutBatch(b.want.scan[i], len(in.base))
		timed("server.poolscan", len(p), func() (err error) {
			if ms, err = m.FindAllParallel(p, core.ParallelOptions{Pool: k.pool}); err != nil {
				return err
			}
			if err := sameMatches(ms, want); err != nil {
				return wrongOutput{err}
			}
			return nil
		})
		var cw countingWriter
		timed("server.encode", 0, func() error {
			return encodeResponse(&cw, m, p, ms)
		})
		t.end(t.begin("server.resp_bytes", root, trace), cw.n)
	}

	timed("ceiling.step", len(in.corpus), func() error { k.step.stepMBps(in.corpus); return nil })
	timed("ceiling.read", len(k.readBuf), func() error { readMBps(k.readBuf); return nil })
	t.end(root, 0)
	return time.Since(start)
}

// encodeResponse renders matches the way the server's /scan does: a
// server.ScanResponse through encoding/json with HTML escaping off.
func encodeResponse(w io.Writer, m *core.Matcher, data []byte, ms []core.Match) error {
	resp := server.ScanResponse{
		Tenant: "default", Generation: 1, Engine: m.EngineName(), Filter: m.FilterActive(),
		Stride: m.Stride(), Bytes: len(data), Count: len(ms), Matches: make([]server.MatchJSON, len(ms)),
	}
	for i, x := range ms {
		start := x.End - len(m.Pattern(x.Pattern))
		resp.Matches[i] = server.MatchJSON{Pattern: x.Pattern, Start: start, End: x.End, Text: string(data[start:x.End])}
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(resp)
}

func b2f(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// layerUnits lists the per-layer metrics; BENCHMARK.json carries the
// same names.
var layerUnits = map[string]string{
	"compile.cold_ms":           "ms",
	"compile.delta_ms":          "ms",
	"core.stats_ms":             "ms",
	"compile.table_KB":          "KB",
	"registry.load_ms":          "ms",
	"registry.publish_us":       "us",
	"filter.skip_pct":           "%",
	"filter.candidate_pct":      "%",
	"filter.ns_per_B":           "ns/B",
	"filter.live":               "bool",
	"verify.ns_per_B":           "ns/B",
	"verify.count_ns_per_B":     "ns/B",
	"ceiling.step_MBps":         "MB/s",
	"ceiling.read_MBps":         "MB/s",
	"verify.step_ceiling_pct":   "%",
	"core.convert_ns_per_match": "ns/match",
	"parallel.MBps":             "MB/s",
	"parallel.speedup":          "x",
	"parallel.overlap_pct":      "%",
	"parallel.reader_MBps":      "MB/s",
	"parallel.batch_ms":         "ms",
	"server.overhead_ms":        "ms",
	"server.encode_ms":          "ms",
	"server.resp_KB":            "KB",
	"server.alloc_KB_per_req":   "KB",
	"server.batch_coalesce_avg": "payloads",
	"server.batch_wait_ms":      "ms",
	"trace.overhead_pct":        "%",
}

// layerMetrics derives the per-layer metrics from the spans. A layer's
// time is the median self time of its spans.
func (b *bench) layerMetrics(k *layerKit, overheadPct float64) (map[string]metric, error) {
	if len(b.samples["scan_ms"]) == 0 || len(b.samples["batch_ms"]) == 0 {
		return nil, fmt.Errorf("no successful /scan or /scan/batch request")
	}
	scanP50 := nearestRank(sorted(b.samples["scan_ms"]), 0.5)
	batchP50 := nearestRank(sorted(b.samples["batch_ms"]), 0.5)
	t := b.tr
	all := t.allSpans()
	ms := func(name string) float64 {
		var xs []float64
		for _, s := range t.named(name) {
			xs = append(xs, float64(selfTime(s, all))/1e6)
		}
		return median(xs)
	}
	perByte := func(name string) float64 {
		var xs []float64
		for _, s := range t.named(name) {
			xs = append(xs, float64(selfTime(s, all))/float64(s.N))
		}
		return median(xs)
	}
	mbps := func(name string) float64 { return 1e3 / perByte(name) }
	count := func(name string) float64 {
		var xs []float64
		for _, s := range t.named(name) {
			xs = append(xs, float64(s.N))
		}
		return median(xs)
	}
	in := b.in
	st := b.m[0].Stats()
	window := k.filter.Window
	matches := float64(len(b.want.corpus))
	chunks := (len(in.corpus) + parallel.DefaultChunkBytes - 1) / parallel.DefaultChunkBytes
	values := map[string]float64{
		"compile.cold_ms":           ms("compile.cold"),
		"compile.delta_ms":          ms("compile.delta"),
		"core.stats_ms":             ms("core.stats"),
		"compile.table_KB":          float64(st.KernelTableBytes+st.PairTableBytes+st.CompressedTableBytes) / 1024,
		"registry.load_ms":          ms("registry.load"),
		"registry.publish_us":       ms("registry.publish") * 1e3,
		"filter.skip_pct":           100 * count("filter.skipped") / float64(len(in.corpus)-window+1),
		"filter.candidate_pct":      100 * count("filter.candidates") / float64(len(in.corpus)),
		"filter.live":               b2f(b.m[0].FilterActive()),
		"filter.ns_per_B":           perByte("filter.segments"),
		"verify.ns_per_B":           perByte("verify.unfiltered"),
		"verify.count_ns_per_B":     perByte("verify.count"),
		"ceiling.step_MBps":         mbps("ceiling.step"),
		"ceiling.read_MBps":         mbps("ceiling.read"),
		"verify.step_ceiling_pct":   100 * mbps("verify.unfiltered") / mbps("ceiling.step"),
		"core.convert_ns_per_match": (ms("core.findall") - ms("verify.count")) * 1e6 / matches,
		"parallel.MBps":             mbps("parallel.findall"),
		"parallel.speedup":          ms("core.findall") / ms("parallel.findall"),
		"parallel.overlap_pct":      100 * float64((chunks-1)*(st.MaxPatternLen-1)) / float64(len(in.corpus)),
		"parallel.reader_MBps":      mbps("parallel.reader"),
		"parallel.batch_ms":         ms("parallel.batch"),
		"server.overhead_ms":        scanP50 - ms("server.poolscan"),
		"server.encode_ms":          ms("server.encode"),
		"server.resp_KB":            count("server.resp_bytes") / 1024,
		"server.alloc_KB_per_req":   float64(b.allocB) / float64(b.allocReqs) / 1024,
		"server.batch_coalesce_avg": float64(b.batches[1]) / float64(b.batches[0]),
		"server.batch_wait_ms":      batchP50 - ms("parallel.batch"),
		"trace.overhead_pct":        overheadPct,
	}
	out := map[string]metric{}
	for name, v := range values {
		unit, ok := layerUnits[name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s has no unit", name)
		}
		out[name] = metric{v, unit}
	}
	if len(out) != len(layerUnits) {
		return nil, fmt.Errorf("derived %d layer metrics, %d are defined", len(out), len(layerUnits))
	}
	return out, nil
}
