package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"cellmatch/internal/core"
	"cellmatch/internal/registry"
	"cellmatch/internal/server"
)

// wrongOutput marks a failure where the program answered, but wrongly.
type wrongOutput struct{ error }

func wrongf(format string, args ...any) error {
	return wrongOutput{fmt.Errorf(format, args...)}
}

// bench runs one workload: it owns the inputs, their expected outputs,
// the long-lived serving stack and the samples of every phase.
type bench struct {
	in   *input
	path string // dictionary file the stack serves and reloads
	log  io.Writer

	m       [2]*core.Matcher // in-process matchers: [0] base, [1] batch in
	want    expected
	cl      *client
	st      *stack
	gen     uint64
	batchIn bool
	buf     bytes.Buffer

	ops, failed, logged int
	wrong               bool
	samples             map[string][]float64

	// Set in traced runs only.
	tr        *tracer
	allocB    uint64 // bytes allocated during /scan exchanges
	allocReqs int
	batches   [2]uint64 // /stats batches and batch payloads summed over batch phases
}

// expected holds the oracle's answers and the in-process counts the
// served counts must equal. Per-payload lists are for the batch-in
// dictionary; withoutBatch gives the base dictionary's.
type expected struct {
	corpus      []core.Match // base dictionary
	corpusCount int
	scan        [][]core.Match
	scanCount   [2][]int
	batch       [][]core.Match // base dictionary
	batchCount  []int
	probe       []core.Match
	probeCount  [2]int
}

func newBench(in *input, work string, log io.Writer) (*bench, error) {
	b := &bench{in: in, log: log, cl: newClient(), samples: map[string][]float64{}}
	var err error
	if b.path, err = filepath.Abs(filepath.Join(work, "dict.txt")); err != nil {
		return nil, err
	}
	if err := os.WriteFile(b.path, dictFile(in.base), 0o644); err != nil {
		return nil, err
	}
	for i := range b.m {
		if b.m[i], err = core.Compile(in.dict(i == 1), in.opts); err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
	}
	base := newOracle(in.base, in.opts.CaseFold)
	full := newOracle(in.dict(true), in.opts.CaseFold)
	w := &b.want
	w.corpus = base.find(in.corpus)
	if len(w.corpus) < in.planted {
		return nil, fmt.Errorf("oracle finds %d matches, %d were planted", len(w.corpus), in.planted)
	}
	count := func(m *core.Matcher, data []byte) int {
		n, cerr := m.Count(data)
		if cerr != nil && err == nil {
			err = cerr
		}
		return n
	}
	w.corpusCount = count(b.m[0], in.corpus)
	for _, p := range in.scanPayloads {
		w.scan = append(w.scan, full.find(p))
		w.scanCount[0] = append(w.scanCount[0], count(b.m[0], p))
		w.scanCount[1] = append(w.scanCount[1], count(b.m[1], p))
	}
	for _, p := range in.batchPayloads {
		w.batch = append(w.batch, base.find(p))
		w.batchCount = append(w.batchCount, count(b.m[0], p))
	}
	w.probe = full.find(in.probe)
	w.probeCount = [2]int{count(b.m[0], in.probe), count(b.m[1], in.probe)}
	if err != nil {
		return nil, err
	}
	if b.st, err = startStack(b.path, in.opts); err != nil {
		return nil, err
	}
	b.gen = b.st.reg.Current().Generation
	return b, nil
}

func (b *bench) close() error {
	err := b.st.stop()
	b.cl.tr.CloseIdleConnections()
	return err
}

// dict is the dictionary the stack currently serves.
func (b *bench) dict() [][]byte { return b.in.dict(b.batchIn) }

func (b *bench) state() int {
	if b.batchIn {
		return 1
	}
	return 0
}

// served filters a batch-in expectation down to the served dictionary.
func (b *bench) served(ms []core.Match) []core.Match {
	if b.batchIn {
		return ms
	}
	return withoutBatch(ms, len(b.in.base))
}

// record counts one attempted operation and its outcome.
func (b *bench) record(what string, err error) bool {
	b.ops++
	if err == nil {
		return true
	}
	b.failed++
	var w wrongOutput
	if errors.As(err, &w) {
		b.wrong = true
	}
	if b.logged < 10 {
		b.logged++
		fmt.Fprintf(b.log, "cellbench: %s: %s: %v\n", b.in.name, what, err)
	}
	return false
}

func (b *bench) sample(name string, v float64) { b.samples[name] = append(b.samples[name], v) }

// round runs every phase once, each after a GC. Every round attempts
// the same operations, so failures are a fixed share of attempts.
func (b *bench) round() {
	runtime.GC()
	b.setupTrial()
	runtime.GC()
	b.dictTrial()
	runtime.GC()
	b.scanTrial()
	runtime.GC()
	b.scanPass()
	runtime.GC()
	b.streamTrial()
	runtime.GC()
	b.batchTrial()
}

// setupTrial times a cold set-up: a fresh registry loads the pattern
// file through the dict loader and publishes it, a fresh server starts
// on a new listener, and /healthz answers.
func (b *bench) setupTrial() {
	w := startWatch()
	st, err := startStack(b.path, b.in.opts)
	if err == nil {
		_, err = b.cl.do("GET", st.url+"/healthz", nil, &b.buf)
	}
	el := w.elapsed()
	if st != nil {
		if serr := st.stop(); err == nil {
			err = serr
		}
	}
	b.cl.tr.CloseIdleConnections()
	if b.record("setup", err) {
		b.sample("setup_s", el.cpu.Seconds())
		b.sample("setup_wall_s", el.wall.Seconds())
	}
}

// dictTrial measures the live heap a published dictionary retains.
func (b *bench) dictTrial() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	reg := registry.NewDelta(b.path, registry.DictDeltaLoader(b.path, b.in.opts))
	e, err := reg.Reload()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	after := ms.HeapAlloc
	if err == nil && e.Matcher.NumPatterns() != len(b.in.base) {
		err = wrongf("loaded %d patterns, file has %d", e.Matcher.NumPatterns(), len(b.in.base))
	}
	runtime.KeepAlive(reg)
	if b.record("dict load", err) {
		b.sample("dict_MB", float64(int64(after)-int64(before))/1e6)
	}
}

// scanReps is how many in-process passes over the corpus one round
// makes, so that one round's sample is not a single ms-scale timing.
var scanReps = map[string]int{"logscan": 8, "shortsig": 2, "bigdict": 1}

// scanTrial times in-process FindAll over the whole corpus with the
// production defaults.
func (b *bench) scanTrial() {
	reps := scanReps[b.in.name]
	var el cost
	ok := 0
	for r := 0; r < reps; r++ {
		w := startWatch()
		ms, err := b.m[0].FindAll(b.in.corpus)
		c := w.elapsed()
		el.wall += c.wall
		el.cpu += c.cpu
		if err == nil {
			err = b.checkCorpus(ms)
		}
		if b.record("FindAll", err) {
			ok++
		}
	}
	if ok == reps {
		mb := float64(reps*len(b.in.corpus)) / 1e6
		b.sample("scan_MB_per_cpu_s", mb/el.cpu.Seconds())
		b.sample("scan_MBps", mb/el.wall.Seconds())
	}
}

func (b *bench) checkCorpus(ms []core.Match) error {
	if err := sameMatches(ms, b.want.corpus); err != nil {
		return wrongOutput{err}
	}
	if len(ms) < b.in.planted {
		return wrongf("%d matches, %d were planted", len(ms), b.in.planted)
	}
	return nil
}

// scanPass sends every /scan payload once over one connection, closed
// loop, with the reload batch toggled in halfway and out at the end.
func (b *bench) scanPass() {
	n := len(b.in.scanPayloads)
	for i, p := range b.in.scanPayloads {
		if i == n/2 {
			b.reload(true)
		}
		b.scanOne(p, b.want.scan[i], b.want.scanCount[b.state()][i])
	}
	b.reload(false)
}

func (b *bench) scanOne(p []byte, want []core.Match, inproc int) {
	var ms runtime.MemStats
	if b.tr != nil {
		runtime.ReadMemStats(&ms)
	}
	before := ms.TotalAlloc
	took, err := b.cl.do("POST", b.st.url+"/scan", bytes.NewReader(p), &b.buf)
	if b.tr != nil {
		runtime.ReadMemStats(&ms)
		b.allocB += ms.TotalAlloc - before
		b.allocReqs++
	}
	if err == nil {
		_, err = b.checkScan(b.buf.Bytes(), p, b.served(want), inproc)
	}
	if b.record("/scan", err) {
		b.sample("scan_cpu_ms", float64(took.cpu)/1e6)
		b.sample("scan_ms", float64(took.wall)/1e6)
	}
}

// checkScan decodes and judges a served scan response.
func (b *bench) checkScan(body, payload []byte, want []core.Match, inproc int) (*server.ScanResponse, error) {
	var r server.ScanResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, wrongf("decode: %v", err)
	}
	if r.Generation != b.gen {
		return nil, wrongf("served generation %d, published %d", r.Generation, b.gen)
	}
	if err := checkResponse(&r, payload, want, inproc, b.dict()); err != nil {
		return nil, wrongOutput{err}
	}
	return &r, nil
}

// reload rewrites the dictionary file with the batch in or out, asks
// the server for a delta reload, and scans the probe. A GC goes first,
// so that a collection the /scan pass set off does not land in the
// reload's CPU time.
func (b *bench) reload(batchIn bool) {
	err := os.WriteFile(b.path, dictFile(b.in.dict(batchIn)), 0o644)
	var took cost
	if err == nil {
		runtime.GC()
		q := url.Values{"path": {b.path}, "format": {"dict"}, "mode": {"delta"}}
		if b.in.opts.CaseFold {
			q.Set("casefold", "1")
		}
		took, err = b.cl.do("POST", b.st.url+"/reload?"+q.Encode(), nil, &b.buf)
	}
	if err == nil {
		var r server.ReloadResponse
		switch {
		case json.Unmarshal(b.buf.Bytes(), &r) != nil:
			err = wrongf("undecodable reload response %q", b.buf.Bytes())
		case r.Generation <= b.gen:
			err = wrongf("reload published generation %d after %d", r.Generation, b.gen)
		case r.Outcome == "unchanged" || r.Patterns != len(b.in.dict(batchIn)):
			err = wrongf("reload outcome %s with %d patterns, file has %d", r.Outcome, r.Patterns, len(b.in.dict(batchIn)))
		}
	}
	if b.record("/reload", err) {
		b.sample("reload_cpu_ms", float64(took.cpu)/1e6)
		b.sample("reload_ms", float64(took.wall)/1e6)
	}
	// Follow what is actually published, so a failed reload does not
	// cascade into every later check.
	e := b.st.reg.Current()
	b.gen = e.Generation
	b.batchIn = e.Matcher.NumPatterns() > len(b.in.base)
	b.probe()
}

// probe checks that the batch's planted occurrences are absent while
// the batch is out and all found while it is in.
func (b *bench) probe() {
	_, err := b.cl.do("POST", b.st.url+"/scan", bytes.NewReader(b.in.probe), &b.buf)
	var r *server.ScanResponse
	if err == nil {
		r, err = b.checkScan(b.buf.Bytes(), b.in.probe, b.served(b.want.probe), b.want.probeCount[b.state()])
	}
	if err == nil {
		err = checkProbe(r, b.in.probeHits, len(b.in.base), b.batchIn)
	}
	b.record("/scan probe", err)
}

func checkProbe(r *server.ScanResponse, hits []core.Match, nBase int, batchIn bool) error {
	found := map[core.Match]bool{}
	for _, m := range r.Matches {
		if m.Pattern >= nBase {
			if !batchIn {
				return wrongf("batch pattern %d matched at %d while out of the dictionary", m.Pattern, m.End)
			}
			found[core.Match{Pattern: m.Pattern, End: m.End}] = true
		}
	}
	if batchIn {
		for _, h := range hits {
			if !found[h] {
				return wrongf("planted batch pattern %d ending at %d not found", h.Pattern, h.End)
			}
		}
	}
	return nil
}

// streamTrial uploads the whole corpus to /scan/stream in chunks.
func (b *bench) streamTrial() {
	took, err := b.cl.do("POST", b.st.url+"/scan/stream", chunked{bytes.NewReader(b.in.corpus)}, &b.buf)
	if err == nil {
		_, err = b.checkScan(b.buf.Bytes(), nil, b.want.corpus, b.want.corpusCount)
	}
	if b.record("/scan/stream", err) {
		mb := float64(len(b.in.corpus)) / 1e6
		b.sample("stream_MB_per_cpu_s", mb/took.cpu.Seconds())
		b.sample("stream_MBps", mb/took.wall.Seconds())
	}
}

// batchTrial sends the 4 KiB payloads to /scan/batch from two
// connections, closed loop, half the payloads each. With two requests
// in flight the CPU clock cannot be split between them, so the phase's
// CPU time is shared out evenly; each request's wall-clock latency is
// kept for the per-layer batch wait.
func (b *bench) batchTrial() {
	const conns = 2
	before, berr := b.batchStats()
	type result struct {
		lat  time.Duration
		body []byte
		err  error
	}
	res := make([]result, len(b.in.batchPayloads))
	per := len(res) / conns
	var wg sync.WaitGroup
	w := startWatch()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := c * per; i < (c+1)*per; i++ {
				took, err := b.cl.do("POST", b.st.url+"/scan/batch", bytes.NewReader(b.in.batchPayloads[i]), &buf)
				res[i] = result{took.wall, append([]byte(nil), buf.Bytes()...), err}
			}
		}(c)
	}
	wg.Wait()
	el := w.elapsed()
	ok := 0
	for i, r := range res {
		err := r.err
		if err == nil {
			_, err = b.checkScan(r.body, b.in.batchPayloads[i], b.want.batch[i], b.want.batchCount[i])
		}
		if b.record("/scan/batch", err) {
			b.sample("batch_ms", float64(r.lat)/1e6)
			ok++
		}
	}
	if ok == len(res) {
		b.sample("batch_cpu_ms", float64(el.cpu)/1e6/float64(len(res)))
	}
	if b.tr != nil {
		after, err := b.batchStats()
		if err == nil {
			err = berr
		}
		if b.record("/stats", err) {
			b.batches[0] += after[0] - before[0]
			b.batches[1] += after[1] - before[1]
		}
	}
}

// batchStats reads the server's (batches, batch payloads) counters.
func (b *bench) batchStats() ([2]uint64, error) {
	if b.tr == nil {
		return [2]uint64{}, nil
	}
	if _, err := b.cl.do("GET", b.st.url+"/stats", nil, &b.buf); err != nil {
		return [2]uint64{}, err
	}
	var r server.StatsResponse
	if err := json.Unmarshal(b.buf.Bytes(), &r); err != nil {
		return [2]uint64{}, wrongf("decode /stats: %v", err)
	}
	return [2]uint64{r.Batches, r.BatchPayloads}, nil
}
