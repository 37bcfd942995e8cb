package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"cellmatch/internal/core"
	"cellmatch/internal/workload"
)

// input is everything one workload feeds the program, all derived from
// the seed. The dictionary is served from a file in base order; the
// reload batch is appended after it and toggled in and out by delta
// reloads, so base pattern ids never move and batch ids follow them.
type input struct {
	name    string
	opts    core.Options // only CaseFold: the options /reload?format=dict rebuilds
	base    [][]byte
	batch   [][]byte
	full    [][]byte // base then batch: the batch-in dictionary
	corpus  []byte
	planted int // lower bound on matches in corpus

	scanPayloads  [][]byte // /scan bodies, cut from corpus
	batchPayloads [][]byte // /scan/batch bodies, cut from corpus

	// probe carries planted copies of every batch pattern; probeHits
	// are their (End, Pattern) positions in the batch-in dictionary.
	probe     []byte
	probeHits []core.Match
}

const (
	scanPayloadBytes  = 256 << 10
	batchPayloadBytes = 4 << 10
	batchPayloadCount = 64
)

var workloadNames = []string{"logscan", "shortsig", "bigdict"}

// shortsigDictSeed fixes shortsig's signatures. One of its 48, "!1 ",
// cannot be served from a pattern file (see shortsigInput).
const shortsigDictSeed = 1

func makeInput(name string, seed int64) (*input, error) {
	var in *input
	var err error
	switch name {
	case "logscan":
		in, err = logscanInput(seed)
	case "shortsig":
		in, err = shortsigInput(seed)
	case "bigdict":
		in, err = bigdictInput(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	in.name = name
	in.full = append(append([][]byte{}, in.base...), in.batch...)
	in.scanPayloads = cut(in.corpus, scanPayloadBytes, len(in.corpus)/scanPayloadBytes)
	stride := len(in.corpus) / batchPayloadCount
	for i := 0; i < batchPayloadCount; i++ {
		off := i * stride
		in.batchPayloads = append(in.batchPayloads, in.corpus[off:off+batchPayloadBytes])
	}
	return in, nil
}

func cut(data []byte, size, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = data[i*size : (i+1)*size]
	}
	return out
}

// logscanInput: six long alert tokens over structured log lines, the
// regime where the skip-scan filter passes over most of the input.
func logscanInput(seed int64) (*input, error) {
	sc, err := workload.LogScenario(seed, 8<<20)
	if err != nil {
		return nil, err
	}
	batch := [][]byte{
		[]byte("kernel BUG at mm/slab"),
		[]byte("watchdog hard LOCKUP"),
		[]byte("raft leader lost quorum"),
		[]byte("fsck found corruption"),
	}
	in := &input{base: sc.Patterns, batch: batch, corpus: sc.Corpus, planted: sc.Planted}
	in.plantProbe("2026-01-02T03:00:00Z ERROR svc=ingest msg=\"", "\"\n", false, 4)
	return in, nil
}

// shortsigInput: 48 printable 2-6 byte signatures, below the filter's
// length floor, over dense printable noise — the verifier and match
// conversion carry the whole scan.
//
// The signatures are workload.MalwareScenario's for a fixed seed, as
// bigdict's dictionary is, so that every seed measures the same
// dictionary: the scenario's 2-byte signatures alone set how often
// random noise matches, and their number changes from seed to seed.
// The corpus follows the scenario's recipe (printable noise, a
// signature every 64-128 bytes) from the run's seed.
func shortsigInput(seed int64) (*input, error) {
	sc, err := workload.MalwareScenario(shortsigDictSeed, 64<<10)
	if err != nil {
		return nil, err
	}
	// The one-pattern-per-line file format trims edge whitespace and
	// reads a leading '#' as a comment, so signatures of that shape
	// cannot be served from a pattern file; they are left out, and
	// only served signatures are planted.
	var base [][]byte
	for _, p := range sc.Patterns {
		if fileSafe(p) {
			base = append(base, p)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	corpus := make([]byte, 4<<20)
	for i := range corpus {
		corpus[i] = byte(0x20 + rng.Intn(0x5f))
	}
	planted := 0
	for pos := 64; pos < len(corpus)-8; pos += 64 + rng.Intn(64) {
		copy(corpus[pos:], base[rng.Intn(len(base))])
		planted++
	}
	have := map[string]bool{}
	for _, p := range sc.Patterns {
		have[string(p)] = true
	}
	var batch [][]byte
	for len(batch) < 8 {
		p := make([]byte, 4+rng.Intn(3))
		for j := range p {
			p[j] = byte(0x21 + rng.Intn(0x5e))
		}
		if fileSafe(p) && !have[string(p)] {
			have[string(p)] = true
			batch = append(batch, p)
		}
	}
	in := &input{base: base, batch: batch, corpus: corpus, planted: planted}
	// '\n' occurs in no signature, so the filler adds no matches.
	in.plantProbe("\n\n\n", "\n", false, 4)
	return in, nil
}

// bigdictInput: the 31,203-state case-folded dictionary over benign
// traffic with sparse planted matches; its dense table spills L2 and
// the dictionary is too large for the filter.
func bigdictInput(seed int64) (*input, error) {
	base, err := workload.Dictionary(workload.DictConfig{TargetStates: 30000, Seed: 3})
	if err != nil {
		return nil, err
	}
	corpus, planted, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 4 << 20, MatchEvery: 16 << 10, Dictionary: base, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	// Uppercase letters only, like the base patterns: the reduced
	// alphabet stays the same, so a reload patches instead of rebuilding.
	rng := rand.New(rand.NewSource(seed ^ 0xb16d))
	batch := make([][]byte, 16)
	for i := range batch {
		p := make([]byte, 24)
		for j := range p {
			p[j] = byte('A' + rng.Intn(26))
		}
		batch[i] = p
	}
	in := &input{
		opts: core.Options{CaseFold: true}, base: base, batch: batch,
		corpus: corpus, planted: planted,
	}
	// Planted lowercase so the probe exercises case folding.
	in.plantProbe("; ... ", " ...", true, 2)
	return in, nil
}

// plantProbe builds the probe payload: reps rounds of every batch
// pattern, each between pre and post, lowercased when lower is set.
func (in *input) plantProbe(pre, post string, lower bool, reps int) {
	for r := 0; r < reps; r++ {
		for i, p := range in.batch {
			if lower {
				p = bytes.ToLower(p)
			}
			in.probe = append(append(in.probe, pre...), p...)
			in.probeHits = append(in.probeHits, core.Match{Pattern: len(in.base) + i, End: len(in.probe)})
			in.probe = append(in.probe, post...)
		}
	}
}

// fileSafe reports whether a pattern survives the registry's
// pattern-per-line format unchanged.
func fileSafe(p []byte) bool {
	return len(p) > 0 && p[0] != '#' && bytes.Equal(bytes.TrimSpace(p), p)
}

// dict returns the dictionary in file order, with or without the batch.
func (in *input) dict(withBatch bool) [][]byte {
	if withBatch {
		return in.full
	}
	return in.base
}

// dictFile renders a dictionary in the registry's pattern-per-line
// format.
func dictFile(pats [][]byte) []byte {
	var b bytes.Buffer
	b.WriteString("# cellbench dictionary\n")
	for _, p := range pats {
		b.Write(p)
		b.WriteByte('\n')
	}
	return b.Bytes()
}
