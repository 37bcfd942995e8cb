package main

import (
	"encoding/binary"
	"math/rand"
	"time"
)

// The two ceiling loops place the verifier on a roofline measured on
// the same host in the same run, the way the paper places each SPE
// kernel under its bandwidth and compute ceilings. Ratios against them
// travel between machines even when absolute MB/s does not.

// stepTable is an L1-resident automaton: 16 rows of 256 next-row
// offsets (16 KiB). Stepping it is one dependent load per input byte,
// the ideal 1-byte DFA step with no alphabet map and no match test.
type stepTable [16 * 256]uint32

func newStepTable() *stepTable {
	var t stepTable
	rng := rand.New(rand.NewSource(1))
	for i := range t {
		t[i] = uint32(rng.Intn(16)) * 256
	}
	return &t
}

var ceilingSink uint64

// stepMBps runs the dependent-load chain over data once.
func (t *stepTable) stepMBps(data []byte) float64 {
	start := time.Now()
	s := uint32(0)
	for _, b := range data {
		s = t[s+uint32(b)]
	}
	el := time.Since(start)
	ceilingSink += uint64(s)
	return float64(len(data)) / 1e6 / el.Seconds()
}

// readMBps streams buf once, eight bytes per load over four
// independent sums: the host's read bandwidth for a buffer larger than
// its caches.
func readMBps(buf []byte) float64 {
	start := time.Now()
	var a, b, c, d uint64
	for i := 0; i+32 <= len(buf); i += 32 {
		a += binary.LittleEndian.Uint64(buf[i:])
		b += binary.LittleEndian.Uint64(buf[i+8:])
		c += binary.LittleEndian.Uint64(buf[i+16:])
		d += binary.LittleEndian.Uint64(buf[i+24:])
	}
	el := time.Since(start)
	ceilingSink += a ^ b ^ c ^ d
	return float64(len(buf)) / 1e6 / el.Seconds()
}
