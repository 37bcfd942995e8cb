package main

import (
	"fmt"
	"sort"

	"cellmatch/internal/core"
	"cellmatch/internal/server"
)

// oracle is the benchmark's own reference matcher. At every end offset
// it looks each window of a dictionary length up in a hash set of the
// patterns, folding ASCII letters on both sides when the dictionary is
// case-folded. It shares no code with the program's matching path, so
// it can judge every rung, scan mode and endpoint alike.
type oracle struct {
	fold   bool
	lens   []int         // distinct pattern lengths, ascending
	lead   [1 << 16]bool // first two (folded) bytes of a pattern of length >= 2
	single [256]bool     // the (folded) byte of a 1-byte pattern
	ids    map[string][]int
	buf    []byte
}

func foldASCII(b byte) byte {
	if 'a' <= b && b <= 'z' {
		return b - ('a' - 'A')
	}
	return b
}

func newOracle(patterns [][]byte, fold bool) *oracle {
	o := &oracle{fold: fold, ids: make(map[string][]int, len(patterns))}
	seen := map[int]bool{}
	maxLen := 0
	for id, p := range patterns {
		k := o.key(p)
		o.ids[string(k)] = append(o.ids[string(k)], id)
		if len(p) == 1 {
			o.single[k[0]] = true
		} else {
			o.lead[int(k[0])<<8|int(k[1])] = true
		}
		if !seen[len(p)] {
			seen[len(p)] = true
			o.lens = append(o.lens, len(p))
		}
		maxLen = max(maxLen, len(p))
	}
	sort.Ints(o.lens)
	o.buf = make([]byte, maxLen)
	return o
}

// key returns w as the hash-set key: folded into o.buf, or w itself.
func (o *oracle) key(w []byte) []byte {
	if !o.fold {
		return w
	}
	if len(o.buf) < len(w) {
		o.buf = make([]byte, len(w))
	}
	k := o.buf[:len(w)]
	for i, b := range w {
		k[i] = foldASCII(b)
	}
	return k
}

// find returns every (End, Pattern) occurrence in data, sorted by End
// and then Pattern — the order the matcher reports.
func (o *oracle) find(data []byte) []core.Match {
	out := make([]core.Match, 0)
	for end := 1; end <= len(data); end++ {
		n := len(out)
		for _, l := range o.lens {
			if l > end {
				break
			}
			w := data[end-l : end]
			if l == 1 {
				if !o.single[o.fold1(w[0])] {
					continue
				}
			} else if !o.lead[int(o.fold1(w[0]))<<8|int(o.fold1(w[1]))] {
				continue
			}
			for _, id := range o.ids[string(o.key(w))] {
				out = append(out, core.Match{Pattern: id, End: end})
			}
		}
		if len(out)-n > 1 {
			tail := out[n:]
			sort.Slice(tail, func(i, j int) bool { return tail[i].Pattern < tail[j].Pattern })
		}
	}
	return out
}

func (o *oracle) fold1(b byte) byte {
	if o.fold {
		return foldASCII(b)
	}
	return b
}

// sameMatches reports the first difference between two match lists.
func sameMatches(got, want []core.Match) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("match %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	return nil
}

// checkResponse judges a served scan response. want is the oracle's
// list for the scanned bytes and inproc the in-process Count of the
// same bytes. payload is the request body, or nil for /scan/stream,
// whose Text falls back to the pattern itself.
func checkResponse(r *server.ScanResponse, payload []byte, want []core.Match, inproc int, dict [][]byte) error {
	if r.Count != inproc {
		return fmt.Errorf("served count %d, in-process count %d", r.Count, inproc)
	}
	if len(r.Matches) != r.Count {
		return fmt.Errorf("%d matches listed, count says %d", len(r.Matches), r.Count)
	}
	got := make([]core.Match, len(r.Matches))
	for i, m := range r.Matches {
		if m.Pattern < 0 || m.Pattern >= len(dict) {
			return fmt.Errorf("match %d names pattern %d of %d", i, m.Pattern, len(dict))
		}
		p := dict[m.Pattern]
		if m.Start != m.End-len(p) || m.Start < 0 {
			return fmt.Errorf("match %d spans [%d,%d), pattern is %d bytes", i, m.Start, m.End, len(p))
		}
		text := p
		if payload != nil {
			if m.End > len(payload) {
				return fmt.Errorf("match %d ends at %d past the %d-byte payload", i, m.End, len(payload))
			}
			text = payload[m.Start:m.End]
		}
		if m.Text != string(text) {
			return fmt.Errorf("match %d text %q, corpus holds %q", i, m.Text, text)
		}
		got[i] = core.Match{Pattern: m.Pattern, End: m.End}
	}
	return sameMatches(got, want)
}

// withoutBatch drops the matches of batch patterns (ids >= nBase).
func withoutBatch(ms []core.Match, nBase int) []core.Match {
	out := make([]core.Match, 0, len(ms))
	for _, m := range ms {
		if m.Pattern < nBase {
			out = append(out, m)
		}
	}
	return out
}
