package core

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"cellmatch/internal/baseline"
	"cellmatch/internal/cell"
	"cellmatch/internal/stt"
	"cellmatch/internal/workload"
)

func TestCompileAndFindAll(t *testing.T) {
	m, err := CompileStrings([]string{"virus", "worm"}, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := m.FindAll([]byte("a VIRUS, a worm, a Virus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("matches = %v", ms)
	}
	if ms[0].Pattern != 0 || ms[0].End != 7 {
		t.Fatalf("first match %+v", ms[0])
	}
}

func TestCountAndContains(t *testing.T) {
	m, err := CompileStrings([]string{"ab"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n, err := m.Count([]byte("abxab"))
	if err != nil || n != 2 {
		t.Fatalf("count = %d (%v)", n, err)
	}
	ok, err := m.Contains([]byte("xxabyy"))
	if err != nil || !ok {
		t.Fatal("contains should be true")
	}
	ok, err = m.Contains([]byte("xxyy"))
	if err != nil || ok {
		t.Fatal("contains should be false")
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := CompileStrings(nil, Options{}); err == nil {
		t.Fatal("empty dictionary accepted")
	}
	if _, err := CompileStrings([]string{""}, Options{}); err == nil {
		t.Fatal("empty pattern accepted")
	}
}

func TestStatsShape(t *testing.T) {
	m, err := CompileStrings([]string{"alpha", "beta", "gamma"}, Options{Groups: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Stats()
	if s.Patterns != 3 || s.Groups != 2 || s.SeriesDepth != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.States < 10 || s.STTBytes != s.States*128 {
		t.Fatalf("states/STT: %+v", s)
	}
	if s.MaxPatternLen != 5 {
		t.Fatalf("max pattern len = %d", s.MaxPatternLen)
	}
	if m.NumPatterns() != 3 || string(m.Pattern(1)) != "beta" {
		t.Fatal("pattern accessors")
	}
}

// TestStatsSTTBytesMatchesEncode: Stats computes STTBytes from state
// counts instead of encoding the tables; the figure must equal the
// encoded size on the six scenarios, a large case-folded dictionary
// and a regex dictionary.
func TestStatsSTTBytesMatchesEncode(t *testing.T) {
	scs, err := workload.Scenarios(1207, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, m *Matcher) {
		t.Helper()
		want := 0
		for _, d := range m.sys.Slots {
			tab, err := stt.Encode(d, m.sys.Width, 0)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want += tab.SizeBytes()
		}
		if got := m.Stats().STTBytes; got != want || got == 0 {
			t.Fatalf("%s: STTBytes = %d, encoded tables = %d", name, got, want)
		}
	}
	for _, s := range scs {
		check(s.Name, compileScenario(t, s, EngineOptions{}))
	}
	check("bigdict", bigDictMatcher(t))
	m, err := CompileRegexSearch([]string{`GET /[a-z]{2,6}\.php`, `err(or)? [0-9]{3}`}, Options{CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	check("regex", m)
}

// TestCompileAllByteValues: a binary dictionary that uses all 256
// byte values compiles onto the identity alphabet and matches what a
// naive scan counts, pattern by pattern, with the filter on and off.
func TestCompileAllByteValues(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	seen := map[string]bool{}
	var pats [][]byte
	for len(pats) < 300 {
		p := make([]byte, 4+rng.Intn(12))
		rng.Read(p)
		if !seen[string(p)] {
			seen[string(p)] = true
			pats = append(pats, p)
		}
	}
	var used [256]bool
	for _, p := range pats {
		for _, b := range p {
			used[b] = true
		}
	}
	for b, ok := range used {
		if !ok {
			t.Fatalf("fixture misses byte %#x", b)
		}
	}
	data := make([]byte, 64<<10)
	rng.Read(data)
	for pos := 100; pos+16 < len(data); pos += 331 {
		copy(data[pos:], pats[rng.Intn(len(pats))])
	}
	want := make([]int, len(pats))
	total := 0
	for i, p := range pats {
		want[i] = baseline.NaiveCount(data, p)
		total += want[i]
	}
	if total < 150 {
		t.Fatalf("fixture has only %d matches", total)
	}
	for _, mode := range []FilterMode{FilterOn, FilterOff} {
		m, err := Compile(pats, Options{Engine: EngineOptions{Filter: mode}})
		if err != nil {
			t.Fatalf("filter mode %d: %v", mode, err)
		}
		st := m.Stats()
		if st.AlphabetUsed != 256 || st.FilterEnabled != (mode == FilterOn) {
			t.Fatalf("filter mode %d: %+v", mode, st)
		}
		ms, err := m.FindAll(data)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, len(pats))
		for _, x := range ms {
			if !bytes.Equal(data[x.End-len(pats[x.Pattern]):x.End], pats[x.Pattern]) {
				t.Fatalf("filter mode %d: bogus match %+v", mode, x)
			}
			got[x.Pattern]++
		}
		for i := range pats {
			if got[i] != want[i] {
				t.Fatalf("filter mode %d: pattern %d matched %d times, naive count %d",
					mode, i, got[i], want[i])
			}
		}
	}
}

func TestEstimateCellHeadline(t *testing.T) {
	m, err := CompileStrings([]string{"attack", "exploit"}, Options{Groups: 2, CaseFold: true})
	if err != nil {
		t.Fatal(err)
	}
	est, err := m.EstimateCell(cell.DefaultBlade(), 8*1024*1024)
	if err != nil {
		t.Fatal(err)
	}
	if est.SimulatedGbps < 10 {
		t.Fatalf("2-group estimate = %.2f Gbps, want >= 10 (paper headline)", est.SimulatedGbps)
	}
}

func TestTable1ThroughFacade(t *testing.T) {
	m, err := CompileStrings([]string{"signature"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 || rows[3].Version != 4 {
		t.Fatalf("table shape: %d rows", len(rows))
	}
}

func TestRegexSet(t *testing.T) {
	rs, err := CompileRegexes([]string{"ab*c", "x[0-9]+"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.MatchWhole([]byte("abbbc")); len(got) != 1 || got[0] != 0 {
		t.Fatalf("match = %v", got)
	}
	if got := rs.MatchWhole([]byte("x123")); len(got) != 1 || got[0] != 1 {
		t.Fatalf("match = %v", got)
	}
	if got := rs.MatchWhole([]byte("nope")); got != nil {
		t.Fatalf("match = %v", got)
	}
	if _, err := CompileRegexes([]string{"("}, false); err == nil {
		t.Fatal("bad regex accepted")
	}
	if _, err := CompileRegexes(nil, false); err == nil {
		t.Fatal("no expressions accepted")
	}
}

func TestRegexSetCaseFold(t *testing.T) {
	rs, err := CompileRegexes([]string{"virus"}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.MatchWhole([]byte("VIRUS")); len(got) != 1 {
		t.Fatal("case folding lost")
	}
}

func TestStreamMatchesBatch(t *testing.T) {
	dict := []string{"needle", "edl"}
	m, err := CompileStrings(dict, Options{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("haystack needle haystack needle end")
	batch, err := m.FindAll(data)
	if err != nil {
		t.Fatal(err)
	}
	// Feed in awkward chunk sizes.
	for _, chunk := range []int{1, 3, 7, 1000} {
		s := m.NewStream()
		for i := 0; i < len(data); i += chunk {
			end := i + chunk
			if end > len(data) {
				end = len(data)
			}
			if _, err := s.Write(data[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		got := s.Matches()
		sortMatches(got)
		want := append([]Match(nil), batch...)
		sortMatches(want)
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d vs %d matches", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: match %d: %+v vs %+v", chunk, i, got[i], want[i])
			}
		}
		if s.BytesSeen() != len(data) {
			t.Fatalf("bytes seen = %d", s.BytesSeen())
		}
	}
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

func TestStreamAcrossChunkBoundaryMatch(t *testing.T) {
	m, err := CompileStrings([]string{"boundary"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewStream()
	s.Write([]byte("xxxboun"))
	s.Write([]byte("daryxxx"))
	ms := s.Matches()
	if len(ms) != 1 || ms[0].End != 11 {
		t.Fatalf("straddling match = %v", ms)
	}
}
