package cellmatch_test

import (
	"testing"

	"cellmatch/internal/conformance"
	"cellmatch/internal/core"
	"cellmatch/internal/workload"
)

// TestScenarioConformance is the cross-tier differential harness: for
// every scenario in the workload suite, every (rung x filter x
// scan-mode) configuration must reproduce the reference match set
// (End, Pattern) match-for-match — stride-2, kernel, compressed,
// sharded, and stt
// verifiers, skip-scan filter forced on and off, sequential /
// parallel / shared pool / reader / stream scan surfaces. The harness
// itself fails on any divergence; the assertions here pin the suite's
// shape on top: each scenario lands on the expected rung, the regex
// scenario routes around the literal-only tiers, and matches actually
// occur.
func TestScenarioConformance(t *testing.T) {
	corpusBytes := 1 << 18
	if testing.Short() {
		corpusBytes = 1 << 14
	}
	scs, err := workload.Scenarios(1207, corpusBytes)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scs {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := conformance.Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RefMatches == 0 {
				t.Fatal("scenario matches nothing; the comparison is vacuous")
			}
			if rep.Configs < 50 { // 5 rungs x 2 filter modes x 5 scan modes
				t.Fatalf("only %d configurations compared", rep.Configs)
			}
			engines := map[string]string{}
			for _, rr := range rep.Rungs {
				engines[rr.Rung] = rr.Engine
			}
			if engines["kernel"] != "kernel" {
				t.Fatalf("stride-1 rung selected %q, want kernel", engines["kernel"])
			}
			// Forced stride-2 lands on the pair-table rung unless the
			// dictionary's pair tables blow the budget, in which case the
			// documented fallback is the 1-byte kernel — never lower.
			if engines["stride2"] != "stride2" && engines["stride2"] != "kernel" {
				t.Fatalf("forced stride-2 rung selected %q", engines["stride2"])
			}
			if engines["stt"] != "stt" {
				t.Fatalf("forced stt rung selected %q", engines["stt"])
			}
			// CompressedOn compiles the compressed rows under the default
			// 8 MiB budget, which every suite dictionary fits.
			if engines["compressed"] != "compressed" {
				t.Fatalf("forced compressed rung selected %q", engines["compressed"])
			}
			if s.Regex {
				// The sharded tier is literal-only: squeezing a regex
				// dictionary's budget must fall through to stt.
				if engines["sharded"] != "stt" {
					t.Fatalf("regex dictionary landed on %q under a shard budget, want stt",
						engines["sharded"])
				}
			} else if engines["sharded"] != "sharded" && engines["sharded"] != "stt" {
				t.Fatalf("forced shard budget selected %q", engines["sharded"])
			}
			for _, rr := range rep.Rungs {
				if rr.SkipRate < 0 || rr.SkipRate > 1 {
					t.Fatalf("rung %s: skip rate %f out of range", rr.Rung, rr.SkipRate)
				}
				if s.Regex && rr.FilterLive {
					t.Fatalf("rung %s: filter live on a regex dictionary", rr.Rung)
				}
			}
		})
	}
}

// TestScenarioConformanceLargeDictionary puts the skip-scan filter in
// front of a dense verifier that spills L2: 1,332 case-folded 24-byte
// patterns (a 30,000-state automaton), admitted by FilterAuto on their
// window length alone. Every rung x filter x scan-mode configuration
// must reproduce the unfiltered reference, and the filter must be live
// on every literal rung.
func TestScenarioConformanceLargeDictionary(t *testing.T) {
	pats, err := workload.Dictionary(workload.DictConfig{TargetStates: 30000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	corpus, planted, err := workload.Traffic(workload.TrafficConfig{
		Bytes: 128 << 10, MatchEvery: 2 << 10, Dictionary: pats, Seed: 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := workload.Scenario{
		Name:     "large-dict",
		Patterns: pats, CaseFold: true, Corpus: corpus, Planted: planted,
	}
	m, err := core.Compile(s.Patterns, core.Options{CaseFold: true}) // FilterAuto
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); !st.FilterEnabled || st.TableFitsL2 || st.Patterns <= 1000 {
		t.Fatalf("fixture is not a filtered, L2-spilling, >1,000-pattern dictionary: %+v", st)
	}
	rep, err := conformance.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RefMatches < planted {
		t.Fatalf("%d reference matches, %d planted", rep.RefMatches, planted)
	}
	if rep.Configs < 50 { // 5 rungs x 2 filter modes x 5 scan modes
		t.Fatalf("only %d configurations compared", rep.Configs)
	}
	for _, rr := range rep.Rungs {
		if !rr.FilterLive || rr.SkipRate < 0.5 {
			t.Fatalf("rung %s (%s): filter live=%v skip rate %.2f", rr.Rung, rr.Engine, rr.FilterLive, rr.SkipRate)
		}
	}
}

// TestScenarioFilterRegimes pins where the skip-scan front-end
// engages across the suite: live with a healthy skip rate on the
// long-pattern log scenario, and declined by FilterAuto on the
// short-signature malware mix (min length below the auto floor).
func TestScenarioFilterRegimes(t *testing.T) {
	scs, err := workload.Scenarios(1207, 1<<15)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]workload.Scenario{}
	for _, s := range scs {
		byName[s.Name] = s
	}
	logScan, ok := byName["log-scan"]
	if !ok {
		t.Fatal("log-scan scenario missing from the suite")
	}
	rep, err := conformance.Run(logScan)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range rep.Rungs {
		if rr.Rung == "kernel" {
			if !rr.FilterLive {
				t.Fatal("filter not live on the log-scanning workload")
			}
			if rr.SkipRate < 0.5 {
				t.Fatalf("log-scan skip rate %.2f, want > 0.5 on low-entropy lines", rr.SkipRate)
			}
		}
	}
	malware, ok := byName["malware-short"]
	if !ok {
		t.Fatal("malware-short scenario missing from the suite")
	}
	m, err := core.Compile(malware.Patterns, core.Options{}) // FilterAuto
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.FilterEnabled {
		t.Fatalf("FilterAuto accepted %d-byte minimum signatures", st.MinPatternLen)
	}
}
