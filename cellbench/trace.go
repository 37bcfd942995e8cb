package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one round share Trace;
// Parent is the enclosing span's ID, 0 at the top.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Trace  int           `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// N is the layer's work count: bytes scanned, matches, payloads.
	N int `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced and traced passes run the same
// code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id, recording n units of work.
func (t *tracer) end(id, n int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].N = n
}

// named returns the closed spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

func (t *tracer) allSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is a span's duration minus the part of its interval that
// its child spans cover; overlapping children are counted once.
func selfTime(parent span, all []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var kids []iv
	for _, s := range all {
		if s.Parent != parent.ID || s.ID == parent.ID {
			continue
		}
		a, b := max(s.Start, parent.Start), min(s.End, parent.End)
		if b > a {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].a < kids[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, k := range kids {
		switch {
		case i == 0:
			cur = k
		case k.a <= cur.b:
			cur.b = max(cur.b, k.b)
		default:
			covered += cur.b - cur.a
			cur = k
		}
	}
	if len(kids) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
