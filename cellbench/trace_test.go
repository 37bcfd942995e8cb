package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) (time.Duration, time.Duration) {
		return time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond
	}
	mk := func(id, parent, a, b int) span {
		s, e := ms(a, b)
		return span{ID: id, Parent: parent, Start: s, End: e}
	}
	parent := mk(1, 0, 0, 100)
	all := []span{
		parent,
		mk(2, 1, 10, 30),
		mk(3, 1, 20, 40),  // overlaps span 2: [10,40) counts once
		mk(4, 1, 50, 60),  // disjoint
		mk(5, 1, 90, 120), // runs past the parent: clipped to [90,100)
		mk(6, 4, 52, 58),  // grandchild: inside its own parent, not counted again
		mk(7, 9, 0, 100),  // another parent's child
		mk(8, 1, 60, 60),  // zero length
	}
	if got, want := selfTime(parent, all), 50*time.Millisecond; got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got, want := selfTime(all[3], all), 4*time.Millisecond; got != want {
		t.Errorf("self time of span 4 = %v, want %v", got, want)
	}
	if got, want := selfTime(all[1], all), 20*time.Millisecond; got != want {
		t.Errorf("leaf self time = %v, want its duration %v", got, want)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, 1)
	tr.end(id, 5)
	if id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
	tr = newTracer()
	root := tr.begin("round", 0, 1)
	kid := tr.begin("leaf", root, 1)
	tr.end(kid, 7)
	tr.end(root, 0)
	got := tr.named("leaf")
	if len(got) != 1 || got[0].Parent != root || got[0].N != 7 || got[0].End < got[0].Start {
		t.Errorf("recorded leaf span %+v", got)
	}
}
