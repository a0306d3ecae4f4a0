package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	// bench [0,100) has coverage children [10,40) and [30,60), which
	// overlap, and a serve child [70,80). coverage [10,40) has a faults
	// child [20,25) and one that pokes past its end, [35,50).
	spans := []Span{
		{ID: 1, Layer: "bench", Start: 0, End: 100},
		{ID: 2, Parent: 1, Layer: "coverage", Start: 10, End: 40},
		{ID: 3, Parent: 1, Layer: "coverage", Start: 30, End: 60},
		{ID: 4, Parent: 1, Layer: "serve", Start: 70, End: 80},
		{ID: 5, Parent: 2, Layer: "faults", Start: 20, End: 25},
		{ID: 6, Parent: 2, Layer: "faults", Start: 35, End: 50},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"bench":    100 - 50 - 10, // children cover [10,60) and [70,80)
		"coverage": (30 - 5 - 5) + 30,
		"faults":   5 + 15,
		"serve":    10,
	}
	for layer, d := range want {
		if self[layer] != d {
			t.Errorf("self[%s] = %d, want %d", layer, self[layer], d)
		}
	}
}

func TestTracerAdoptReparentsChildSpans(t *testing.T) {
	tr := &Tracer{}
	root := tr.Start(0, "bench", "bench.run", "")
	child := []Span{
		{ID: 1, Layer: "bench", Name: "bench.sweep"},
		{ID: 2, Parent: 1, Layer: "coverage", Name: "coverage.GradeContext", Key: "marchc"},
	}
	tr.Adopt(root, child)
	tr.End(root)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[1].ID != 2 || spans[1].Parent != root {
		t.Errorf("adopted root = %+v, want ID 2 under %d", spans[1], root)
	}
	if spans[2].ID != 3 || spans[2].Parent != 2 || spans[2].Key != "marchc" {
		t.Errorf("adopted child = %+v, want ID 3 under 2", spans[2])
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Start(0, "bench", "x", "")
	tr.End(id)
	tr.Adopt(id, []Span{{ID: 1}})
	if id != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer recorded spans")
	}
}
