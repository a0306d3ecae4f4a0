package main

import (
	"math"
	"testing"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 5, want: 50, ok: false},
		{n: 19, want: 50, ok: false}, // median rank 10 leaves 9 beyond
		{n: 20, want: 50, ok: true},
		{n: 99, want: 50, ok: true}, // p90 rank 90 leaves 9 beyond
		{n: 100, want: 90, ok: true},
		{n: 999, want: 90, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 50000, want: 99, ok: true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %v; want p%g, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && c.n-rank(c.n, p) < 10 {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, c.n-rank(c.n, p))
		}
	}
}

func TestAddLatencyReportsPercentileAndSampleCount(t *testing.T) {
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = float64(100 - i) // 100..1, unsorted
	}
	m := &metrics{}
	addLatency(m, "p50_ms", func(p float64) string { return "tail_ms" }, lat)
	if len(m.list) != 2 {
		t.Fatalf("got %d metrics, want 2", len(m.list))
	}
	med, tail := m.list[0], m.list[1]
	if med.Value != 50.5 || med.Samples != 100 {
		t.Errorf("median = %v over %d, want 50.5 over 100", med.Value, med.Samples)
	}
	if tail.Value != 90 || tail.Samples != 100 || tail.Note != "p90 of 100" {
		t.Errorf("tail = %v over %d (%q), want p90 = 90 over 100", tail.Value, tail.Samples, tail.Note)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{20: 1, 50: 3, 90: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) || !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty samples should give NaN")
	}
}
