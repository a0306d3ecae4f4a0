package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeResult(t *testing.T, dir, name string, r result) string {
	t.Helper()
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareRefusesDifferentShapes(t *testing.T) {
	dir := t.TempDir()
	shape := currentShape()
	base := result{Workload: "arch-sweep", Shape: shape, Metrics: []metric{{Name: "wall_s", Unit: "s", Value: 10}}}
	head := base
	head.Metrics = []metric{{Name: "wall_s", Unit: "s", Value: 9}}
	a := writeResult(t, dir, "a.json", base)
	b := writeResult(t, dir, "b.json", head)
	if err := compareResults(io.Discard, []string{a}, []string{b}); err != nil {
		t.Fatalf("same shape refused: %v", err)
	}
	for name, mutate := range map[string]func(*hostShape){
		"grade workers": func(s *hostShape) { s.GradeWorkers++ },
		"cpus":          func(s *hostShape) { s.NumCPU++ },
		"poll interval": func(s *hostShape) { s.PollIntervalUS *= 2 },
		"go version":    func(s *hostShape) { s.GoVersion += "-other" },
	} {
		other := head
		mutate(&other.Shape)
		c := writeResult(t, dir, "c.json", other)
		err := compareResults(io.Discard, []string{a}, []string{c})
		if err == nil || !strings.Contains(err.Error(), "host shapes differ") {
			t.Errorf("%s: compare returned %v, want a shape refusal", name, err)
		}
	}
}
