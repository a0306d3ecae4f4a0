package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/coverage"
	"repro/internal/march"
	"repro/internal/sweep"
)

func testChecker(t *testing.T) checker {
	t.Helper()
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return checker{d}
}

// smallReport grades algs on arch at the small-job geometry and renders
// them as a service job would.
func smallReport(t *testing.T, arch string, algs ...string) string {
	t.Helper()
	w, err := sweep.Spec{Algs: strings.Join(algs, ","), Arch: arch, Size: smallGeom.size, Width: smallGeom.width}.Workload()
	if err != nil {
		t.Fatal(err)
	}
	reps, err := w.Grade(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return w.RenderText(reps)
}

func TestVerifyAcceptsRecordedReports(t *testing.T) {
	chk := testChecker(t)
	algs := []string{"marchb", "mats+", "marchc++"}
	text := smallReport(t, "fsm", algs...)
	for i, err := range chk.verify(text, "fsm", algs, smallGeom) {
		if err != nil {
			t.Errorf("%s: %v", algs[i], err)
		}
	}
}

func TestVerifyCatchesMutatedReports(t *testing.T) {
	chk := testChecker(t)
	algs := []string{"marchc", "marchy"}
	text := smallReport(t, "microcode", algs...)
	mutations := map[string]string{
		"coverage figure": strings.Replace(text, "100.0%", "100.1%", 1),
		"column order":    smallReport(t, "microcode", "marchy", "marchc"),
		"architecture":    smallReport(t, "hardwired", algs...),
		"truncated":       text[:len(text)-5] + "\n",
		"trailing text":   text + "extra\n",
	}
	for name, bad := range mutations {
		failed := 0
		for _, err := range chk.verify(bad, "microcode", algs, smallGeom) {
			if err != nil {
				failed++
			}
		}
		if failed == 0 {
			t.Errorf("%s mutation passed verification", name)
		}
	}
}

// TestClientCountsMutatedReportAsFailedOp serves one correct and one
// mutated report through the job API and checks the closed-loop client
// fails exactly the mutated operation.
func TestClientCountsMutatedReportAsFailedOp(t *testing.T) {
	good := smallReport(t, "reference", "marcha")
	reports := map[string]string{
		"job-1": good,
		"job-2": strings.Replace(good, "March A", "March Z", 1),
	}
	next := 0
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		next++
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"id": fmt.Sprintf("job-%d", next)})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/report", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, reports[r.PathValue("id")])
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := &client{base: ts.URL, http: ts.Client(), poll: time.Microsecond, chk: testChecker(t)}
	job := op{Kind: opSmall, Arch: "reference", Algs: []string{"marcha"}, Geom: smallGeom}
	r := &result{}
	r.tally(c.run(context.Background(), []op{job, job}))
	if r.Attempted != 2 || r.Failed != 1 || len(r.Failures) != 1 {
		t.Fatalf("attempted %d failed %d (%v), want 2 and 1", r.Attempted, r.Failed, r.Failures)
	}
}

func TestSplitColumnsRoundTripsAMatrix(t *testing.T) {
	var reps []*coverage.Report
	var singles []string
	head, err := header("microcode", smallGeom)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range library {
		alg, _ := march.ByName(name)
		rep, err := coverage.Grade(alg, coverage.Microcode, coverage.Options{Size: smallGeom.size, Width: smallGeom.width})
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, rep)
		s, err := singleReport(rep, "microcode", smallGeom)
		if err != nil {
			t.Fatal(err)
		}
		singles = append(singles, s)
	}
	cols, err := splitColumns(head+coverage.RenderMatrix(reps), head, len(reps))
	if err != nil {
		t.Fatal(err)
	}
	for i := range cols {
		if cols[i] != singles[i] {
			t.Errorf("column %d:\n%s\nwant\n%s", i, cols[i], singles[i])
		}
	}
}
