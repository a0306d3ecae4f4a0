package main

import (
	"fmt"
	"runtime"
)

// hostShape is what a result's numbers depend on besides the code.
// Results are only comparable between equal shapes.
type hostShape struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	// GradeWorkers is the grading worker count of the sweeps and of
	// every service job (sweep.Spec.Workers 0 resolves to GOMAXPROCS).
	GradeWorkers int `json:"grade_workers"`
	// ServiceWorkers is the mbistd job pool size, Clients the number of
	// closed-loop clients, PollIntervalUS the report poll interval.
	ServiceWorkers int `json:"service_workers"`
	Clients        int `json:"clients"`
	PollIntervalUS int `json:"poll_interval_us"`
}

// pollIntervalUS is the service clients' report poll interval: small
// next to the ~2 ms small-job latency, large enough that polling does
// not crowd out the two service workers.
const pollIntervalUS = 250

// currentShape describes the host the benchmark runs on. Grading and
// service workers and clients all equal the CPU count, as the mbistcov
// and mbistd defaults do.
func currentShape() hostShape {
	n := runtime.NumCPU()
	return hostShape{
		NumCPU:         n,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		GoVersion:      runtime.Version(),
		GradeWorkers:   runtime.GOMAXPROCS(0),
		ServiceWorkers: n,
		Clients:        n,
		PollIntervalUS: pollIntervalUS,
	}
}

// sameShape refuses to compare results taken on different shapes.
func sameShape(a, b hostShape) error {
	if a != b {
		return fmt.Errorf("host shapes differ, results are not comparable:\n  %+v\n  %+v", a, b)
	}
	return nil
}
