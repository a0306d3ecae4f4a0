package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported figure.
type metric struct {
	Name    string  `json:"name"`
	Unit    string  `json:"unit"`
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	Note    string  `json:"note,omitempty"`
}

// metrics is an ordered metric list.
type metrics struct{ list []metric }

func (m *metrics) add(name, unit string, value float64, samples int) {
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: value, Samples: samples})
}

func (m *metrics) note(name, unit string, value float64, samples int, note string) {
	m.list = append(m.list, metric{Name: name, Unit: unit, Value: value, Samples: samples, Note: note})
}

// result is one run of one workload. It is written in full to a result
// file; its last stdout line carries the machine-readable summary.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Trace     bool      `json:"trace"`
	Shape     hostShape `json:"shape"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures,omitempty"`
	// Metrics are the BENCHMARK.json metrics: end-to-end untraced,
	// per-layer traced. Info holds the per-class figures behind them.
	Metrics []metric `json:"metrics"`
	Info    []metric `json:"info,omitempty"`
}

// maxFailures bounds the failure messages a result keeps.
const maxFailures = 20

// tally counts verified operations into the result.
func (r *result) tally(ops []opResult) {
	for _, o := range ops {
		r.Attempted++
		if o.Err != "" {
			r.Failed++
			if len(r.Failures) < maxFailures {
				r.Failures = append(r.Failures, o.Kind+" "+o.Key+": "+o.Err)
			}
		}
	}
}

// summary is the machine-readable last line of stdout.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]summaryVal `json:"metrics"`
}

type summaryVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable report and the summary line to w and
// saves the full result under dir.
func (r *result) write(w io.Writer, dir string) error {
	fmt.Fprintf(w, "workload %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "shape %+v\n", r.Shape)
	printMetrics(w, r.Metrics)
	if len(r.Info) > 0 {
		fmt.Fprintln(w, "detail:")
		printMetrics(w, r.Info)
	}
	ratio := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(w, "ops_failed_ratio %g (%d failed of %d attempted)\n", ratio, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	if err := r.save(dir); err != nil {
		return err
	}
	s := summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryVal{}}
	for _, m := range r.Metrics {
		s.Metrics[m.Name] = summaryVal{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printMetrics(w io.Writer, ms []metric) {
	width := 0
	for _, m := range ms {
		width = max(width, len(m.Name))
	}
	for _, m := range ms {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-*s %14.6g %-6s n=%d%s\n", width, m.Name, m.Value, m.Unit, m.Samples, note)
	}
}

// save writes the full result as <dir>/<workload>-seed<N>-trace<T>.json.
func (r *result) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, boolInt(r.Trace))
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// compareResults prints the metric medians of two result sets side by
// side. It refuses sets whose host shapes differ, or that mix
// workloads or tracing modes.
func compareResults(w io.Writer, base, head []string) error {
	a, err := loadResults(base)
	if err != nil {
		return err
	}
	b, err := loadResults(head)
	if err != nil {
		return err
	}
	ref := a[0]
	for _, r := range append(a[1:], b...) {
		if err := sameShape(ref.Shape, r.Shape); err != nil {
			return err
		}
		if r.Workload != ref.Workload || r.Trace != ref.Trace {
			return fmt.Errorf("cannot compare %s (trace %v) with %s (trace %v)", ref.Workload, ref.Trace, r.Workload, r.Trace)
		}
	}
	va, vb := values(a), values(b)
	names := make([]string, 0, len(va))
	for name := range va {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s trace %v: %d base run(s), %d head run(s), medians\n", ref.Workload, ref.Trace, len(a), len(b))
	for _, name := range names {
		ma, mb := median(va[name]), median(vb[name])
		change := "n/a"
		if ma != 0 && !math.IsNaN(mb) {
			change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/ma)
		}
		fmt.Fprintf(w, "  %-40s %14.6g %14.6g %8s\n", name, ma, mb, change)
	}
	return nil
}

func loadResults(paths []string) ([]result, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files")
	}
	var rs []result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
}

// values gathers each metric's values across results.
func values(rs []result) map[string][]float64 {
	v := make(map[string][]float64)
	for _, r := range rs {
		for _, m := range append(r.Metrics, r.Info...) {
			v[m.Name] = append(v[m.Name], m.Value)
		}
	}
	return v
}

// splitList splits a comma-separated list of result files.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
