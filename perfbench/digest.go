package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/coverage"
	"repro/internal/sweep"
)

// digests.json maps digestKey(arch, alg, geometry) to the SHA-256 of
// the report a one-algorithm run of that workload renders (sweep
// RenderText: header plus a one-column matrix). Regenerate with
// `bash perfbench/run.sh --record perfbench/digests.json`; see README.md
// for where each digest comes from.
//
//go:embed digests.json
var digestsJSON []byte

// loadDigests parses the embedded digest table.
func loadDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// geometry is a memory shape: addresses × bits, ports.
type geometry struct{ size, width, ports int }

func (g geometry) String() string { return fmt.Sprintf("%dx%dx%d", g.size, g.width, g.ports) }

// digestKey names one (architecture, algorithm, geometry) report.
func digestKey(arch, alg string, g geometry) string {
	return arch + "/" + alg + "/" + g.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// reportWorkload is the workload whose renderer writes reports for arch
// at g.
func reportWorkload(arch string, g geometry) (*sweep.Workload, error) {
	return sweep.Spec{Arch: arch, Size: g.size, Width: g.width, Ports: g.ports}.Workload()
}

// header is the text sweep.Workload.RenderText writes before the
// matrix, taken from the renderer itself.
func header(arch string, g geometry) (string, error) {
	w, err := reportWorkload(arch, g)
	if err != nil {
		return "", err
	}
	return strings.TrimSuffix(w.RenderText(nil), coverage.RenderMatrix(nil)), nil
}

// The matrix layout of coverage.RenderMatrix, read off its own output:
// a fixed-width row label, then one fixed-width cell per algorithm
// column.
var (
	labelWidth = len(firstLine(coverage.RenderMatrix(nil)))
	cellWidth  = len(firstLine(coverage.RenderMatrix([]*coverage.Report{{}}))) - labelWidth
)

// splitColumns cuts a rendered report for n algorithms into the n
// one-algorithm reports it is made of: the header and every row label,
// with one column's cells. Every byte of text lands in at least one
// column, so matching each column against its recorded digest proves
// text byte-identical.
func splitColumns(text, head string, n int) ([]string, error) {
	body, ok := strings.CutPrefix(text, head)
	if !ok {
		return nil, fmt.Errorf("header mismatch: got %q", firstLine(text))
	}
	if !strings.HasSuffix(body, "\n") {
		return nil, fmt.Errorf("report does not end in a newline")
	}
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	want := labelWidth + n*cellWidth
	cols := make([]strings.Builder, n)
	for i, line := range lines {
		if len(line) != want {
			return nil, fmt.Errorf("matrix line %d is %d bytes, want %d for %d columns", i+1, len(line), want, n)
		}
		for j := range cols {
			if i == 0 {
				cols[j].WriteString(head)
			}
			cols[j].WriteString(line[:labelWidth])
			cols[j].WriteString(line[labelWidth+j*cellWidth : labelWidth+(j+1)*cellWidth])
			cols[j].WriteByte('\n')
		}
	}
	out := make([]string, n)
	for j := range cols {
		out[j] = cols[j].String()
	}
	return out, nil
}

func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// checker verifies rendered reports against the recorded digests.
type checker struct{ digests map[string]string }

// verify checks a report rendered for algs (in column order) on arch at
// g. It returns one error slot per algorithm: nil for a column that
// matches its digest. A malformed report fails every column.
func (c checker) verify(text, arch string, algs []string, g geometry) []error {
	errs := make([]error, len(algs))
	fail := func(err error) []error {
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	head, err := header(arch, g)
	if err != nil {
		return fail(err)
	}
	cols, err := splitColumns(text, head, len(algs))
	if err != nil {
		return fail(err)
	}
	for i, alg := range algs {
		key := digestKey(arch, alg, g)
		want, ok := c.digests[key]
		switch {
		case !ok:
			errs[i] = fmt.Errorf("%s: no recorded digest", key)
		case digest(cols[i]) != want:
			errs[i] = fmt.Errorf("%s: report differs from the recorded digest", key)
		}
	}
	return errs
}

// singleReport renders one graded report the way a one-algorithm run of
// its workload does.
func singleReport(rep *coverage.Report, arch string, g geometry) (string, error) {
	w, err := reportWorkload(arch, g)
	if err != nil {
		return "", err
	}
	return w.RenderText([]*coverage.Report{rep}), nil
}
