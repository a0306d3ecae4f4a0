package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/coverage"
	"repro/internal/march"
	"repro/internal/sweep"
)

// recordGroup is one set of digested reports: every library algorithm
// on arch at geom.
type recordGroup struct {
	arch string
	geom geometry
	// oracle grades with coverage.GradeSerial, the scalar oracle. Where
	// that is too slow the production path is recorded instead, and
	// crossArchs must render the same matrix apart from the header.
	oracle     bool
	crossArchs []string
}

// recordGroups covers every report the workloads verify.
func recordGroups() []recordGroup {
	groups := []recordGroup{
		{arch: "microcode", geom: geometry{512, 4, 1}, crossArchs: []string{"reference", "hardwired"}},
		{arch: "fsm", geom: geometry{256, 2, 1}, oracle: true},
		{arch: fullArch, geom: fullGeom, oracle: true},
	}
	for _, a := range archs {
		groups = append(groups, recordGroup{arch: a, geom: smallGeom, oracle: true})
	}
	return groups
}

// recordDigests grades every recorded report, checks each against the
// production path (or the cross-architectures), and writes the digest
// table to path.
func recordDigests(ctx context.Context, path string) error {
	digests := make(map[string]string)
	for _, grp := range recordGroups() {
		fmt.Fprintf(os.Stderr, "recording %s at %v\n", grp.arch, grp.geom)
		texts, err := gradeSingles(ctx, grp.arch, grp.geom, !grp.oracle)
		if err != nil {
			return err
		}
		if grp.oracle {
			prod, err := gradeSingles(ctx, grp.arch, grp.geom, true)
			if err != nil {
				return err
			}
			if err := sameReports(texts, prod, grp.arch, grp.arch, grp.geom); err != nil {
				return fmt.Errorf("production grading differs from the oracle: %w", err)
			}
		}
		for _, other := range grp.crossArchs {
			cross, err := gradeSingles(ctx, other, grp.geom, true)
			if err != nil {
				return err
			}
			if err := sameReports(texts, cross, grp.arch, other, grp.geom); err != nil {
				return err
			}
		}
		for i, alg := range library {
			digests[digestKey(grp.arch, alg, grp.geom)] = digest(texts[i])
		}
	}
	raw, err := json.MarshalIndent(digests, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// gradeSingles grades each library algorithm on arch at g, with the
// production engine or the scalar oracle, and renders each as a
// one-algorithm report. It also renders the whole library as one matrix
// and checks that it splits back into exactly those reports.
func gradeSingles(ctx context.Context, arch string, g geometry, production bool) ([]string, error) {
	w, err := sweep.Spec{Algs: sweep.DefaultAlgs, Arch: arch, Size: g.size, Width: g.width, Ports: g.ports}.Workload()
	if err != nil {
		return nil, err
	}
	opts := w.Opts
	if !production {
		opts.Engine = coverage.EngineScalar
	}
	reports := make([]*coverage.Report, len(w.Algs))
	texts := make([]string, len(w.Algs))
	for i, alg := range w.Algs {
		rep, err := coverage.GradeContext(ctx, alg, w.Arch, opts)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", alg.Name, arch, err)
		}
		if rep.Partial || len(rep.Quarantined) > 0 {
			return nil, fmt.Errorf("%s on %s: partial or quarantined report", alg.Name, arch)
		}
		reports[i] = rep
		if texts[i], err = singleReport(rep, arch, g); err != nil {
			return nil, err
		}
	}
	head, err := header(arch, g)
	if err != nil {
		return nil, err
	}
	cols, err := splitColumns(w.RenderText(reports), head, len(reports))
	if err != nil {
		return nil, err
	}
	for i := range cols {
		if cols[i] != texts[i] {
			return nil, fmt.Errorf("%s on %s: matrix column does not split back into its one-algorithm report", library[i], arch)
		}
	}
	return texts, nil
}

// sameReports checks two architectures' reports are identical apart
// from their headers.
func sameReports(a, b []string, archA, archB string, g geometry) error {
	ha, err := header(archA, g)
	if err != nil {
		return err
	}
	hb, err := header(archB, g)
	if err != nil {
		return err
	}
	var errs []error
	for i := range a {
		if strings.TrimPrefix(a[i], ha) != strings.TrimPrefix(b[i], hb) {
			name := library[i]
			if alg, ok := march.ByName(name); ok {
				name = alg.Name
			}
			errs = append(errs, fmt.Errorf("%s at %v: %s and %s reports differ", name, g, archA, archB))
		}
	}
	return errors.Join(errs...)
}
