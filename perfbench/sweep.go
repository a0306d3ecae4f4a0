package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/coverage"
	"repro/internal/sweep"
)

// setupHeapBytes is the heap a set-up-only process grows and frees
// before it times set-up. With both arch-sweep legs, set-up still took
// ~3,600 fresh page faults after a 32 MiB heap, ~1,400 after 96 MiB
// and ~900 after 128 MiB.
const setupHeapBytes = 128 << 20

// growHeap allocates and touches n bytes, then frees them, so that
// set-up allocates from pages the process has already faulted in. The
// cost of a fresh page fault varies with the host: on a 2-vCPU VM it
// doubled the set-up median between runs minutes apart. Peak RSS
// covers memory growth; set-up time then measures set-up's own work.
func growHeap(n int) {
	b := make([]byte, n)
	for i := 0; i < n; i += os.Getpagesize() {
		b[i] = 1
	}
	runtime.KeepAlive(b)
	runtime.GC()
}

// sweepChild resolves every leg's sweep workload and enumerates its
// fault universe (the set-up), then, unless cfg is set-up only, sweeps
// the legs in order: it grades every algorithm and renders the matrix
// as mbistcov does, and verifies the rendered report column by column.
func sweepChild(ctx context.Context, cfg childConfig, chk checker, tr *Tracer) (*childResult, error) {
	root := tr.Start(0, "bench", "bench.sweep", "")
	defer tr.End(root)
	if cfg.Kind == childSetup {
		growHeap(setupHeapBytes)
	}

	t0 := time.Now()
	ws := make([]*sweep.Workload, len(cfg.Legs))
	for i, leg := range cfg.Legs {
		g := leg.geometry()
		sp := tr.Start(root, "sweep", "sweep.Spec.Workload", leg.Name)
		w, err := sweep.Spec{
			Algs: strings.Join(cfg.Algs, ","), Arch: leg.Arch,
			Size: g.size, Width: g.width, Ports: g.ports, Workers: cfg.Workers,
		}.Workload()
		tr.End(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.Start(root, "coverage", "coverage.UniverseSize", leg.Name)
		coverage.UniverseSize(w.Opts)
		tr.End(sp)
		ws[i] = w
	}
	res := &childResult{SetupNS: []int64{int64(time.Since(t0))}}
	if cfg.Kind == childSetup {
		return res, nil
	}
	for i, leg := range cfg.Legs {
		ops, ns, err := leg.sweep(ctx, ws[i], cfg.Algs, chk, tr, root)
		if err != nil {
			return nil, err
		}
		res.Ops = append(res.Ops, ops...)
		res.LegNS = append(res.LegNS, ns)
		res.WallNS += ns
	}
	return res, nil
}

// sweep grades every algorithm of the leg's workload w in order,
// renders the matrix and verifies it. It returns one verified operation per algorithm, keyed
// leg/algorithm, and the time to grade and render.
func (leg sweepLeg) sweep(ctx context.Context, w *sweep.Workload, algs []string, chk checker, tr *Tracer, root int) ([]opResult, int64, error) {
	t0 := time.Now()
	reports := make([]*coverage.Report, len(w.Algs))
	lat := make([]int64, len(w.Algs))
	for i, alg := range w.Algs {
		a0 := time.Now()
		sp := tr.Start(root, "coverage", "coverage.GradeContext", leg.Name+"/"+algs[i])
		rep, err := coverage.GradeContext(ctx, alg, w.Arch, w.Opts)
		tr.End(sp)
		if err != nil {
			return nil, 0, fmt.Errorf("grade %s on %s: %w", algs[i], leg.Arch, err)
		}
		lat[i] = int64(time.Since(a0))
		reports[i] = rep
	}
	sp := tr.Start(root, "sweep", "sweep.Workload.RenderText", leg.Name)
	text := w.RenderText(reports)
	tr.End(sp)
	ns := int64(time.Since(t0))

	errs := chk.verify(text, leg.Arch, algs, leg.geometry())
	ops := make([]opResult, len(algs))
	for i, rep := range reports {
		if errs[i] == nil && (rep.Partial || len(rep.Quarantined) > 0) {
			errs[i] = fmt.Errorf("%s on %s: partial or quarantined report", algs[i], leg.Arch)
		}
		ops[i] = opResult{Kind: "grade", Key: leg.Name + "/" + algs[i], LatNS: lat[i]}
		if errs[i] != nil {
			ops[i].Err = errs[i].Error()
		}
	}
	return ops, ns, nil
}
