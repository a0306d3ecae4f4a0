package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/coverage"
	"repro/internal/faults"
	"repro/internal/march"
	"repro/internal/resilience"
	"repro/internal/sweep"
)

// Probe sizes.
const (
	universeProbes = 3   // faults.Universe calls per probe
	kernelBatches  = 3   // batches per kernel class
	kernelRepeats  = 3   // replays per batch
	appendProbes   = 500 // fsync'd journal appends
	// kernelAlg is the algorithm the replay probes run: fixed, so the
	// figure does not move with the seeded order.
	kernelAlg = "marchc"
	// kernelPlanes is the plane count of a default-width (256-lane)
	// batch.
	kernelPlanes = coverage.DefaultLanes / 64
)

// kernelClasses groups fault kinds as the coverage layer partitions its
// batches, so each probe batch is one the program dispatches: CFin/CFid
// batches take the coupling kernel without state re-application, CFst
// batches take it with dirty tracking.
var kernelClasses = []struct {
	name  string
	kern  faults.Kernel
	kinds []faults.Kind
}{
	{"mask", faults.KernelMask, []faults.Kind{faults.SA, faults.TF, faults.WDF, faults.IRF, faults.DRF}},
	{"latch", faults.KernelLatch, []faults.Kind{faults.SOF, faults.RDF, faults.DRDF}},
	{"coupling", faults.KernelCoupling, []faults.Kind{faults.CFin, faults.CFid}},
	{"coupling_st", faults.KernelCoupling, []faults.Kind{faults.CFst}},
	{"af", faults.KernelAF, []faults.Kind{faults.AFNone, faults.AFMap, faults.AFMulti}},
}

// layerProbes times the faults, march and resilience layers directly at
// geometry g: universe enumeration, stream expansion and µop
// compilation for algs, one replay kernel class at a time, and fsync'd
// journal appends.
func layerProbes(tr *Tracer, parent int, algs []string, g geometry, m *metrics) error {
	var uni []faults.Fault
	var uniNS []float64
	for range universeProbes {
		t0 := time.Now()
		sp := tr.Start(parent, "faults", "faults.Universe", "")
		uni = faults.Universe(g.size, g.width, faults.UniverseOpts{Ports: g.ports})
		tr.End(sp)
		uniNS = append(uniNS, float64(time.Since(t0)))
	}
	m.add("faults.universe_ms", "ms", median(uniNS)/1e6, len(uniNS))
	m.add("faults.universe_size", "count", float64(len(uni)), 1)

	var streamNS, compileNS, uops float64
	var probe *faults.CompiledStream
	for _, name := range algs {
		alg, ok := march.ByName(name)
		if !ok {
			return fmt.Errorf("unknown algorithm %q", name)
		}
		t0 := time.Now()
		sp := tr.Start(parent, "march", "march.FullStream", name)
		stream := march.FullStream(alg, g.size, g.width, g.ports, g.width == 1)
		tr.End(sp)
		streamNS += float64(time.Since(t0))
		ops := lower(stream, g.width)
		t0 = time.Now()
		sp = tr.Start(parent, "faults", "faults.NewCompiledStream", name)
		cs, err := faults.NewCompiledStream(g.size, g.width, g.ports, ops)
		tr.End(sp)
		if err != nil {
			return err
		}
		compileNS += float64(time.Since(t0))
		uops += float64(cs.Len())
		if name == kernelAlg {
			probe = cs
		}
	}
	m.add("march.stream_ms", "ms", streamNS/1e6, len(algs))
	m.add("faults.compile_us", "us", compileNS/1e3, len(algs))
	m.add("faults.uops", "count", uops, len(algs))
	if probe == nil {
		return fmt.Errorf("kernel probe algorithm %s not in the workload", kernelAlg)
	}
	if err := kernelProbes(tr, parent, uni, probe, g, m); err != nil {
		return err
	}
	return appendProbe(tr, parent, m)
}

// lower turns a march stream into compiled-stream µops, as the coverage
// layer does before replay.
func lower(stream []march.StreamOp, width int) []faults.UOp {
	ops := make([]faults.UOp, len(stream))
	for i, op := range stream {
		switch {
		case op.Pause:
			ops[i] = faults.UOp{Kind: faults.UOpPause}
		default:
			kind := faults.UOpRead
			if op.Write {
				kind = faults.UOpWrite
			}
			ops[i] = faults.UOp{
				Kind: kind, Port: uint8(op.Port),
				Addr: int32(op.Addr), Cell: int32(op.Addr * width), Data: op.Data,
			}
		}
	}
	return ops
}

// kernelProbes replays full batches of one kernel class at a time and
// reports each kernel's time per fault·µop (nominal: a replay stops
// early once every lane has failed).
func kernelProbes(tr *Tracer, parent int, uni []faults.Fault, cs *faults.CompiledStream, g geometry, m *metrics) error {
	limit := faults.BatchLimit(kernelPlanes)
	for _, kc := range kernelClasses {
		var class []faults.Fault
		for _, f := range uni {
			for _, k := range kc.kinds {
				if f.Kind == k {
					class = append(class, f)
					break
				}
			}
		}
		if len(class) == 0 {
			return fmt.Errorf("no %s faults at %v", kc.name, g)
		}
		mem := faults.NewLaneInjectedPlanes(g.size, g.width, g.ports, kernelPlanes, nil)
		var ns, work float64
		for b := 0; b < kernelBatches && b*limit < len(class); b++ {
			batch := class[b*limit : min((b+1)*limit, len(class))]
			for range kernelRepeats {
				mem.ResetPlanes(batch, kernelPlanes)
				var fail [faults.MaxPlanes]uint64
				t0 := time.Now()
				sp := tr.Start(parent, "faults", "faults.LaneInjected.Replay", kc.name)
				kern, err := mem.Replay(cs, &fail)
				tr.End(sp)
				ns += float64(time.Since(t0))
				if err != nil {
					return fmt.Errorf("%s replay: %w", kc.name, err)
				}
				if kern != kc.kern {
					return fmt.Errorf("%s batch dispatched to the %v kernel", kc.name, kern)
				}
				work += float64(len(batch) * cs.Len())
			}
		}
		m.add("faults.kernel_ns_per_fault_uop."+kc.name, "ns", ns/work, kernelBatches*kernelRepeats)
	}
	return nil
}

// probeRecord has the shape of the service's terminal journal record
// for a small job.
type probeRecord struct {
	Op     string `json:"op"`
	ID     string `json:"id"`
	Result string `json:"result"`
}

// appendProbe times fsync'd appends of small-job-sized records to a
// fresh journal.
func appendProbe(tr *Tracer, parent int, m *metrics) error {
	dir, err := os.MkdirTemp("", "perfbench-append-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sp := tr.Start(parent, "resilience", "resilience.OpenJournal", "")
	j, _, err := resilience.OpenJournal(filepath.Join(dir, "probe.journal"), "perfbench-probe/1")
	tr.End(sp)
	if err != nil {
		return err
	}
	defer j.Close()
	rec := probeRecord{Op: "done", Result: strings.Repeat("x", 450)}
	var ns []float64
	for i := range appendProbes {
		rec.ID = fmt.Sprintf("job-%d", i+1)
		t0 := time.Now()
		sp := tr.Start(parent, "resilience", "resilience.Journal.Append", rec.ID)
		err := j.Append(rec)
		tr.End(sp)
		if err != nil {
			return err
		}
		ns = append(ns, float64(time.Since(t0)))
	}
	m.add("resilience.append_us_p50", "us", median(ns)/1e3, len(ns))
	m.add("resilience.append_us_p99", "us", percentile(ns, 99)/1e3, len(ns))
	return nil
}

// scalarProbeSample bounds the sampled universe of the scalar probe.
const scalarProbeSample = 8

// scalarProbe times the scalar oracle per fault on arch at g, over a
// sampled universe, for workloads whose grading never falls back to it.
func scalarProbe(ctx context.Context, tr *Tracer, parent int, arch string, g geometry, m *metrics) error {
	a, err := sweep.ParseArch(arch)
	if err != nil {
		return err
	}
	alg, _ := march.ByName(kernelAlg)
	opts := coverage.Options{
		Size: g.size, Width: g.width, Ports: g.ports, Workers: 1, Engine: coverage.EngineScalar,
		Universe: faults.UniverseOpts{CellSample: scalarProbeSample, CouplingPairs: scalarProbeSample, AddrSample: scalarProbeSample},
	}
	n := coverage.UniverseSize(opts)
	t0 := time.Now()
	sp := tr.Start(parent, "coverage", "coverage.GradeContext", kernelAlg+"/scalar")
	_, err = coverage.GradeContext(ctx, alg, a, opts)
	tr.End(sp)
	if err != nil {
		return err
	}
	m.add("coverage.scalar_fault_us_mean", "us", float64(time.Since(t0))/1e3/float64(n), n)
	return nil
}
