package coverage

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/faults"
	"repro/internal/march"
	"repro/internal/memory"
)

// Stream capture, compilation and batch planning for the lane engine.
//
// Each architecture's controller is run once over a fault-free memory
// and its operation stream is lowered straight into a validated
// faults.CompiledStream (bounds proven at compile time, cell indices
// pre-resolved, every read carrying the value the clean run returned).
// The universe is packed into batches partitioned by fault-mechanism
// class, so every batch replays through the specialized kernel that
// carries only the machinery its class needs (see faults.Kernel). Both
// artifacts are deterministic per workload and content-addressed in
// the artifact cache next to the universes they derive from.

// streamKey content-addresses a compiled capture. The architecture is
// part of the key: controllers may issue different access sequences
// for the same algorithm (a decomposed prog-FSM program is one), and
// each architecture must be graded against its own stream.
type streamKey struct {
	algFP              uint64
	arch               Architecture
	size, width, ports int
}

var streamCache = artifact.New[streamKey, *faults.CompiledStream]("stream", 0)

// cachedStream is captureStream memoised on the workload key. Errors
// are never cached (they may be transient panics of a chaos hook's
// making — the artifact cache drops failed builds).
func cachedStream(alg march.Algorithm, arch Architecture, opts Options) (*faults.CompiledStream, error) {
	key := streamKey{
		algFP: march.Fingerprint(alg), arch: arch,
		size: opts.Size, width: opts.Width, ports: opts.Ports,
	}
	return streamCache.Get(key, func() (*faults.CompiledStream, error) {
		return captureStream(alg, arch, opts)
	})
}

// captureStream builds the architecture's runner, executes it once over
// a Recorder-wrapped fault-free memory and compiles the recorded
// operation stream to µops. Every read records the value the clean
// memory returned, which is the value the controller's response
// analyzer expects (a clean run that detects a fail is an error), so
// the compiled stream is an exact expected-value program for this
// architecture — see gradeBatched for why replaying it grades every
// fault exactly as the scalar oracle does.
func captureStream(alg march.Algorithm, arch Architecture, opts Options) (*faults.CompiledStream, error) {
	run, err := buildRunner(alg, arch, opts)
	if err != nil {
		return nil, err
	}
	rec := &march.Recorder{Mem: memory.NewSRAM(opts.Size, opts.Width, opts.Ports)}
	detected, err := run(rec)
	if err != nil {
		return nil, fmt.Errorf("coverage: %s on %s stream capture: %w", alg.Name, arch, err)
	}
	if detected {
		return nil, fmt.Errorf("coverage: %s on %s detected a fail on fault-free memory", alg.Name, arch)
	}
	cs, err := compileStream(opts, rec.Ops)
	if err != nil {
		return nil, fmt.Errorf("coverage: %s on %s stream compile: %w", alg.Name, arch, err)
	}
	return cs, nil
}

// compileStream lowers march.StreamOps into the flat µop form:
// pre-resolved first-cell indices, expected-value words and validated
// port/address bounds, so replay kernels run without per-op checks.
func compileStream(opts Options, stream []march.StreamOp) (*faults.CompiledStream, error) {
	uops := make([]faults.UOp, len(stream))
	for i, op := range stream {
		switch {
		case op.Pause:
			uops[i] = faults.UOp{Kind: faults.UOpPause}
		case op.Write:
			uops[i] = faults.UOp{
				Kind: faults.UOpWrite, Port: uint8(op.Port),
				Addr: int32(op.Addr), Cell: int32(op.Addr * opts.Width),
				Data: op.Data,
			}
		default:
			uops[i] = faults.UOp{
				Kind: faults.UOpRead, Port: uint8(op.Port),
				Addr: int32(op.Addr), Cell: int32(op.Addr * opts.Width),
				Data: op.Data,
			}
		}
	}
	return faults.NewCompiledStream(opts.Size, opts.Width, opts.Ports, uops)
}

// laneBatch is one planned batch of a partitioned universe: the packed
// fault slice (logical lane k carries faults[k-1]), each fault's
// universe index for verdict commitment, and the active plane count the
// batch needs (small batches replay proportionally fewer planes).
type laneBatch struct {
	faults []faults.Fault
	idx    []int32
	planes int
}

// kernelClass partitions fault kinds by the replay capability they
// demand; batches drawn from one class select that class's specialized
// kernel (faults.Kernel). CFst is split from CFin/CFid so that
// trigger-only coupling batches skip dirty tracking entirely.
func kernelClass(k faults.Kind) int {
	switch k {
	case faults.SOF, faults.RDF, faults.DRDF:
		return 1 // read-path state → KernelLatch
	case faults.CFin, faults.CFid:
		return 2 // triggers only → KernelCoupling (hasCFst=false)
	case faults.CFst:
		return 3 // triggers + state re-application → KernelCoupling
	case faults.AFNone, faults.AFMap, faults.AFMulti:
		return 4 // decoder faults → KernelAF
	default:
		return 0 // SA/TF/WDF/IRF/DRF pure masks → KernelMask
	}
}

const numClasses = 5

// partitionKey content-addresses a batch plan: the universe key plus
// the lane width that bounds batch capacity.
type partitionKey struct {
	size, width int
	uopts       faults.UniverseOpts
	lanes       int
}

var partitionCache = artifact.New[partitionKey, []laneBatch]("partition", 0)

// cachedPartition returns the batch plan for a workload, memoised on
// the universe key + lane width. Cached plans are shared and immutable;
// crucially, their fault slices are *stable*, so an arena that already
// replayed a batch recognises the identical slice on the next Grade
// call and skips re-injection (faults.LaneInjected.ResetPlanes).
func cachedPartition(opts Options, universe []faults.Fault) []laneBatch {
	key := partitionKey{size: opts.Size, width: opts.Width, uopts: opts.Universe, lanes: opts.Lanes}
	plan, _ := partitionCache.Get(key, func() ([]laneBatch, error) {
		return buildPartition(universe, opts.Lanes/64), nil
	})
	return plan
}

// buildPartition packs the universe into kind-partitioned batches of at
// most BatchLimit(maxPlanes) faults. Within a class, universe order is
// preserved; classes are emitted in fixed order, so the plan — like
// everything else about grading — is deterministic. Verdicts commit
// through each batch's idx slice in universe order regardless of how
// partitioning reordered the grading itself.
func buildPartition(universe []faults.Fault, maxPlanes int) []laneBatch {
	var classes [numClasses][]int32
	for i, f := range universe {
		c := kernelClass(f.Kind)
		classes[c] = append(classes[c], int32(i))
	}
	batchCap := faults.BatchLimit(maxPlanes)
	var batches []laneBatch
	for _, idxs := range classes {
		for start := 0; start < len(idxs); start += batchCap {
			end := min(start+batchCap, len(idxs))
			chunk := idxs[start:end]
			packed := make([]faults.Fault, len(chunk))
			for j, ui := range chunk {
				packed[j] = universe[ui]
			}
			// A batch of n faults occupies logical lanes 1..n and only
			// needs ceil((n+1)/64) planes' worth of mask and cell traffic.
			planes := min((len(chunk)+64)/64, maxPlanes)
			batches = append(batches, laneBatch{faults: packed, idx: chunk, planes: planes})
		}
	}
	return batches
}
