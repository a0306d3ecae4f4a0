package coverage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// The lane-parallel grading engine (PPSFP applied to the behavioural
// memory model). Its precondition: in every executor — march.Run and
// the microcode, prog-FSM and hardwired controllers — read data reaches
// only the response analyzer, which compares the whole word against the
// expected value, and grading runs with MaxFails:1. Up to its first
// miscompare a faulty run therefore sees exactly the clean run's read
// values and issues exactly the clean run's accesses; at that
// miscompare it stops, detected. Detection is thus equivalent to "some
// read mismatches the clean run's value when the architecture's own
// clean stream is replayed" — whether or not that stream equals the
// reference march stream. That lets one replay of the captured stream
// grade a whole batch at once: lane 0 of a faults.LaneInjected is the
// good machine and logical lanes 1..Lanes-1 each carry one fault; every
// read compares all lanes against the expected value in parallel and
// accumulates a per-plane fail mask.

// Arenas are recycled across Grade calls through a bounded free-list
// keyed by geometry and plane capacity: a warm arena's fault tables
// already hold the capacity the same workload's batches need, so
// steady-state grading (benchmark loops, matrix sweeps) re-injects into
// retained storage instead of allocating. arenaGet further prefers the
// arena already armed with the requested batch slice — cached partition
// plans hand out stable slices, so the match lets ResetPlanes skip
// re-injection entirely (batch-affine reuse). Arenas suspected of panic
// corruption are never returned.
//
// Keys whose free-list empties keep their (empty, capacity-bearing)
// slice so the steady-state get/put cycle never re-allocates backing
// arrays; dead keys are swept when the pool reaches its limit, and the
// whole pool is flushed whenever the universe or partition artifact
// caches flush: under a heterogeneous job stream (mbistd) dead
// geometries neither pin map keys nor outlive the plans their batches
// came from.
type arenaKey struct {
	size, width, ports, planes int
}

var (
	arenaMu   sync.Mutex
	arenaPool = map[arenaKey][]*faults.LaneInjected{}
	arenaN    int
)

const arenaPoolLimit = 32

func init() {
	universeCache.SetFlushHook(flushArenas)
	partitionCache.SetFlushHook(flushArenas)
}

func arenaGet(k arenaKey, batch []faults.Fault) *faults.LaneInjected {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	list := arenaPool[k]
	n := len(list)
	pick := -1
	for j := n - 1; j >= 0; j-- {
		if list[j].SameBatch(batch) {
			pick = j
			break
		}
	}
	if pick < 0 {
		// No arena is armed with this batch. While the pool has headroom
		// let the caller allocate a fresh arena instead of recycling a
		// mismatched one: the put after the batch grows the pool toward
		// one arena per distinct batch, which is what makes every later
		// get a re-injection-free hit. Only recycle (pay re-injection,
		// save the allocation) once the pool is at capacity.
		if arenaN < arenaPoolLimit || n == 0 {
			return nil
		}
		pick = n - 1
	}
	m := list[pick]
	list[pick] = list[n-1]
	list[n-1] = nil
	arenaPool[k] = list[:n-1]
	arenaN--
	return m
}

func arenaPut(k arenaKey, m *faults.LaneInjected) {
	if m == nil {
		return
	}
	arenaMu.Lock()
	defer arenaMu.Unlock()
	if arenaN >= arenaPoolLimit {
		// Full: this arena is dropped anyway; take the chance to evict
		// keys whose free-lists have drained (dead geometries under a
		// heterogeneous job stream).
		for key, list := range arenaPool {
			if len(list) == 0 {
				delete(arenaPool, key)
			}
		}
		return
	}
	arenaPool[k] = append(arenaPool[k], m)
	arenaN++
}

// flushArenas empties the pool; registered as the flush hook of the
// universe and partition caches, whose lifetimes bound the batches the
// arenas are armed with.
func flushArenas() {
	arenaMu.Lock()
	arenaPool = map[arenaKey][]*faults.LaneInjected{}
	arenaN = 0
	arenaMu.Unlock()
}

// arenaPoolStats reports the pool's key and arena counts (tests).
func arenaPoolStats() (keys, arenas int) {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	return len(arenaPool), arenaN
}

// gradeBatched grades the universe by replaying the architecture's
// compiled capture over kind-partitioned lane batches of at most
// opts.Lanes-1 faults (see buildPartition), each through the
// capability-gated kernel its class admits (faults.Replay). Verdicts
// commit through each batch's universe indices, so the Report —
// including the Missed ordering — is byte-identical to the scalar
// oracle at any worker count or lane width: partitioning reorders
// grading, never the universe-ordered verdict assembly. A panic
// anywhere in a batch (hook, injector or replay) fails only that
// batch: each of its faults is retried individually on the scalar
// oracle and quarantined if it panics again. Cancellation stops the
// claim loop at the next batch boundary.
func (r *gradeRun) gradeBatched(cs *faults.CompiledStream) error {
	universe := r.universe
	maxPlanes := r.opts.Lanes / 64
	plan := cachedPartition(r.opts, universe)
	reg := obs.Active()
	batches := len(plan)
	workers := r.opts.Workers
	if workers > batches {
		workers = batches
	}
	reg.Gauge("coverage.workers").Set(int64(workers))
	reg.Gauge("coverage.lane_width").Set(int64(r.opts.Lanes))
	mBatches := reg.Counter("coverage.batches_replayed")
	// Replay runs every batch through a specialized kernel (it rejects
	// mixed-capability batches, which buildPartition never forms), so
	// fast_kernel_batches tracks batches_replayed; both stay for the
	// readers that report their ratio.
	mFastKernels := reg.Counter("coverage.fast_kernel_batches")
	mLanes := reg.Span("coverage.batch_lanes")
	mBatch := reg.Span("coverage.batch_ns")
	mFaults := reg.Counter("coverage.faults_graded")

	pendingIn := func(bt *laneBatch) int {
		pending := 0
		for _, ui := range bt.idx {
			if !r.resumed[ui] {
				pending++
			}
		}
		return pending
	}

	akey := arenaKey{size: r.opts.Size, width: r.opts.Width, ports: r.opts.Ports, planes: maxPlanes}

	// gradeOne replays one batch; a panic escapes as a *PanicError for
	// the caller's scalar retry. Arenas are fetched batch-affine from
	// the pool and returned unless the batch panicked (the arena may be
	// mid-mutation).
	gradeOne := func(b int) error {
		bt := &plan[b]
		pending := pendingIn(bt)
		if pending == 0 {
			// Fully settled by the resumed checkpoint: nothing to replay.
			return nil
		}
		t0 := mBatch.Start()
		var fail [faults.MaxPlanes]uint64
		var mem *faults.LaneInjected
		var rerr error
		perr := resilience.Capture(func() {
			if r.opts.FaultHook != nil {
				for _, ui := range bt.idx {
					if !r.resumed[ui] {
						r.opts.FaultHook(int(ui))
					}
				}
			}
			mem = arenaGet(akey, bt.faults)
			if mem == nil {
				mem = faults.NewLaneInjectedPlanes(r.opts.Size, r.opts.Width, r.opts.Ports, maxPlanes, nil)
			}
			mem.ResetPlanes(bt.faults, bt.planes)
			_, rerr = mem.Replay(cs, &fail)
		})
		if perr != nil {
			return perr
		}
		arenaPut(akey, mem)
		if rerr != nil {
			return fmt.Errorf("coverage: batch %d (%d faults): %w", b, len(bt.faults), rerr)
		}
		r.commitBatch(bt.idx, &fail)
		mBatch.ObserveSince(t0)
		mBatches.Add(1)
		mFastKernels.Add(1)
		mLanes.Observe(int64(len(bt.faults)))
		mFaults.Add(int64(pending))
		return nil
	}

	// runBatch grades one batch, degrading to per-fault scalar retries
	// when the lane replay panics. The scalar retry runner is per
	// worker, built lazily on first panic and rebuilt after any panic
	// that may have corrupted it. A fault that panics in the scalar loop
	// is itself retried once before quarantine: a wide batch can panic
	// before ever reaching this fault (e.g. an earlier fault's hook blew
	// up first), so the scalar attempt may be the fault's first — the
	// quarantine contract is two panics on the fault itself, matching
	// scalarWorker.
	runBatch := func(retry *runner, b int) error {
		err := gradeOne(b)
		if err == nil {
			return nil
		}
		if _, ok := resilience.AsPanic(err); !ok {
			return err
		}
		r.mRetries.Add(1)
		rebuild := func() error {
			*retry, err = buildRunnerFresh(r.alg, r.arch, r.opts)
			return err
		}
		for _, ui := range plan[b].idx {
			i := int(ui)
			if r.resumed[i] {
				continue
			}
			if r.ctx.Err() != nil {
				return nil
			}
			if *retry == nil {
				if err := rebuild(); err != nil {
					return err
				}
			}
			d, ferr := r.scalarOne(*retry, i)
			if ferr != nil {
				if _, ok := resilience.AsPanic(ferr); !ok {
					return fmt.Errorf("coverage: %s on %s with %v: %w", r.alg.Name, r.arch, universe[i], ferr)
				}
				r.mRetries.Add(1)
				if err := rebuild(); err != nil {
					return err
				}
				if d, ferr = r.scalarOne(*retry, i); ferr != nil {
					p, ok := resilience.AsPanic(ferr)
					if !ok {
						return fmt.Errorf("coverage: %s on %s with %v: %w", r.alg.Name, r.arch, universe[i], ferr)
					}
					r.quarantine(i, p)
					*retry = nil
					continue
				}
			}
			r.record(i, d)
			mFaults.Add(1)
		}
		return nil
	}

	if workers <= 1 {
		var retry runner
		for b := 0; b < batches; b++ {
			if r.ctx.Err() != nil {
				return nil
			}
			if err := runBatch(&retry, b); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		cursor atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
		emu    sync.Mutex
	)
	errBatch := batches
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var retry runner
			for {
				b := int(cursor.Add(1)) - 1
				if b >= batches || failed.Load() || r.ctx.Err() != nil {
					return
				}
				if err := runBatch(&retry, b); err != nil {
					emu.Lock()
					if b < errBatch {
						errBatch, firstErr = b, err
					}
					emu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
