package coverage

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/march"
)

// TestCompiledReplayMatchesInterpreted is the acceptance property of
// the compiled replay path: for every architecture and every algorithm
// in the march library, at the narrowest and widest lane widths and at
// serial and GOMAXPROCS worker counts, grading on the lane engine (the
// captured stream compiled to µops) must produce a Report
// byte-identical to the scalar oracle, which executes the full test
// step by step on one injected memory per fault.
func TestCompiledReplayMatchesInterpreted(t *testing.T) {
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, arch := range []Architecture{Reference, Microcode, ProgFSM, Hardwired} {
		for _, name := range names {
			alg, _ := march.ByName(name)
			want, err := GradeSerial(alg, arch, Options{Size: 8})
			if err != nil {
				t.Fatalf("%s on %s: oracle: %v", name, arch, err)
			}
			for _, lanes := range []int{64, 512} {
				for _, workers := range []int{1, 0} {
					got, err := Grade(alg, arch, Options{Size: 8, Lanes: lanes, Workers: workers})
					if err != nil {
						t.Fatalf("%s on %s lanes=%d workers=%d: compiled: %v", name, arch, lanes, workers, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s on %s lanes=%d workers=%d: compiled report differs from scalar oracle:\ngot  %v\nwant %v",
							name, arch, lanes, workers, got, want)
					}
					if got.String() != want.String() {
						t.Errorf("%s on %s lanes=%d workers=%d: rendered report differs", name, arch, lanes, workers)
					}
				}
			}
		}
	}
}

// TestCompiledReplayResumeQuarantine extends the oracle equivalence
// through the resilience machinery: with always-panicking faults
// spanning several partition batches (quarantine path) and a mid-run
// checkpoint that a second run resumes from, the lane engine and the
// scalar oracle must converge on byte-identical reports — including
// resuming a checkpoint written by the *other* engine, since State is
// engine-agnostic. It runs on microcode and on a decomposed prog-FSM
// program, whose captured stream differs from the reference stream.
func TestCompiledReplayResumeQuarantine(t *testing.T) {
	targets := map[int]bool{3: true, 63: true, 64: true, 127: true}
	hook := func(i int) {
		if targets[i] {
			panic("chaos: injected fault hook panic")
		}
	}
	for _, tc := range []struct {
		alg  string
		arch Architecture
	}{
		{"marchc", Microcode},
		{"marchc++", ProgFSM},
	} {
		alg, _ := march.ByName(tc.alg)
		run := func(engine Engine, resume *State) (*Report, *State) {
			var mid *State
			opts := Options{
				Size: 16, Workers: 1, Engine: engine,
				FaultHook:       hook,
				CheckpointEvery: 200,
				Resume:          resume,
				Checkpoint: func(s *State) {
					if mid == nil && len(s.Quarantined) > 0 && !s.Complete() {
						mid = s
					}
				},
			}
			rep, err := Grade(alg, tc.arch, opts)
			if err != nil {
				t.Fatalf("%s on %s engine=%d resume=%v: %v", tc.alg, tc.arch, engine, resume != nil, err)
			}
			return rep, mid
		}

		want, ckS := run(EngineScalar, nil)
		got, ckL := run(EngineAuto, nil)
		if len(want.Quarantined) != len(targets) {
			t.Fatalf("%s on %s: oracle quarantined %d faults, want %d", tc.alg, tc.arch, len(want.Quarantined), len(targets))
		}
		if !reflect.DeepEqual(got, want) || got.String() != want.String() {
			t.Errorf("%s on %s: lane report differs from the oracle under quarantine:\ngot  %v\nwant %v", tc.alg, tc.arch, got, want)
		}
		if ckS == nil || ckL == nil {
			t.Fatalf("%s on %s: no mid-run checkpoint with quarantine entries was captured", tc.alg, tc.arch)
		}

		// Resume every (checkpoint origin, engine) pairing; all four
		// must land on the uninterrupted oracle report.
		for _, rc := range []struct {
			name   string
			engine Engine
			ck     *State
		}{
			{"lane from lane ckpt", EngineAuto, ckL},
			{"scalar from scalar ckpt", EngineScalar, ckS},
			{"lane from scalar ckpt", EngineAuto, ckS},
			{"scalar from lane ckpt", EngineScalar, ckL},
		} {
			got, _ := run(rc.engine, rc.ck)
			if !reflect.DeepEqual(got, want) || got.String() != want.String() {
				t.Errorf("%s on %s, %s: resumed report differs from the uninterrupted oracle", tc.alg, tc.arch, rc.name)
			}
		}
	}
}

// TestArenaPoolEviction pins the pool hygiene contract: the pool grows
// toward one arena per distinct batch while under its limit, reuses
// them batch-affine across repeated grades, and is emptied whole when
// the partition artifact cache flushes (its plans own the batch slices
// the arenas are armed with).
func TestArenaPoolEviction(t *testing.T) {
	flushArenas()
	partitionCache.Flush()
	alg, _ := march.ByName("marchc")
	if _, err := Grade(alg, Microcode, Options{Size: 16, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	keys, arenas := arenaPoolStats()
	if keys == 0 || arenas == 0 {
		t.Fatalf("pool empty after a batched grade (keys=%d arenas=%d)", keys, arenas)
	}
	if _, err := Grade(alg, Microcode, Options{Size: 16, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if k2, a2 := arenaPoolStats(); k2 != keys || a2 != arenas {
		t.Errorf("repeat grade grew the pool: keys %d->%d arenas %d->%d", keys, k2, arenas, a2)
	}
	partitionCache.Flush()
	if k, a := arenaPoolStats(); k != 0 || a != 0 {
		t.Errorf("pool not emptied by partition cache flush: keys=%d arenas=%d", k, a)
	}
	universeCache.Flush()
	if k, a := arenaPoolStats(); k != 0 || a != 0 {
		t.Errorf("pool not emptied by universe cache flush: keys=%d arenas=%d", k, a)
	}
}
