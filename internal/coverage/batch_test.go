package coverage

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/fsmbist"
	"repro/internal/march"
	"repro/internal/obs"
)

// TestBatchedEngineMatchesScalarOracle is the acceptance gate for the
// lane-parallel engine: for every architecture and every algorithm in
// the march library — decomposed prog-FSM programs included — Grade
// (EngineAuto) must produce a byte-identical Report, including the
// Missed ordering, to the scalar GradeSerial oracle at worker counts
// 1, 2 and GOMAXPROCS (Workers: 0).
func TestBatchedEngineMatchesScalarOracle(t *testing.T) {
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
			for _, workers := range []int{1, 2, 0} {
				got, err := Grade(alg, arch, Options{Size: 8, Workers: workers})
				if err != nil {
					t.Fatalf("%s on %s workers=%d: %v", name, arch, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s workers=%d: batched report differs from scalar oracle:\ngot  %v\nwant %v",
						name, arch, workers, got, want)
				}
				if got.String() != want.String() {
					t.Errorf("%s on %s workers=%d: rendered report differs", name, arch, workers)
				}
			}
		}
	}
}

// TestBatchedEngineMatchesScalarOracleWordMultiport repeats the
// equivalence check on a word-oriented multiport geometry so the lane
// engine's per-bit planes and port handling are exercised end to end.
func TestBatchedEngineMatchesScalarOracleWordMultiport(t *testing.T) {
	opts := Options{Size: 4, Width: 2, Ports: 2}
	for _, arch := range []Architecture{Reference, Microcode, ProgFSM, Hardwired} {
		for _, name := range []string{"marchc+", "marchss", "marchlr"} {
			alg, _ := march.ByName(name)
			want, err := GradeSerial(alg, arch, opts)
			if err != nil {
				t.Fatalf("%s on %s: oracle: %v", name, arch, err)
			}
			for _, workers := range []int{1, 0} {
				o := opts
				o.Workers = workers
				got, err := Grade(alg, arch, o)
				if err != nil {
					t.Fatalf("%s on %s workers=%d: %v", name, arch, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s on %s workers=%d: batched report differs from scalar oracle", name, arch, workers)
				}
			}
		}
	}
}

// TestBatchedEngineEngaged pins that the default Grade path actually
// replays lane batches (and grades no fault on the scalar engine) for
// the canonical microcode configuration, that batch occupancy respects
// the configured lane width, and that the lane_width gauge reports it.
func TestBatchedEngineEngaged(t *testing.T) {
	for _, lanes := range []int{0, 64, 128, 256, 512} {
		reg := obs.Enable()
		alg, _ := march.ByName("marchc")
		rep, err := Grade(alg, Microcode, Options{Size: 16, Lanes: lanes})
		if err != nil {
			obs.Disable()
			t.Fatal(err)
		}
		want := lanes
		if want == 0 {
			want = DefaultLanes
		}
		batches := reg.Counter("coverage.batches_replayed").Value()
		if batches == 0 {
			t.Fatalf("lanes=%d: batched engine not engaged for marchc on microcode", lanes)
		}
		if n, _, _, _ := reg.Span("coverage.fault_ns").Stats(); n != 0 {
			t.Errorf("lanes=%d: %d faults graded on the scalar engine", lanes, n)
		}
		if lw := reg.Gauge("coverage.lane_width").Value(); int(lw) != want {
			t.Errorf("lanes=%d: lane_width gauge %d, want %d", lanes, lw, want)
		}
		count, sum, _, max := reg.Span("coverage.batch_lanes").Stats()
		if count != batches {
			t.Errorf("lanes=%d: batch_lanes count %d, batches %d", lanes, count, batches)
		}
		if int(sum) != rep.Overall.Total {
			t.Errorf("lanes=%d: lane occupancy sum %d, universe size %d", lanes, sum, rep.Overall.Total)
		}
		if int(max) > want-1 {
			t.Errorf("lanes=%d: batch occupancy %d exceeds %d fault lanes", lanes, max, want-1)
		}
		if graded := reg.Counter("coverage.faults_graded").Value(); int(graded) != rep.Overall.Total {
			t.Errorf("lanes=%d: faults_graded %d, universe size %d", lanes, graded, rep.Overall.Total)
		}
		// Kind-partitioned batches are capability-pure, so every batch
		// must dispatch to a specialized kernel — Replay refuses a batch
		// that mixes mechanism classes.
		if fast := reg.Counter("coverage.fast_kernel_batches").Value(); fast != batches {
			t.Errorf("lanes=%d: %d/%d batches took a specialized kernel", lanes, fast, batches)
		}
		obs.Disable()
	}
}

// TestBatchedEngineMatchesScalarOracleAllLaneWidths sweeps the lane
// width across every supported plane count on the canonical geometry:
// each width must reproduce the scalar oracle's report byte-for-byte at
// 1, 2 and GOMAXPROCS workers (acceptance criterion for the multi-plane
// engine).
func TestBatchedEngineMatchesScalarOracleAllLaneWidths(t *testing.T) {
	alg, _ := march.ByName("marchc")
	for _, arch := range []Architecture{Reference, Microcode, ProgFSM, Hardwired} {
		want, err := GradeSerial(alg, arch, Options{Size: 16})
		if err != nil {
			t.Fatalf("%s: oracle: %v", arch, err)
		}
		for _, lanes := range []int{64, 128, 256, 512} {
			for _, workers := range []int{1, 2, 0} {
				got, err := Grade(alg, arch, Options{Size: 16, Lanes: lanes, Workers: workers})
				if err != nil {
					t.Fatalf("%s lanes=%d workers=%d: %v", arch, lanes, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s lanes=%d workers=%d: report differs from scalar oracle", arch, lanes, workers)
				}
				if got.String() != want.String() {
					t.Errorf("%s lanes=%d workers=%d: rendered report differs", arch, lanes, workers)
				}
			}
		}
	}
}

// TestGradeRejectsBadLaneWidth pins Options.Lanes validation.
func TestGradeRejectsBadLaneWidth(t *testing.T) {
	alg, _ := march.ByName("marchc")
	for _, lanes := range []int{-1, 1, 63, 96, 1024} {
		if _, err := Grade(alg, Reference, Options{Size: 8, Lanes: lanes}); err == nil {
			t.Errorf("lanes=%d: no error", lanes)
		}
	}
}

// TestDecomposedProgramsReplayBatched pins the one grading path for
// controllers whose stream differs from the reference march stream:
// every library algorithm the prog-FSM compiler decomposes must grade
// on the lane engine (batches replayed, no fault on the scalar engine)
// and still match the scalar oracle, on bit- and word-oriented,
// single- and multiport geometries.
func TestDecomposedProgramsReplayBatched(t *testing.T) {
	names := make([]string, 0, len(march.Library()))
	for name := range march.Library() {
		names = append(names, name)
	}
	sort.Strings(names)
	checked := 0
	for _, opts := range []Options{
		{Size: 8, Width: 1},
		{Size: 4, Width: 2, Ports: 2},
		{Size: 64, Width: 2},
	} {
		copts := fsmbist.CompileOpts{WordOriented: opts.Width > 1, Multiport: opts.Ports > 1}
		for _, name := range names {
			alg, _ := march.ByName(name)
			p, err := fsmbist.Compile(alg, copts)
			if err != nil || !p.Decomposed {
				continue
			}
			checked++
			reg := obs.Enable()
			got, err := Grade(alg, ProgFSM, opts)
			batches := reg.Counter("coverage.batches_replayed").Value()
			scalar, _, _, _ := reg.Span("coverage.fault_ns").Stats()
			obs.Disable()
			if err != nil {
				t.Fatalf("%s on prog-fsm %dx%d/%d: %v", name, opts.Size, opts.Width, opts.Ports, err)
			}
			if batches == 0 || scalar != 0 {
				t.Errorf("%s on prog-fsm %dx%d/%d: %d batches replayed, %d faults graded on the scalar engine; want >0 and 0",
					name, opts.Size, opts.Width, opts.Ports, batches, scalar)
			}
			want, err := GradeSerial(alg, ProgFSM, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on prog-fsm %dx%d/%d: batched report differs from scalar oracle:\ngot  %v\nwant %v",
					name, opts.Size, opts.Width, opts.Ports, got, want)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no library algorithm decomposes under the prog-FSM compiler")
	}
}

// TestStreamCacheKeyedByArchitecture pins that compiled captures are
// cached per architecture: March C++ compiles to a decomposed prog-FSM
// program whose stream and coverage differ from the microcode
// controller's, so grading both at one geometry in one process must
// give each architecture its own oracle's report. Dropping the
// architecture from the stream key would grade prog-FSM with the
// microcode stream cached first.
func TestStreamCacheKeyedByArchitecture(t *testing.T) {
	alg, _ := march.ByName("marchc++")
	opts := Options{Size: 12, Width: 1}
	streamCache.Flush()
	var oracles [2]*Report
	for i, arch := range []Architecture{Microcode, ProgFSM} {
		got, err := Grade(alg, arch, opts)
		if err != nil {
			t.Fatalf("%s: %v", arch, err)
		}
		want, err := GradeSerial(alg, arch, opts)
		if err != nil {
			t.Fatalf("%s: oracle: %v", arch, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: batched report differs from its scalar oracle:\ngot  %v\nwant %v", arch, got, want)
		}
		oracles[i] = want
	}
	if oracles[0].Overall == oracles[1].Overall {
		t.Fatalf("microcode and prog-fsm March C++ both cover %v; the test needs architectures whose verdicts differ", oracles[0].Overall)
	}
}

// TestGradeSerialForcesScalarEngine pins that the oracle entry point
// never touches the lane engine.
func TestGradeSerialForcesScalarEngine(t *testing.T) {
	reg := obs.Enable()
	defer obs.Disable()
	alg, _ := march.ByName("marchc")
	if _, err := GradeSerial(alg, Reference, Options{Size: 8}); err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter("coverage.batches_replayed").Value(); n != 0 {
		t.Errorf("GradeSerial replayed %d batches, want 0", n)
	}
	if n := reg.Counter("coverage.faults_graded").Value(); n == 0 {
		t.Error("GradeSerial graded no faults")
	}
}
