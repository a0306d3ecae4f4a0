package faults

import (
	"math/rand"
	"testing"
)

// localityStream builds a µop stream for a large memory that mixes
// whole-memory march-like sweeps with random accesses to hot, a small
// set of word addresses. Expected read values come from a fault-free
// scalar machine, as in testStream. The hot set should hold the words
// a batch is confined to plus inactive neighbours, so that reads of
// active and inactive words interleave on every port.
func localityStream(t *testing.T, size, width, ports int, hot []int, seed int64, steps int) *CompiledStream {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	good := NewInjected(size, width, ports)
	mask := uint64(1)<<uint(width) - 1
	var ops []UOp
	write := func(port, addr int, data uint64) {
		good.Write(port, addr, data)
		ops = append(ops, wrOp(width, port, addr, data))
	}
	read := func(port, addr int) {
		ops = append(ops, rdOp(width, port, addr, good.Read(port, addr)))
	}
	for i := 0; i < steps; i++ {
		port := rng.Intn(ports)
		switch r := rng.Float64(); {
		case r < 0.02:
			// One march element: read then write every word, up or down.
			data := rng.Uint64() & mask
			for k := 0; k < size; k++ {
				addr := k
				if rng.Intn(2) == 0 {
					addr = size - 1 - k
				}
				read(port, addr)
				write(port, addr, data)
			}
		case r < 0.40:
			write(port, hot[rng.Intn(len(hot))], rng.Uint64()&mask)
		case r < 0.95:
			read(port, hot[rng.Intn(len(hot))])
		default:
			good.Pause()
			ops = append(ops, UOp{Kind: UOpPause})
		}
	}
	cs, err := NewCompiledStream(size, width, ports, ops)
	if err != nil {
		t.Fatalf("compile locality stream: %v", err)
	}
	return cs
}

// wrOp and rdOp build a write and a read µop of a width-bit memory.
func wrOp(width, port, addr int, data uint64) UOp {
	return UOp{Kind: UOpWrite, Port: uint8(port), Addr: int32(addr), Cell: int32(addr * width), Data: data}
}

func rdOp(width, port, addr int, data uint64) UOp {
	return UOp{Kind: UOpRead, Port: uint8(port), Addr: int32(addr), Cell: int32(addr * width), Data: data}
}

// namedWords returns the word addresses a fault names: the ones that
// make a word active.
func namedWords(f Fault, width int) []int {
	switch f.Kind {
	case AFNone:
		return []int{f.Addr}
	case AFMap, AFMulti:
		return []int{f.Addr, f.AggAddr}
	case CFin, CFid, CFst:
		return []int{f.Cell / width, f.Aggressor / width}
	default:
		return []int{f.Cell / width}
	}
}

// assertReplayMatches replays batch through the kernels and through the
// interpreted Write/ReadLanes path and requires identical lane verdicts.
func assertReplayMatches(t *testing.T, name string, size, width, ports, np int, batch []Fault, cs *CompiledStream) {
	t.Helper()
	arena := NewLaneInjectedPlanes(size, width, ports, np, batch)
	var fail [MaxPlanes]uint64
	if _, err := arena.Replay(cs, &fail); err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	ref := NewLaneInjectedPlanes(size, width, ports, np, batch)
	want, ok := interpretedReplay(ref, cs)
	if !ok {
		t.Fatalf("%s: interpreted replay lost the good machine", name)
	}
	for i := range batch {
		l := i + 1
		got := fail[l>>6]>>uint(l&63)&1 == 1
		exp := want[l>>6]>>uint(l&63)&1 == 1
		if got != exp {
			t.Fatalf("%s: lane %d (%s) detected=%v, interpreted %v", name, l, batch[i], got, exp)
		}
	}
}

// TestReplayLocality checks cell-locality pruning on a memory far larger
// than the words a batch touches: each kernel class's batch is confined
// to a few words, so the kernels skip most of the stream, and every
// lane's verdict must still equal the interpreted (unpruned) replay.
func TestReplayLocality(t *testing.T) {
	const size, width, ports = 256, 4, 2
	confined := map[int]bool{40: true, 41: true, 200: true}
	hot := []int{39, 40, 41, 42, 199, 200, 201}

	byClass := make(map[int][]Fault)
	for _, f := range Universe(size, width, UniverseOpts{Ports: ports}) {
		in := true
		for _, w := range namedWords(f, width) {
			in = in && confined[w]
		}
		if in {
			c, _ := kernelClass(f.Kind)
			byClass[c] = append(byClass[c], f)
		}
	}
	// Universe coupling and decoder faults pair neighbours only; add
	// pairs between the two distant confined words.
	byClass[2] = append(byClass[2],
		Fault{Kind: CFin, Aggressor: 200*width + 1, Cell: 40 * width, AggVal: true, Port: AnyPort},
		Fault{Kind: CFid, Aggressor: 40*width + 3, Cell: 200*width + 2, AggVal: false, Value: true, Port: AnyPort},
		Fault{Kind: CFst, Aggressor: 200 * width, Cell: 41*width + 1, AggVal: false, Value: true, Port: AnyPort},
		Fault{Kind: CFst, Aggressor: 41*width + 2, Cell: 200*width + 3, AggVal: true, Value: false, Port: AnyPort},
	)
	byClass[3] = append(byClass[3],
		Fault{Kind: AFMap, Addr: 200, AggAddr: 40, Port: AnyPort},
		Fault{Kind: AFMulti, Addr: 41, AggAddr: 200, Port: 1},
		Fault{Kind: AFNone, Addr: 200, Port: 0},
	)
	if len(byClass) != 4 {
		t.Fatalf("confined universe covers %d kernel classes, want 4", len(byClass))
	}

	// Short streams leave many lanes undetected, so a pruning error
	// changes some verdict instead of hiding behind a detection that
	// both paths reach anyway.
	for seed := int64(1); seed <= 24; seed++ {
		cs := localityStream(t, size, width, ports, hot, seed, 40)
		for _, pool := range byClass {
			for _, np := range []int{1, 2} {
				batch := pool[:min(len(pool), BatchLimit(np))]
				assertReplayMatches(t, "confined batch", size, width, ports, np, batch, cs)
			}
		}
	}

	// Single-fault batches on one reused arena: the active set is
	// exactly the words the fault names (every word mark is needed and
	// re-arming clears the last batch's), and pruning stays exact.
	cs := localityStream(t, size, width, ports, hot, 99, 60)
	arena := NewLaneInjected(size, width, ports, nil)
	for _, pool := range byClass {
		for i := range pool {
			batch := pool[i : i+1]
			arena.Reset(batch)
			want := make(map[int]bool)
			for _, w := range namedWords(batch[0], width) {
				want[w] = true
			}
			for w := 0; w < size; w++ {
				if wordActive(arena.active, int32(w)) != want[w] {
					t.Fatalf("%s: word %d active=%v", batch[0], w, !want[w])
				}
			}
			assertReplayMatches(t, "single fault", size, width, ports, 1, batch, cs)
		}
	}
}

// TestReplayLocalityCrossWordState pins the two pieces of machine state
// that cross words, each with a stream built so that pruning without
// carrying that state gives a wrong verdict:
//
//   - the SOF sense latch: a stuck-open read right after a skipped read
//     of an inactive word on the same port must re-deliver that word's
//     data, not what the latch held before it;
//   - the first CFst application: a skipped first write still applies
//     every CFst entry, which a following read of the victim sees.
func TestReplayLocalityCrossWordState(t *testing.T) {
	const size, width, ports = 256, 4, 2
	const a, b, c = 40, 100, 200 // a and c active, b inactive
	rd := func(port, addr int, data uint64) UOp { return rdOp(width, port, addr, data) }
	wr := func(port, addr int, data uint64) UOp { return wrOp(width, port, addr, data) }
	compile := func(ops ...UOp) *CompiledStream {
		cs, err := NewCompiledStream(size, width, ports, ops)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}

	// The read of b on port 1 leaves port 1's latch at 0b1111, unlike the
	// 0b0000 of its last replayed read; the SOF lane's read of a must see
	// 0b1111. Port 0's reads of b must not disturb port 1's latch.
	sofStream := compile(
		wr(0, a, 0x0), wr(0, b, 0xf), wr(0, c, 0x5),
		rd(1, a, 0x0), rd(1, b, 0xf), rd(1, a, 0x0),
		rd(0, c, 0x5), rd(1, c, 0x5), rd(0, b, 0xf), rd(1, a, 0x0),
	)
	sof := []Fault{
		{Kind: SOF, Cell: a*width + 0, Port: AnyPort},
		{Kind: SOF, Cell: a*width + 2, Port: 1},
		{Kind: SOF, Cell: c*width + 1, Port: 0},
		{Kind: RDF, Cell: c * width, Value: true, Port: AnyPort},
	}
	for _, np := range []int{1, 2} {
		assertReplayMatches(t, "SOF after inactive read", size, width, ports, np, sof, sofStream)
	}
	m := NewLaneInjected(size, width, ports, sof[:1])
	var fail [MaxPlanes]uint64
	if _, err := m.Replay(sofStream, &fail); err != nil {
		t.Fatal(err)
	}
	if fail[0]&2 == 0 {
		t.Fatal("SOF lane not detected: the latch was not reseeded from the skipped read")
	}

	// On all-zero memory the aggVal=false condition already holds, so the
	// first write (to inactive b) forces the victim to 1 and the next
	// read of a expects 0.
	cfstStream := compile(wr(0, b, 0x3), rd(0, a, 0x0), wr(1, c, 0x1), rd(1, a, 0x0))
	cfst := []Fault{
		{Kind: CFst, Aggressor: c * width, Cell: a*width + 1, AggVal: false, Value: true, Port: AnyPort},
		{Kind: CFst, Aggressor: a * width, Cell: c*width + 2, AggVal: true, Value: true, Port: AnyPort},
	}
	for _, np := range []int{1, 2} {
		assertReplayMatches(t, "CFst seed at skipped write", size, width, ports, np, cfst, cfstStream)
	}
	m = NewLaneInjected(size, width, ports, cfst[:1])
	if _, err := m.Replay(cfstStream, &fail); err != nil {
		t.Fatal(err)
	}
	if fail[0]&2 == 0 {
		t.Fatal("CFst lane not detected: the skipped first write did not apply the seeded entry")
	}
}

// TestCompiledStreamGoodMachineCheck pins the good-machine check that
// replaces the replayed lane-0 check on pruned reads: NewCompiledStream
// must reject a read whose Data is not what fault-free memory holds.
func TestCompiledStreamGoodMachineCheck(t *testing.T) {
	const size, width, ports = 8, 4, 2
	rd := func(port, addr int, data uint64) UOp { return rdOp(width, port, addr, data) }
	wr := func(port, addr int, data uint64) UOp { return wrOp(width, port, addr, data) }
	cases := []struct {
		name string
		ops  []UOp
		ok   bool
	}{
		{"read of unwritten word expects zero", []UOp{rd(0, 3, 0)}, true},
		{"read of unwritten word expects non-zero", []UOp{rd(0, 3, 0x4)}, false},
		{"read after write, other port", []UOp{wr(0, 5, 0x9), {Kind: UOpPause}, rd(1, 5, 0x9)}, true},
		{"read after write of different data", []UOp{wr(0, 5, 0x9), rd(0, 5, 0x6)}, false},
		{"read sees the last write", []UOp{wr(0, 5, 0x9), wr(1, 5, 0x2), rd(0, 5, 0x9)}, false},
		{"write elsewhere leaves the word", []UOp{wr(0, 5, 0x9), wr(0, 6, 0x1), rd(1, 5, 0x9), rd(0, 6, 0x1)}, true},
	}
	for _, c := range cases {
		_, err := NewCompiledStream(size, width, ports, c.ops)
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
