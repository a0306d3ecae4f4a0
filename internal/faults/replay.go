package faults

import "fmt"

// Caps is the bitset of fault-mechanism capabilities a batch needs
// from the replay engine. Each injected fault contributes the
// machinery its kind requires; the union selects the cheapest replay
// kernel that is exact for the whole batch (see Kernel).
type Caps uint8

const (
	// CapAF: address-decoder faults — redirect decode on every access.
	CapAF Caps = 1 << iota
	// CapCoupling: aggressor-triggered coupling (CFin/CFid/CFst) —
	// transition detection and trigger firing on every write.
	CapCoupling
	// CapState: state coupling (CFst) — dirty tracking plus condition
	// re-application after every write and pause.
	CapState
	// CapLatch: read-path state — SOF sense latches, RDF consecutive-
	// read counters, DRDF cell flips.
	CapLatch
	// CapPause: retention leaks (DRF) applied on Pause.
	CapPause
)

// capsOf maps a fault kind to the replay capabilities it requires.
// SA/TF/WDF/IRF are pure mask applications and require none.
func capsOf(k Kind) Caps {
	switch k {
	case SOF, RDF, DRDF:
		return CapLatch
	case DRF:
		return CapPause
	case CFin, CFid:
		return CapCoupling
	case CFst:
		return CapCoupling | CapState
	case AFNone, AFMap, AFMulti:
		return CapAF
	default:
		return 0
	}
}

// Caps returns the union of the current batch's capabilities.
func (m *LaneInjected) Caps() Caps { return m.caps }

// Kernel identifies which specialized replay loop a batch's
// capabilities admit. Kernels are exact, not approximate: each one is
// the full Write/ReadLanes machine with the code paths its excluded
// capabilities would exercise provably dead and the accesses to words
// no batch fault names skipped (see Replay), so every kernel produces
// bit-identical lane verdicts to that machine (asserted by
// TestReplayKernels* and TestReplayLocality*). A batch mixing capabilities no single kernel
// covers (e.g. decoder and coupling faults) has no kernel: the
// coverage layer partitions batches by mechanism class so it never
// builds one.
type Kernel uint8

const (
	// KernelMask handles pure mask faults (SA/TF/WDF/IRF, plus DRF
	// pause leaks): no redirect decode, no triggers, no dirty tracking,
	// no read-path state.
	KernelMask Kernel = iota
	// KernelLatch adds read-path state (SOF/RDF/DRDF) to KernelMask.
	KernelLatch
	// KernelCoupling adds write triggers and CFst re-application to
	// KernelMask.
	KernelCoupling
	// KernelAF handles decoder-fault-only batches: redirect decode
	// without any mask, trigger or read-path machinery.
	KernelAF
)

// String names the kernel as reported in obs metrics and test output.
func (k Kernel) String() string {
	switch k {
	case KernelMask:
		return "mask"
	case KernelLatch:
		return "latch"
	case KernelCoupling:
		return "coupling"
	case KernelAF:
		return "af"
	default:
		return fmt.Sprintf("kernel(%d)", uint8(k))
	}
}

// Kernel selects the cheapest exact kernel for the current batch; ok
// is false when the batch mixes capabilities no kernel covers.
func (m *LaneInjected) Kernel() (k Kernel, ok bool) {
	switch {
	case m.caps&^CapPause == 0:
		return KernelMask, true
	case m.caps&^(CapLatch|CapPause) == 0:
		return KernelLatch, true
	case m.caps&^(CapCoupling|CapState|CapPause) == 0:
		return KernelCoupling, true
	case m.caps == CapAF:
		return KernelAF, true
	default:
		return 0, false
	}
}

// µop opcodes.
const (
	// UOpWrite stores Data at Addr through Port.
	UOpWrite uint8 = iota
	// UOpRead reads Addr through Port and compares against Data, the
	// expected fault-free value.
	UOpRead
	// UOpPause models a retention delay (march "Del" element).
	UOpPause
)

// UOp is one compiled micro-operation of a march stream: the port,
// address and data of a march primitive with the first cell index
// (Addr×width) pre-resolved, so replay kernels index cell planes with
// one multiply per op instead of one per bit.
type UOp struct {
	// Data is the written word (UOpWrite) or the expected fault-free
	// read value (UOpRead).
	Data uint64
	// Cell is Addr*width, the plane-array row of the word's first bit.
	Cell int32
	// Addr is the word address.
	Addr int32
	// Kind is the opcode (UOpWrite/UOpRead/UOpPause).
	Kind uint8
	// Port is the access port.
	Port uint8
}

// CompiledStream is a validated, immutable µop program for one
// (algorithm, geometry): every port and address is bounds-checked at
// compile time, so replay kernels run without per-op access checks.
// Compile once (it is content-addressed by the coverage layer), replay
// per batch.
type CompiledStream struct {
	size  int
	width int
	ports int
	ops   []UOp
}

// NewCompiledStream validates ops against the geometry and returns the
// compiled program. Besides bounds, it checks the stream against the
// fault-free machine: a word array that starts at zero, where every
// read's Data must equal the last write to its address. Replay skips
// reads of words no batch fault touches, so this check, not the
// replayed good-machine lane, is what proves those reads expect the
// fault-free value. The op slice is copied: a CompiledStream never
// aliases caller memory, so cached streams are safe to share across
// grading workers.
func NewCompiledStream(size, width, ports int, ops []UOp) (*CompiledStream, error) {
	if size <= 0 || width < 1 || width > 64 || ports <= 0 {
		return nil, fmt.Errorf("faults: bad geometry %dx%d, %d ports", size, width, ports)
	}
	var wordMask uint64 = ^uint64(0)
	if width < 64 {
		wordMask = uint64(1)<<uint(width) - 1
	}
	good := make([]uint64, size)
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case UOpPause:
			continue
		case UOpWrite, UOpRead:
		default:
			return nil, fmt.Errorf("faults: µop %d has unknown opcode %d", i, op.Kind)
		}
		if int(op.Port) >= ports {
			return nil, fmt.Errorf("faults: µop %d port %d out of [0,%d)", i, op.Port, ports)
		}
		if op.Addr < 0 || int(op.Addr) >= size {
			return nil, fmt.Errorf("faults: µop %d address %d out of [0,%d)", i, op.Addr, size)
		}
		if int(op.Cell) != int(op.Addr)*width {
			return nil, fmt.Errorf("faults: µop %d cell %d != addr %d × width %d", i, op.Cell, op.Addr, width)
		}
		if op.Data&^wordMask != 0 {
			return nil, fmt.Errorf("faults: µop %d data %#x exceeds %d-bit word", i, op.Data, width)
		}
		if op.Kind == UOpWrite {
			good[op.Addr] = op.Data
		} else if op.Data != good[op.Addr] {
			return nil, fmt.Errorf("faults: µop %d expects %#x at port %d addr %d, fault-free memory holds %#x",
				i, op.Data, op.Port, op.Addr, good[op.Addr])
		}
	}
	cs := &CompiledStream{size: size, width: width, ports: ports, ops: make([]UOp, len(ops))}
	copy(cs.ops, ops)
	return cs, nil
}

// Len returns the µop count.
func (cs *CompiledStream) Len() int { return len(cs.ops) }

// Geometry returns the memory geometry the stream was compiled for.
func (cs *CompiledStream) Geometry() (size, width, ports int) {
	return cs.size, cs.width, cs.ports
}

// Replay runs the compiled stream through every lane at once and
// accumulates per-plane fail masks into fail: bit b of fail[p] is set
// iff logical lane p*64+b returned a wrong value on some read. It
// dispatches to the cheapest kernel the batch's capabilities admit and
// returns which one ran; a batch mixing capabilities no kernel covers
// is an error.
//
// Replay early-exits once every occupied fault lane has failed (the
// verdict can no longer change), and errors out if the good machine
// (lane 0) ever misreads on a replayed read.
//
// Every kernel replays only the accesses to the batch's active words
// (those some batch fault names; pauses always run). The pruning is
// exact: no fault of the batch can change an inactive word in any
// lane, so a write to one would set every lane to the good value and a
// read of one returns the good value in every lane, which
// NewCompiledStream has proved equal to the read's Data. Two pieces of
// state cross words and are carried explicitly: the SOF sense latch
// (replayLatch reseeds a port's latch from the last skipped read on
// that port) and the first CFst application (replayCoupling applies the
// seeded entries at a skipped write, as the write would have).
//
//mbist:hotpath
func (m *LaneInjected) Replay(cs *CompiledStream, fail *[MaxPlanes]uint64) (Kernel, error) {
	if cs.size != m.size || cs.width != m.width || cs.ports != m.ports {
		return 0, fmt.Errorf("faults: stream compiled for %dx%d/%d replayed on %dx%d/%d",
			cs.size, cs.width, cs.ports, m.size, m.width, m.ports)
	}
	kern, ok := m.Kernel()
	if !ok {
		return 0, fmt.Errorf("faults: batch capabilities %05b mix mechanism classes no replay kernel covers", m.caps)
	}
	*fail = [MaxPlanes]uint64{}
	var occ [MaxPlanes]uint64
	for p := 0; p < m.np; p++ {
		occ[p] = m.FaultMaskPlane(p)
	}
	var err error
	switch kern {
	case KernelMask:
		err = m.replayMask(cs.ops, fail, &occ)
	case KernelLatch:
		err = m.replayLatch(cs.ops, fail, &occ)
	case KernelCoupling:
		err = m.replayCoupling(cs.ops, fail, &occ)
	default: // KernelAF
		err = m.replayAF(cs.ops, fail, &occ)
	}
	return kern, err
}

// goodLaneErr reports a good-machine misread: the stream's expected
// values do not match this memory's fault-free behaviour.
func goodLaneErr(op *UOp) error {
	return fmt.Errorf("faults: good machine failed reading port %d addr %d", op.Port, op.Addr)
}

// replayDone reports whether every occupied lane has already failed.
//
//mbist:hotpath
func replayDone(fail, occ *[MaxPlanes]uint64, np int) bool {
	for p := 0; p < np; p++ {
		if fail[p]&occ[p] != occ[p] {
			return false
		}
	}
	return true
}

// replayMask is the pure-mask kernel: writes apply the write-path mask
// stripe, reads apply the SA/IRF read masks and compare. No decoder
// redirects, no triggers, no dirty tracking, no latch or counter
// state exist in the batch, so none are maintained.
//
//mbist:hotpath
func (m *LaneInjected) replayMask(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width, planes := m.np, m.width, m.planes
	wb, rb := m.wmask.byPort, m.rmask.byPort
	active := m.active
	for oi := range ops {
		op := &ops[oi]
		if op.Kind != UOpPause && !wordActive(active, op.Addr) {
			continue
		}
		switch op.Kind {
		case UOpWrite:
			s := int(op.Cell) * np
			var wp []uint64
			if wb != nil {
				wp = wb[op.Port]
			}
			if wp == nil {
				for bit := 0; bit < width; bit++ {
					v := -(op.Data >> uint(bit) & 1)
					for p := 0; p < np; p++ {
						planes[s] = v
						s++
					}
				}
				continue
			}
			for bit := 0; bit < width; bit++ {
				v := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					old := planes[s]
					o := s * wStride
					eff := (v &^ wp[o+wSA0]) | wp[o+wSA1]
					eff &^= wp[o+wTFUp] &^ old
					eff |= wp[o+wTFDown] & old
					eff |= wp[o+wWDF0] &^ old &^ v
					eff &^= wp[o+wWDF1] & old & v
					planes[s] = eff
					s++
				}
			}
		case UOpRead:
			s := int(op.Cell) * np
			var rp []uint64
			if rb != nil {
				rp = rb[op.Port]
			}
			for bit := 0; bit < width; bit++ {
				exp := -(op.Data >> uint(bit) & 1)
				if rp == nil {
					for p := 0; p < np; p++ {
						fail[p] |= planes[s] ^ exp
						s++
					}
					continue
				}
				for p := 0; p < np; p++ {
					raw := planes[s]
					o := s * rStride
					v := (raw &^ rp[o+rSA0]) | rp[o+rSA1]
					v |= rp[o+rIRF0] &^ raw
					v &^= rp[o+rIRF1] & raw
					fail[p] |= v ^ exp
					s++
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		default: // UOpPause
			for _, e := range m.drf {
				i := e.cell*np + e.plane
				if e.value {
					planes[i] |= e.lane
				} else {
					planes[i] &^= e.lane
				}
			}
		}
	}
	return nil
}

// replayLatch extends replayMask with read-path state: RDF
// consecutive-read counters, DRDF destructive flips and SOF sense
// latches. Still no decoder or coupling machinery.
//
//mbist:hotpath
func (m *LaneInjected) replayLatch(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width, planes := m.np, m.width, m.planes
	wb, rb := m.wmask.byPort, m.rmask.byPort
	active, seed := m.active, m.latchSeed
	for p := range seed {
		seed[p] = -1
	}
	for oi := range ops {
		op := &ops[oi]
		if op.Kind != UOpPause && !wordActive(active, op.Addr) {
			if op.Kind == UOpRead {
				// Every lane would sense the good value and latch it.
				seed[op.Port] = int32(oi)
			}
			continue
		}
		switch op.Kind {
		case UOpWrite:
			cell0 := int(op.Cell)
			s := cell0 * np
			var wp []uint64
			if wb != nil {
				wp = wb[op.Port]
			}
			for bit := 0; bit < width; bit++ {
				m.consecReads[cell0+bit] = 0
				v := -(op.Data >> uint(bit) & 1)
				if wp == nil {
					for p := 0; p < np; p++ {
						planes[s] = v
						s++
					}
					continue
				}
				for p := 0; p < np; p++ {
					old := planes[s]
					o := s * wStride
					eff := (v &^ wp[o+wSA0]) | wp[o+wSA1]
					eff &^= wp[o+wTFUp] &^ old
					eff |= wp[o+wTFDown] & old
					eff |= wp[o+wWDF0] &^ old &^ v
					eff &^= wp[o+wWDF1] & old & v
					planes[s] = eff
					s++
				}
			}
		case UOpRead:
			cell0 := int(op.Cell)
			s := cell0 * np
			var rp []uint64
			if rb != nil {
				rp = rb[op.Port]
			}
			sl := m.senseLatch[op.Port]
			if si := seed[op.Port]; si >= 0 {
				seed[op.Port] = -1
				data, li := ops[si].Data, 0
				for bit := 0; bit < width; bit++ {
					v := -(data >> uint(bit) & 1)
					for p := 0; p < np; p++ {
						sl[li] = v
						li++
					}
				}
			}
			li := 0
			for bit := 0; bit < width; bit++ {
				cell := cell0 + bit
				m.consecReads[cell]++
				decayed := m.consecReads[cell] >= 3
				exp := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					raw := planes[s]
					v := raw
					var sof uint64
					if rp != nil {
						o := s * rStride
						v = (raw &^ rp[o+rSA0]) | rp[o+rSA1]
						if decayed {
							v = (v &^ rp[o+rRDF0]) | rp[o+rRDF1]
						}
						v |= rp[o+rIRF0] &^ raw
						v &^= rp[o+rIRF1] & raw
						set := rp[o+rDRDF0] &^ raw
						clr := rp[o+rDRDF1] & raw
						if set|clr != 0 {
							planes[s] = (raw | set) &^ clr
						}
						sof = rp[o+rSOF]
					}
					latch := sl[li]
					fail[p] |= ((v &^ sof) | (latch & sof)) ^ exp
					sl[li] = (latch & sof) | (v &^ sof)
					s++
					li++
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		default: // UOpPause
			for _, e := range m.drf {
				i := e.cell*np + e.plane
				if e.value {
					planes[i] |= e.lane
				} else {
					planes[i] &^= e.lane
				}
			}
		}
	}
	return nil
}

// replayCoupling extends replayMask with write-transition triggers
// (CFin/CFid) and CFst dirty tracking + re-application. Reads stay on
// the mask fast path: coupling batches carry no read-path state.
//
//mbist:hotpath
func (m *LaneInjected) replayCoupling(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width, planes := m.np, m.width, m.planes
	wb, rb := m.wmask.byPort, m.rmask.byPort
	hasCFst := m.hasCFst
	active := m.active
	for oi := range ops {
		op := &ops[oi]
		if op.Kind != UOpPause && !wordActive(active, op.Addr) {
			if op.Kind == UOpWrite && len(m.dirtyList) != 0 {
				// Only the seeded first CFst application can be
				// pending here; the skipped write would have run it.
				m.applyStateCFs()
			}
			continue
		}
		switch op.Kind {
		case UOpWrite:
			cell0 := int(op.Cell)
			s := cell0 * np
			var wp []uint64
			if wb != nil {
				wp = wb[op.Port]
			}
			for bit := 0; bit < width; bit++ {
				cell := cell0 + bit
				v := -(op.Data >> uint(bit) & 1)
				trig := m.cfTrig[cell]
				for p := 0; p < np; p++ {
					old := planes[s]
					eff := v
					if wp != nil {
						o := s * wStride
						eff = (v &^ wp[o+wSA0]) | wp[o+wSA1]
						eff &^= wp[o+wTFUp] &^ old
						eff |= wp[o+wTFDown] & old
						eff |= wp[o+wWDF0] &^ old &^ v
						eff &^= wp[o+wWDF1] & old & v
					}
					planes[s] = eff
					if changed := old ^ eff; changed != 0 {
						if hasCFst {
							m.markDirty(cell)
						}
						if len(trig) > 0 {
							rose := changed & eff
							fell := changed & old
							for ei := range trig {
								e := &trig[ei]
								if e.plane != p {
									continue
								}
								var fire uint64
								if e.aggVal {
									fire = rose & e.lane
								} else {
									fire = fell & e.lane
								}
								if fire == 0 {
									continue
								}
								vi := e.victim*np + p
								if e.kind == CFin {
									planes[vi] ^= fire
								} else if e.value {
									planes[vi] |= fire
								} else {
									planes[vi] &^= fire
								}
								if hasCFst {
									m.markDirty(e.victim)
								}
							}
						}
					}
					s++
				}
			}
			m.applyStateCFs()
		case UOpRead:
			s := int(op.Cell) * np
			var rp []uint64
			if rb != nil {
				rp = rb[op.Port]
			}
			for bit := 0; bit < width; bit++ {
				exp := -(op.Data >> uint(bit) & 1)
				if rp == nil {
					for p := 0; p < np; p++ {
						fail[p] |= planes[s] ^ exp
						s++
					}
					continue
				}
				for p := 0; p < np; p++ {
					raw := planes[s]
					o := s * rStride
					v := (raw &^ rp[o+rSA0]) | rp[o+rSA1]
					v |= rp[o+rIRF0] &^ raw
					v &^= rp[o+rIRF1] & raw
					fail[p] |= v ^ exp
					s++
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		default: // UOpPause
			for _, e := range m.drf {
				i := e.cell*np + e.plane
				if e.value {
					planes[i] |= e.lane
				} else {
					planes[i] &^= e.lane
				}
				if hasCFst {
					m.markDirty(e.cell)
				}
			}
			m.applyStateCFs()
		}
	}
	return nil
}

// replayAF is the decoder-fault-only kernel: accesses apply AFNone
// drops and AFMap/AFMulti redirections over raw cells, with no mask,
// trigger, latch or counter machinery (an AF-only batch has none).
//
//mbist:hotpath
func (m *LaneInjected) replayAF(ops []UOp, fail, occ *[MaxPlanes]uint64) error {
	np, width, planes := m.np, m.width, m.planes
	rv := m.readVals
	active := m.active
	for oi := range ops {
		op := &ops[oi]
		if op.Kind != UOpPause && !wordActive(active, op.Addr) {
			continue
		}
		switch op.Kind {
		case UOpWrite:
			port, addr := int(op.Port), int(op.Addr)
			redir := m.afRedir[addr]
			m.defaultDecode(port, addr, redir)
			s := int(op.Cell) * np
			for bit := 0; bit < width; bit++ {
				v := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					lm := m.defLanes[p]
					planes[s] = (planes[s] &^ lm) | (v & lm)
					s++
				}
				for _, e := range redir {
					if !e.appliesTo(port) {
						continue
					}
					i := (e.aggAddr*width+bit)*np + e.plane
					planes[i] = (planes[i] &^ e.lane) | (v & e.lane)
				}
			}
		case UOpRead:
			port, addr := int(op.Port), int(op.Addr)
			redir := m.afRedir[addr]
			m.defaultDecode(port, addr, redir)
			s := int(op.Cell) * np
			for bit := 0; bit < width; bit++ {
				exp := -(op.Data >> uint(bit) & 1)
				for p := 0; p < np; p++ {
					rv[p] = planes[s] &^ m.afNone.at(port, addr*np+p)
					s++
				}
				for _, e := range redir {
					if !e.appliesTo(port) {
						continue
					}
					av := planes[(e.aggAddr*width+bit)*np+e.plane]
					if e.multi {
						rv[e.plane] &^= e.lane &^ av
					} else {
						rv[e.plane] = (rv[e.plane] &^ e.lane) | (av & e.lane)
					}
				}
				for p := 0; p < np; p++ {
					fail[p] |= rv[p] ^ exp
				}
			}
			if fail[0]&1 != 0 {
				return goodLaneErr(op)
			}
			if replayDone(fail, occ, np) {
				return nil
			}
		}
	}
	return nil
}
