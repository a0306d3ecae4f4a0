package main

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/sweep"
)

// library is the eight-algorithm march library every sweep grades.
var library = strings.Split(sweep.DefaultAlgs, ",")

// archs are the four controller architectures, by sweep.Spec name.
var archs = []string{"reference", "microcode", "fsm", "hardwired"}

// Workload kinds.
const (
	kindSweep   = "sweep"
	kindService = "service"
)

// workload is one seeded input set the benchmark runs.
type workload struct {
	name string
	kind string
	// legs are a sweep workload's library sweeps, in the order each
	// sweep iteration runs them.
	legs []sweepLeg
}

// sweepLeg is one library sweep of a sweep iteration: the library on
// one architecture at one memory geometry.
type sweepLeg struct {
	Name string `json:"name"`
	Arch string `json:"arch"`
	Geom [3]int `json:"geom"`
}

func (l sweepLeg) geometry() geometry { return geometry{l.Geom[0], l.Geom[1], l.Geom[2]} }

// workloads are documented, with the reasons for each, in README.md.
var workloads = []workload{
	// The library on microcode, where the lane-replay kernels take
	// nearly all the CPU, then on prog-FSM, where March C++ and March B
	// fall back to the scalar oracle.
	{name: "arch-sweep", kind: kindSweep, legs: []sweepLeg{
		{Name: "lane", Arch: "microcode", Geom: [3]int{512, 4, 1}},
		{Name: "fsm", Arch: "fsm", Geom: [3]int{256, 2, 1}},
	}},
	// Closed-loop mbistd clients; the journal passes its compaction
	// threshold.
	{name: "service-mix", kind: kindService},
}

func lookupWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// subSeed derives the seed of the i-th sweep or round of a run.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// algOrder is the seeded grading order of the library.
func algOrder(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	order := append([]string(nil), library...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// Service-mix geometries: small jobs grade one algorithm at 16x1, full
// jobs the whole library at 64x2 on microcode.
var (
	smallGeom = geometry{16, 1, 1}
	fullGeom  = geometry{64, 2, 1}
)

const fullArch = "microcode"

// Operation kinds of the service mix.
const (
	opSmall    = "small"
	opFull     = "full"
	opResubmit = "resubmit"
)

// mixCounts sizes one service round, per client.
type mixCounts struct{ small, full, resubmit int }

// serviceRound is sized so the job store's live view passes the
// journal's 1 MiB compaction threshold before the round ends (it ends
// near 1.2 MB): the last ~180 jobs run where every terminal transition
// rewrites the journal.
var serviceRound = mixCounts{small: 620, full: 20, resubmit: 40}

// serviceProbe is the small fixed round the sweeps' traced runs use to
// measure the serve and resilience layers.
var serviceProbe = mixCounts{small: 40, full: 4, resubmit: 8}

// op is one client operation of the service mix.
type op struct {
	Kind string
	// Key is the idempotency key. A resubmit reuses the key of the
	// earlier operation Target of the same client.
	Key    string
	Target int
	Arch   string
	Algs   []string
	Geom   geometry
}

// spec is the grade request the operation submits.
func (o op) spec() sweep.Spec {
	return sweep.Spec{
		Algs: strings.Join(o.Algs, ","), Arch: o.Arch,
		Size: o.Geom.size, Width: o.Geom.width, Ports: o.Geom.ports,
	}
}

// serviceMix generates round's operations for each client from seed.
// Each client gets its own sequence, so a resubmit always names a job
// its own client has already seen finish and the mix does not depend
// on how the clients interleave.
func serviceMix(seed int64, round, clients int, n mixCounts) [][]op {
	rng := rand.New(rand.NewSource(subSeed(seed, round)))
	mix := make([][]op, clients)
	for c := range mix {
		kinds := make([]string, 0, n.small+n.full+n.resubmit)
		for range n.small {
			kinds = append(kinds, opSmall)
		}
		for range n.full {
			kinds = append(kinds, opFull)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		// Resubmits go after a random earlier operation; the first
		// operation is never one.
		for range n.resubmit {
			at := 1 + rng.Intn(len(kinds))
			kinds = append(kinds[:at], append([]string{opResubmit}, kinds[at:]...)...)
		}
		ops := make([]op, len(kinds))
		var jobs []int
		for i, k := range kinds {
			o := op{Kind: k, Key: fmt.Sprintf("s%d-r%d-c%d-%d", seed, round, c, i)}
			switch k {
			case opSmall:
				o.Arch = archs[rng.Intn(len(archs))]
				o.Algs = []string{library[rng.Intn(len(library))]}
				o.Geom = smallGeom
			case opFull:
				o.Arch = fullArch
				o.Algs = algOrder(rng.Int63())
				o.Geom = fullGeom
			case opResubmit:
				t := jobs[rng.Intn(len(jobs))]
				o = ops[t]
				o.Kind = opResubmit
				o.Target = t
			}
			if k != opResubmit {
				jobs = append(jobs, i)
			}
			ops[i] = o
		}
		mix[c] = ops
	}
	return mix
}
