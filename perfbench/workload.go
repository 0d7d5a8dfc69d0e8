package main

import (
	"fmt"
	"math"
	"math/rand"

	"scc/internal/core"
	"scc/internal/gcmc"
	"scc/internal/timing"
)

// The collectives the benchmark issues. The first six are the Fig. 9
// panels; barrier is the fourth op of the tuned512 mix.
const (
	opAllgather     = "allgather"
	opAlltoall      = "alltoall"
	opReduceScatter = "reducescatter"
	opBroadcast     = "broadcast"
	opReduce        = "reduce"
	opAllreduce     = "allreduce"
	opBarrier       = "barrier"
)

// allOps lists every op name, in report order.
var allOps = []string{opAllgather, opAlltoall, opReduceScatter, opBroadcast, opReduce, opAllreduce, opBarrier}

// stack is one communication stack: a core.Config, or RCKMPI.
type stack struct {
	name   string
	cfg    core.Config
	rckmpi bool
}

// opSpec is one collective call of a pass.
type opSpec struct {
	kind  string
	stack int // index into workload.stacks
	n     int // vector length in doubles (per block for allgather/alltoall)
}

// workload is everything one benchmark workload runs. A pass is either
// an op list, in order, or (when app is non-nil) one GCMC run whose
// collective calls are the ops.
type workload struct {
	name   string
	model  *timing.Model
	stacks []stack
	ops    []opSpec // one timed pass, in order
	// warm is the warm-up pass: every (collective, stack) at the top of
	// its size range (tuned512: of each table bucket), in a fixed order,
	// so each algorithm's scratch buffers reach their final size before
	// timing and the footprint does not depend on the seed.
	warm []opSpec
	app  *gcmc.Params
	// refHopNs is the reference speed of the host-speed ring, one node
	// per simulated core (see speed.go).
	refHopNs float64
}

// Reference hop times, in ns (see speed.go): a 512-node ring holds 2 MB
// of state, which no longer fits in L2.
const (
	refHop48  = 345
	refHop512 = 525
)

// The paper's measured stacks.
var (
	stRCKMPI      = stack{name: "RCKMPI", rckmpi: true}
	stBlocking    = stack{name: "blocking", cfg: core.ConfigBlocking}
	stIRCCE       = stack{name: "iRCCE", cfg: core.ConfigIRCCE}
	stLightweight = stack{name: "lightweight", cfg: core.ConfigLightweight}
	stBalanced    = stack{name: "balanced", cfg: core.ConfigBalanced}
	stMPB         = stack{name: "mpb", cfg: core.ConfigMPB}
)

// paperStacks returns the legend of the Fig. 9 panel for op: the MPB
// stack exists only for Allreduce, the balanced stack only for the
// block-partitioned collectives.
func paperStacks(op string) []stack {
	s := []stack{stRCKMPI, stBlocking, stIRCCE, stLightweight}
	switch op {
	case opReduceScatter, opBroadcast, opReduce:
		s = append(s, stBalanced)
	case opAllreduce:
		s = append(s, stBalanced, stMPB)
	}
	return s
}

var workloadNames = []string{"fig9_48", "gcmc48", "tuned512"}

// newWorkload builds the named workload for a seed. The seed picks the
// vector sizes and the op order (and, through session.base, the input
// values); for gcmc48 it is the GCMC seed.
func newWorkload(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	switch name {
	case "fig9_48":
		return fig9Workload(rng), nil
	case "gcmc48":
		return gcmcWorkload(rng, seed), nil
	case "tuned512":
		return tuned512Workload(rng), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// Sizes. The seed picks every op's size, but from a fixed multiset, so
// that the percentiles stay steady from seed to seed: a collective's
// latency jumps with n mod p (the unbalanced partition's remainder
// block) and with partial cache lines, and freely drawn sizes move the
// median by several percent.

// fig9Grid holds the base sizes of each (collective, stack) cell of
// fig9_48, multiples of 48 on the paper's 500-700-double axis; each cell
// adds fig9Offsets to them in a seeded order, so every cell runs one
// size from each quarter of remainders mod 48.
var (
	fig9Grid    = []int{528, 576, 624, 672}
	fig9Offsets = []int{0, 8, 16, 24}
)

// fig9Workload is the paper's 48-core chip running all six Fig. 9
// collectives under their paper stacks, at sizes on the 500-700-double
// axis.
func fig9Workload(rng *rand.Rand) *workload {
	w := &workload{name: "fig9_48", model: timing.Default(), refHopNs: refHop48}
	for _, op := range allOps[:6] {
		for _, st := range paperStacks(op) {
			si := w.stackIndex(st)
			w.warm = append(w.warm, opSpec{kind: op, stack: si, n: 700})
			offs := rng.Perm(len(fig9Offsets))
			for i, g := range fig9Grid {
				w.ops = append(w.ops, opSpec{kind: op, stack: si, n: g + fig9Offsets[offs[i]]})
			}
		}
	}
	return w.finish(rng)
}

// tunedStrata splits tuned512's 16-1024-double range into equal
// log-spaced strata; it spans the decision table's buckets (16, 17-64,
// 65-256, 257-1024).
const (
	tunedMin, tunedMax = 16, 1024
	tunedStrata        = 32
)

// tunedOps are the selectable collectives of tuned512, and
// tunedBarriers how many barriers a pass adds.
var tunedOps = []string{opAllreduce, opBroadcast, opReduce}

const tunedBarriers = 3

// tuned512Workload is a 16x16x2 mesh (512 cores) on the balanced stack
// under the Tuned() selector: Allreduce, Broadcast and Reduce across
// the table's buckets, plus barriers. In each stratum the three
// collectives take the sizes at 1/6, 1/2 and 5/6 of it, in a seeded
// order.
func tuned512Workload(rng *rand.Rand) *workload {
	cfg := core.ConfigBalanced
	cfg.Selector = core.Tuned()
	w := &workload{
		name:     "tuned512",
		model:    timing.Topology(16, 16, 2),
		stacks:   []stack{{name: "balanced+tuned", cfg: cfg}},
		refHopNs: refHop512,
	}
	for _, op := range tunedOps {
		for _, top := range []int{16, 64, 256, 1024} {
			w.warm = append(w.warm, opSpec{kind: op, n: top})
		}
	}
	w.warm = append(w.warm, opSpec{kind: opBarrier})
	span := math.Log(tunedMax / tunedMin)
	for i := 0; i < tunedStrata; i++ {
		for j, k := range rng.Perm(len(tunedOps)) {
			pos := (float64(i) + (2*float64(j)+1)/(2*float64(len(tunedOps)))) / tunedStrata
			n := int(math.Round(tunedMin * math.Exp(span*pos)))
			w.ops = append(w.ops, opSpec{kind: tunedOps[k], n: n})
		}
	}
	for i := 0; i < tunedBarriers; i++ {
		w.ops = append(w.ops, opSpec{kind: opBarrier})
	}
	return w.finish(rng)
}

// gcmcCycles is the GCMC move count of one gcmc48 pass, and
// gcmcSeedStride separates the GCMC seeds of successive passes.
const (
	gcmcCycles     = 20
	gcmcSeedStride = 7919
	gcmcSpread     = 8
)

// gcmcWorkload is the Fig. 10 application on 48 cores under the
// balanced stack; each collective call the app makes is one op. The
// seed also picks the initial particle count within gcmcSpread of the
// paper's 720 = 48 × 15, so runs fall on both sides of 15 particles
// per core: the most frequent op's latency is set by the fullest core,
// and with 720 alone every seed's median is that one value.
func gcmcWorkload(rng *rand.Rand, seed int64) *workload {
	p := gcmc.DefaultParams()
	p.Cycles = gcmcCycles
	p.Seed = seed
	p.NumParticles += rng.Intn(2*gcmcSpread+1) - gcmcSpread
	return &workload{
		name:     "gcmc48",
		model:    timing.Default(),
		stacks:   []stack{stBalanced},
		app:      &p,
		refHopNs: refHop48,
	}
}

// stackIndex returns st's index in w.stacks, appending it if new.
func (w *workload) stackIndex(st stack) int {
	for i, s := range w.stacks {
		if s.name == st.name {
			return i
		}
	}
	w.stacks = append(w.stacks, st)
	return len(w.stacks) - 1
}

// maxElems returns the largest private buffer, in doubles, any op
// needs on a p-core chip.
func (w *workload) maxElems(p int) int {
	m := 1
	for _, ops := range [][]opSpec{w.warm, w.ops} {
		for _, o := range ops {
			need := o.n
			if o.kind == opAllgather || o.kind == opAlltoall {
				need = o.n * p
			}
			m = max(m, need)
		}
	}
	return m
}

// finish shuffles the pass into a seeded order.
func (w *workload) finish(rng *rand.Rand) *workload {
	rng.Shuffle(len(w.ops), func(i, j int) { w.ops[i], w.ops[j] = w.ops[j], w.ops[i] })
	return w
}
