package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"scc/internal/core"
	"scc/internal/gcmc"
	"scc/internal/mesh"
	"scc/internal/metrics"
	"scc/internal/rcce"
	"scc/internal/rckmpi"
	"scc/internal/scc"
	"scc/internal/simtime"
)

// Host time is the process's CPU time (user + system, from getrusage),
// not the wall clock: on a shared host the wall clock also counts the
// time the machine ran other tenants, which made wall-clock runs differ
// by up to 30%. The engine runs on one P, so CPU time is the wall time
// of an unshared machine.
func cpuNow() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return ru
}

// opRecord is one op as rank 0 saw it.
type opRecord struct {
	kind string
	// host is the host CPU time between the barrier exits (for gcmc48,
	// the collective-call returns) that bound the op on rank 0.
	host time.Duration
	// virt is the simulated latency on rank 0: barrier exit to the
	// op's return (gcmc48: previous call return to this call return).
	virt simtime.Duration
	// call is the simulated duration of the collective call itself;
	// it equals virt except on gcmc48, where virt includes compute.
	call simtime.Duration
	// events counts engine events over the host interval.
	events uint64
	// pick is the algorithm the Ctx's selector resolves for the op
	// ("" for ops without a selector).
	pick string
}

// mark is the state of every layer at one instant of a session.
type mark struct {
	at                 time.Time
	cpu                time.Duration
	handoffs, fastpath uint64
	net                mesh.Stats
	mem                runtime.MemStats
	reg                *metrics.Snapshot
}

// session runs one workload on one fresh chip: an untimed warm-up pass,
// then, when timed, whole passes until the run time is used up.
type session struct {
	w    *workload
	base uint64 // input-value seed

	timed  bool
	dur    time.Duration
	minOps int // keep running passes until this many timed ops
	traced bool
	// speed, when set, runs a slice of the reference workload on rank 0
	// before every op.
	speed *speedRing
	// onTimed runs on rank 0 at the start (true) and end (false) of the
	// timed phase, before the start mark and after the end mark.
	onTimed func(start bool)

	chip *scc.Chip
	comm *rcce.Comm
	reg  *metrics.Registry

	// Results, written on rank 0 (the engine runs one process at a
	// time, so no locking is needed). begun and setup are CPU times.
	begun      time.Duration
	setup      time.Duration
	passes     [][]opRecord // passes[0] is the warm-up pass
	appResults []gcmc.Result
	bad        map[[2]int]bool // (pass, op) pairs that failed on some rank
	start, end mark            // the timed phase
	timedOp    int             // ops in the finished timed passes
	stop       bool
	// peakRSS is the process's maximum RSS, in KB, at the end of the
	// first timed pass: the heap keeps growing over later passes, so
	// the maximum at the end of the run depends on how many passes the
	// host had time for.
	peakRSS int64
	// slices[i] are the reference slices run in pass i; bounds[k] is the
	// CPU time at the boundary after pass k (bounds[0]: after the
	// warm-up pass).
	slices [][]time.Duration
	bounds []time.Duration

	// Rank 0's op interval in progress.
	open   bool
	cur    opRecord
	cpu0   time.Duration
	v0     simtime.Time
	ev0    uint64
	callV0 simtime.Time // gcmc48: when the current call began

	// Result checking shared by the ranks.
	refs  reference
	slots map[int]*appSlot
}

func newSession(w *workload, seed int64, begun time.Duration) *session {
	return &session{
		w:     w,
		base:  uint64(seed)*0xD6E8FEB86659FD93 + 1,
		begun: begun,
		bad:   map[[2]int]bool{},
		slots: map[int]*appSlot{},
	}
}

// run builds the chip, runs the session and reports a failed run
// (panic or deadlock) as an error.
func (s *session) run() error {
	s.chip = scc.New(s.w.model)
	if s.traced {
		s.reg = metrics.New(s.chip.NumCores())
		s.chip.SetMetrics(s.reg)
	}
	s.comm = rcce.NewComm(s.chip)
	s.chip.Launch(s.rankMain)
	if err := s.chip.Run(); err != nil {
		return fmt.Errorf("%s: %w", s.w.name, err)
	}
	return nil
}

// rankMain is the SPMD body every core runs.
func (s *session) rankMain(c *scc.Core) {
	ue := s.comm.UE(c.ID)
	if s.w.app != nil {
		s.appMain(c, ue)
		return
	}
	p := ue.NumUEs()
	ctxs := make([]*core.Ctx, len(s.w.stacks))
	libs := make([]*rckmpi.Lib, len(s.w.stacks))
	for i, st := range s.w.stacks {
		if st.rckmpi {
			libs[i] = rckmpi.New(ue)
		} else {
			ctxs[i] = core.NewCtx(ue, st.cfg)
		}
	}
	m := s.w.maxElems(p)
	src, dst := c.AllocF64(m), c.AllocF64(m)
	buf := make([]float64, m)
	for pass := 0; s.boundary(c, ue, pass); pass++ {
		ops := s.w.ops
		if pass == 0 {
			ops = s.w.warm
		}
		for i, o := range ops {
			k := pass<<20 | i
			if v := fillInput(buf, s.base, o, k, c.ID, p); len(v) > 0 {
				c.WriteF64s(src, v)
			}
			ue.Barrier()
			x := ctxs[o.stack]
			if c.ID == 0 {
				s.closeOp(pass, cpuNow())
				s.beginOp(c, o.kind, pickOf(x, o))
			}
			blocks, err := issue(x, libs[o.stack], o, p, src, dst)
			if c.ID == 0 {
				v := c.Now() - s.v0
				s.cur.virt, s.cur.call = v, v
			}
			if err != nil || !checkOp(c, &s.refs, s.base, o, k, p, src, dst, blocks) {
				s.bad[[2]int{pass, i}] = true
			}
		}
	}
	for _, x := range ctxs {
		if x != nil {
			x.Release()
		}
	}
}

// issue runs op o on the stack's Ctx (or RCKMPI library when x is nil)
// and returns the partition a ReduceScatter used.
func issue(x *core.Ctx, mp *rckmpi.Lib, o opSpec, p int, src, dst scc.Addr) ([]core.Block, error) {
	n := o.n
	if x == nil {
		switch o.kind {
		case opAllgather:
			mp.Allgather(src, n, dst)
		case opAlltoall:
			mp.Alltoall(src, dst, n)
		case opReduceScatter:
			mp.ReduceScatter(src, dst, n, rckmpi.Op(core.Sum))
			return core.Partition(n, p), nil
		case opBroadcast:
			mp.Bcast(0, src, n)
		case opReduce:
			mp.Reduce(0, src, dst, n, rckmpi.Op(core.Sum))
		case opAllreduce:
			mp.Allreduce(src, dst, n, rckmpi.Op(core.Sum))
		case opBarrier:
			mp.UE().Barrier()
		}
		return nil, nil
	}
	switch o.kind {
	case opAllgather:
		return nil, x.Allgather(src, n, dst)
	case opAlltoall:
		return nil, x.Alltoall(src, dst, n)
	case opReduceScatter:
		return x.ReduceScatter(src, dst, n, core.Sum)
	case opBroadcast:
		return nil, x.Broadcast(0, src, n)
	case opReduce:
		return nil, x.Reduce(0, src, dst, n, core.Sum)
	case opAllreduce:
		return nil, x.Allreduce(src, dst, n, core.Sum)
	case opBarrier:
		return nil, x.Barrier()
	}
	return nil, fmt.Errorf("unknown op %q", o.kind)
}

// pickOf resolves the algorithm x's selector picks for op o, with the
// dispatcher's fallback to the paper heuristic for an unknown or
// inapplicable pick. It only reads state, so it costs no virtual time.
func pickOf(x *core.Ctx, o opSpec) string {
	if x == nil {
		return ""
	}
	k, err := core.ParseOpKind(o.kind)
	if err != nil {
		return "" // no selector for this op
	}
	sel := x.Config().Selector
	if sel == nil {
		sel = core.PaperHeuristic()
	}
	if a := core.LookupAlgorithm(k, sel.Select(x, k, o.n)); a != nil && a.Applicable(x, o.n) {
		return a.Name()
	}
	return core.PaperHeuristic().Select(x, k, o.n)
}

// boundary separates passes: rank 0 closes the previous pass and
// decides whether to stop, and a second barrier publishes the decision
// to every rank. It returns whether to run pass number pass.
func (s *session) boundary(c *scc.Core, ue *rcce.UE, pass int) bool {
	ue.Barrier()
	if c.ID == 0 {
		s.passBoundary(pass)
	}
	ue.Barrier()
	return !s.stop
}

// passBoundary runs on rank 0 between passes.
func (s *session) passBoundary(pass int) {
	cpu := cpuNow()
	if s.w.app == nil {
		s.closeOp(pass-1, cpu)
	}
	s.open = false
	if pass >= 1 {
		s.bounds = append(s.bounds, cpu)
	}
	switch {
	case pass == 1:
		s.setup = cpu - s.begun
		if !s.timed {
			s.stop = true
			return
		}
		if s.onTimed != nil {
			s.onTimed(true)
		}
		s.start = s.mark()
	case pass >= 2:
		if pass == 2 {
			s.peakRSS = rusage().Maxrss
		}
		// Stop at the boundary nearest the run time: when another pass
		// would end more than half a pass past it.
		s.timedOp += len(s.passes[pass-1])
		elapsed := time.Since(s.start.at)
		perPass := elapsed / time.Duration(pass-1)
		if s.timedOp < s.minOps || elapsed+perPass/2 < s.dur {
			break
		}
		s.end = s.mark()
		if s.onTimed != nil {
			s.onTimed(false)
		}
		s.stop = true
		return
	}
	s.passes = append(s.passes, nil)
}

// mark captures every layer's counters.
func (s *session) mark() mark {
	var m mark
	m.handoffs, m.fastpath = s.chip.Engine.SchedStats()
	m.net = s.chip.Net.Stats()
	runtime.ReadMemStats(&m.mem)
	if s.reg != nil {
		m.reg = s.reg.Snapshot()
	}
	m.at, m.cpu = time.Now(), cpuNow()
	return m
}

// beginOp opens an op interval on rank 0 at the current instant,
// after the reference slice when there is one.
func (s *session) beginOp(c *scc.Core, kind, pick string) {
	if s.speed != nil {
		pass := len(s.passes) - 1
		for len(s.slices) <= pass {
			s.slices = append(s.slices, nil)
		}
		s.slices[pass] = append(s.slices[pass], s.speed.slice())
	}
	s.open = true
	s.cur = opRecord{kind: kind, pick: pick}
	h, f := s.chip.Engine.SchedStats()
	s.ev0 = h + f
	s.v0 = c.Now()
	s.cpu0 = cpuNow()
}

// closeOp ends the open op interval at CPU time now and files it under
// pass.
func (s *session) closeOp(pass int, now time.Duration) {
	if !s.open {
		return
	}
	s.open = false
	h, f := s.chip.Engine.SchedStats()
	s.cur.host = now - s.cpu0
	s.cur.events = h + f - s.ev0
	s.passes[pass] = append(s.passes[pass], s.cur)
}

// slicesOf returns the reference slices run in pass i.
func (s *session) slicesOf(i int) []time.Duration {
	if i >= len(s.slices) {
		return nil
	}
	return s.slices[i]
}

// timedPasses returns the passes after the warm-up pass.
func (s *session) timedPasses() [][]opRecord {
	if len(s.passes) < 2 {
		return nil
	}
	return s.passes[1:]
}
