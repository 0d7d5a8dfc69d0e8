package main

import (
	"math"

	"scc/internal/core"
	"scc/internal/gcmc"
	"scc/internal/rcce"
	"scc/internal/scc"
)

// appSlot gathers every rank's input to one collective call of the GCMC
// app, so each rank can check its result against the sequential
// reference. The slot is dropped once every rank has checked.
type appSlot struct {
	sum     []float64 // Allreduce: inputs summed in arrival order; Broadcast: the root's buffer
	mag     []float64 // Allreduce: summed magnitudes, the error scale
	arrived int
	checked int
}

// appComm is the benchmark's gcmc.Collectives: it forwards each call to
// the balanced-stack Ctx, records it as one op on rank 0 and checks its
// result on every rank.
type appComm struct {
	s    *session
	c    *scc.Core
	x    *core.Ctx
	p    int
	pass int
	call int
}

// appMain runs GCMC passes on one core.
func (s *session) appMain(c *scc.Core, ue *rcce.UE) {
	x := core.NewCtx(ue, s.w.stacks[0].cfg)
	a := &appComm{s: s, c: c, x: x, p: ue.NumUEs()}
	for pass := 0; s.boundary(c, ue, pass); pass++ {
		a.pass, a.call = pass, 0
		if c.ID == 0 {
			s.beginOp(c, "", "")
		}
		// Each pass follows its own GCMC trajectory, so the host
		// metrics average over several move sequences.
		params := *s.w.app
		params.Seed += int64(pass) * gcmcSeedStride
		res := gcmc.New(c, a, a.p, params).Run()
		if c.ID == 0 {
			s.appResults = append(s.appResults, res)
		}
	}
	x.Release()
}

// slot returns the shared slot of the current call.
func (a *appComm) slot() *appSlot {
	key := a.pass<<20 | a.call
	sl := a.s.slots[key]
	if sl == nil {
		sl = &appSlot{}
		a.s.slots[key] = sl
	}
	return sl
}

// enter adds this rank's n-element input at addr to the slot (n = 0:
// none) before the call.
func (a *appComm) enter(sl *appSlot, addr scc.Addr, n int) {
	if n > 0 && sl.sum == nil {
		sl.sum, sl.mag = make([]float64, n), make([]float64, n)
	}
	for j := 0; j < n; j++ {
		x := privF64(a.c, addr, j)
		sl.sum[j] += x
		sl.mag[j] += math.Abs(x)
	}
	sl.arrived++
	if a.c.ID == 0 {
		a.s.callV0 = a.c.Now()
	}
}

// leave closes the op on rank 0, records a failure and retires the slot.
func (a *appComm) leave(sl *appSlot, kind string, n int, ok bool) {
	if a.c.ID == 0 {
		now := cpuNow()
		s := a.s
		s.cur.kind = kind
		s.cur.pick = pickOf(a.x, opSpec{kind: kind, n: n})
		vnow := a.c.Now()
		s.cur.virt = vnow - s.v0
		s.cur.call = vnow - s.callV0
		s.closeOp(a.pass, now)
		s.beginOp(a.c, "", "")
	}
	if !ok {
		a.s.bad[[2]int{a.pass, a.call}] = true
	}
	sl.checked++
	if sl.checked == a.p {
		delete(a.s.slots, a.pass<<20|a.call)
	}
	a.call++
}

// Allreduce sums n doubles across all cores and checks the sum against
// the sequential reference within the reordering error of a sum.
func (a *appComm) Allreduce(src, dst scc.Addr, n int) {
	sl := a.slot()
	a.enter(sl, src, n)
	err := a.x.Allreduce(src, dst, n, core.Sum)
	ok := err == nil && sl.arrived == a.p
	for j := 0; ok && j < n; j++ {
		ok = math.Abs(privF64(a.c, dst, j)-sl.sum[j]) <= 1e-12*sl.mag[j]
	}
	a.leave(sl, opAllreduce, n, ok)
}

// Broadcast distributes n doubles from root and checks every copy is
// the root's buffer bit for bit.
func (a *appComm) Broadcast(root int, addr scc.Addr, n int) {
	sl := a.slot()
	if a.c.ID == root {
		a.enter(sl, addr, n)
	} else {
		a.enter(sl, addr, 0)
	}
	err := a.x.Broadcast(root, addr, n)
	want := sl.sum
	ok := err == nil && len(want) == n
	for j := 0; ok && j < n; j++ {
		ok = privF64(a.c, addr, j) == want[j]
	}
	a.leave(sl, opBroadcast, n, ok)
}

// Barrier synchronizes all cores and checks every rank arrived.
func (a *appComm) Barrier() {
	sl := a.slot()
	a.enter(sl, 0, 0)
	err := a.x.Barrier()
	a.leave(sl, opBarrier, 0, err == nil && sl.arrived == a.p)
}
