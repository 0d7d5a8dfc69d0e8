package main

import (
	"fmt"
	"strings"
	"time"

	"scc/internal/core"
	"scc/internal/ircce"
	"scc/internal/lwnb"
	"scc/internal/mesh"
	"scc/internal/rcce"
	"scc/internal/scc"
	"scc/internal/simtime"
	"scc/internal/timing"
)

// The layer probes time one layer's exported calls in isolation, on
// the paper's 48-core model. Host numbers are the median of probeReps
// repetitions; virtual numbers repeat exactly.

const probeReps = 5

// hostNs runs fn probeReps times and returns the median host CPU ns
// per unit of work, where fn returns how many units it did.
func hostNs(fn func() int) float64 {
	var xs []float64
	for i := 0; i < probeReps; i++ {
		t0 := cpuNow()
		n := fn()
		xs = append(xs, float64((cpuNow()-t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// calibSink keeps the calibration kernel's result alive.
var calibSink uint64

// calibNsPerIter times a fixed pure-CPU kernel (an xorshift-multiply
// chain), so host numbers from different machines compare by ratio.
func calibNsPerIter() float64 {
	const iters = 20_000_000
	return hostNs(func() int {
		x := uint64(88172645463325252)
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x *= 0x2545F4914F6CDD1D
		}
		calibSink += x
		return iters
	})
}

// runProbes adds every probe's metrics to r.
func runProbes(r *report) error {
	model := timing.Default()
	r.add("calib.ns_per_iter", "ns", calibNsPerIter())

	net := mesh.New(model)
	far := mesh.Coord{X: model.MeshWidth - 1, Y: model.MeshHeight - 1}
	r.add("mesh.transfer_ns", "ns", hostNs(func() int {
		const n = 200_000
		t := simtime.Time(0)
		for i := 0; i < n; i++ {
			t = net.Transfer(mesh.Coord{}, far, 32, t)
		}
		return n
	}))

	if err := probeSimtime(r); err != nil {
		return err
	}
	if err := probeSCC(r, model); err != nil {
		return err
	}
	for _, t := range []string{"rcce", "lwnb", "ircce"} {
		for _, size := range []int{32, 1024} {
			if err := probeSendRecv(r, model, t, size); err != nil {
				return err
			}
		}
	}
	return probeAlgorithms(r, model)
}

// probeSimtime times a two-proc handoff, a same-proc Sleep and process
// spawn.
func probeSimtime(r *report) error {
	var err error
	r.add("simtime.handoff_ns", "ns", hostNs(func() int {
		const per = 50_000
		e := simtime.NewEngine()
		e.Spawn("a", func(p *simtime.Proc) {
			p.Sleep(1) // interleave the two wake chains: every event is a handoff
			for i := 0; i < per; i++ {
				p.Sleep(2)
			}
		})
		e.Spawn("b", func(p *simtime.Proc) {
			for i := 0; i < per; i++ {
				p.Sleep(2)
			}
		})
		if rerr := e.Run(); rerr != nil {
			err = rerr
		}
		h, f := e.SchedStats()
		return int(h + f)
	}))
	r.add("simtime.fastpath_ns", "ns", hostNs(func() int {
		const n = 1_000_000
		e := simtime.NewEngine()
		e.Spawn("a", func(p *simtime.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1)
			}
		})
		if rerr := e.Run(); rerr != nil {
			err = rerr
		}
		return n
	}))
	r.add("simtime.spawn_ns", "ns", hostNs(func() int {
		const n = 512
		e := simtime.NewEngine()
		for i := 0; i < n; i++ {
			e.Spawn("p", func(p *simtime.Proc) { p.Sleep(1) })
		}
		if rerr := e.Run(); rerr != nil {
			err = rerr
		}
		return n
	}))
	return err
}

// onCores runs fn on the listed cores of a fresh chip.
func onCores(model *timing.Model, ids []int, fn func(c *scc.Core, comm *rcce.Comm)) error {
	chip := scc.New(model)
	comm := rcce.NewComm(chip)
	for _, id := range ids {
		chip.LaunchOne(id, func(c *scc.Core) { fn(c, comm) })
	}
	return chip.Run()
}

// probeSCC times an MPB line put, a flag round trip between two cores,
// and a private-memory cache hit and miss.
func probeSCC(r *report, model *timing.Model) error {
	var err error
	line := make([]byte, model.CacheLineBytes)
	r.add("scc.mpb_put_line_ns", "ns", hostNs(func() int {
		const n = 100_000
		err = firstErr(err, onCores(model, []int{0}, func(c *scc.Core, _ *rcce.Comm) {
			off := c.Chip().MPBBase(1)
			for i := 0; i < n; i++ {
				c.MPBWrite(off, line)
			}
		}))
		return n
	}))

	const trips = 20_000
	var virt simtime.Duration
	r.add("scc.flag_roundtrip_ns", "ns", hostNs(func() int {
		err = firstErr(err, onCores(model, []int{0, 1}, func(c *scc.Core, _ *rcce.Comm) {
			chip := c.Chip()
			mine, peer := chip.MPBBase(c.ID), chip.MPBBase(1-c.ID)
			t0 := c.Now()
			for i := 0; i < trips; i++ {
				v := byte(i%255 + 1)
				if c.ID == 0 {
					c.SetFlag(peer, v)
					c.WaitFlag(mine, v)
				} else {
					c.WaitFlag(mine, v)
					c.SetFlag(peer, v)
				}
			}
			if c.ID == 0 {
				virt = c.Now() - t0
			}
		}))
		return trips
	}))
	r.add("scc.flag_roundtrip_us", "us", virt.Micros()/trips)

	// A line re-read is an L1 hit; a stride of one line over twice the
	// L2 misses both levels on every read.
	r.add("scc.cache_hit_ns", "ns", hostNs(func() int {
		const n = 200_000
		err = firstErr(err, onCores(model, []int{0}, func(c *scc.Core, _ *rcce.Comm) {
			a := c.Alloc(model.CacheLineBytes)
			for i := 0; i < n; i++ {
				c.TouchRead(a, 8)
			}
		}))
		return n
	}))
	r.add("scc.cache_miss_ns", "ns", hostNs(func() int {
		span := 2 * model.L2Bytes
		lines := span / model.CacheLineBytes
		const rounds = 10
		err = firstErr(err, onCores(model, []int{0}, func(c *scc.Core, _ *rcce.Comm) {
			a := c.Alloc(span)
			for k := 0; k < rounds; k++ {
				for i := 0; i < lines; i++ {
					c.TouchRead(a+scc.Addr(i*model.CacheLineBytes), 8)
				}
			}
		}))
		return rounds * lines
	}))
	return err
}

// probeSendRecv times one message of size bytes from core 0 to core 1
// over transport t, as host ns and virtual µs per message.
func probeSendRecv(r *report, model *timing.Model, t string, size int) error {
	const msgs = 2_000
	var err error
	var virt simtime.Duration
	ns := hostNs(func() int {
		err = firstErr(err, onCores(model, []int{0, 1}, func(c *scc.Core, comm *rcce.Comm) {
			ue := comm.UE(c.ID)
			buf := c.Alloc(size)
			xfer := transfer(ue, t, c.ID == 0)
			t0 := c.Now()
			for i := 0; i < msgs; i++ {
				xfer(1-c.ID, buf, size)
			}
			if c.ID == 1 {
				virt = c.Now() - t0
			}
		}))
		return msgs
	})
	label := "1k"
	if size <= model.CacheLineBytes {
		label = "line"
	}
	r.add(fmt.Sprintf("%s.sendrecv_%s_ns", t, label), "ns", ns)
	if label == "1k" {
		r.add(fmt.Sprintf("%s.sendrecv_1k_us", t), "us", virt.Micros()/msgs)
	}
	return err
}

// transfer returns the blocking send (or receive) of transport t.
func transfer(ue *rcce.UE, t string, send bool) func(peer int, buf scc.Addr, n int) {
	switch t {
	case "rcce":
		if send {
			return ue.Send
		}
		return ue.Recv
	case "lwnb":
		l := lwnb.New(ue)
		if send {
			return func(peer int, buf scc.Addr, n int) { l.Wait(l.ISend(peer, buf, n)) }
		}
		return func(peer int, buf scc.Addr, n int) { l.Wait(l.IRecv(peer, buf, n)) }
	default:
		l := ircce.New(ue)
		if send {
			return func(peer int, buf scc.Addr, n int) { l.Wait(l.ISend(peer, buf, n)) }
		}
		return func(peer int, buf scc.Addr, n int) { l.Wait(l.IRecv(peer, buf, n)) }
	}
}

// probeN is the vector length of the algorithm probes: the GCMC
// Ewald Allreduce size.
const probeN = 552

// probeAlgorithms runs every registered Allreduce, Broadcast and Reduce
// algorithm that applies to a 48-core chip through core.Fixed, and
// reports its virtual latency and host ns per simulated event.
func probeAlgorithms(r *report, model *timing.Model) error {
	for _, k := range core.OpKinds() {
		for _, name := range core.AlgorithmNames(k) {
			var virt simtime.Duration
			var perEvent []float64
			for rep := 0; rep < probeReps; rep++ {
				v, ns, ok, err := runAlgorithm(model, k, name)
				if err != nil {
					return fmt.Errorf("probe %s[%s]: %w", k, name, err)
				}
				if !ok {
					break
				}
				virt = v
				perEvent = append(perEvent, ns)
			}
			if len(perEvent) == 0 {
				continue // not applicable on one chip
			}
			base := "core.algo." + k.String() + "." + strings.ReplaceAll(name, ":", ".")
			r.add(base+".virt_us", "us", virt.Micros())
			r.add(base+".ns_per_event", "ns", median(perEvent))
		}
	}
	return nil
}

// runAlgorithm runs collective k with the named algorithm twice on a
// fresh 48-core chip (the first call warms the caches) and returns the
// second call's virtual latency on rank 0 and host ns per event between
// the barrier exits around it. ok is false when the algorithm does not
// apply.
func runAlgorithm(model *timing.Model, k core.OpKind, name string) (virt simtime.Duration, nsPerEvent float64, ok bool, err error) {
	chip := scc.New(model)
	comm := rcce.NewComm(chip)
	alg := core.LookupAlgorithm(k, name)
	ok = true
	chip.Launch(func(c *scc.Core) {
		ue := comm.UE(c.ID)
		cfg := core.ConfigBalanced
		cfg.Selector = core.Fixed(name)
		x := core.NewCtx(ue, cfg)
		defer x.Release()
		if !alg.Applicable(x, probeN) {
			ok = false
			return
		}
		src, dst := c.AllocF64(probeN), c.AllocF64(probeN)
		var t0 time.Duration
		var v0 simtime.Time
		var e0 uint64
		for rep := 0; rep < 2; rep++ {
			ue.Barrier()
			if c.ID == 0 {
				h, f := chip.Engine.SchedStats()
				t0, v0, e0 = cpuNow(), c.Now(), h+f
			}
			var cerr error
			switch k {
			case core.KindAllreduce:
				cerr = x.Allreduce(src, dst, probeN, core.Sum)
			case core.KindBroadcast:
				cerr = x.Broadcast(0, src, probeN)
			case core.KindReduce:
				cerr = x.Reduce(0, src, dst, probeN, core.Sum)
			}
			if cerr != nil {
				err = cerr
			}
			if c.ID == 0 {
				virt = c.Now() - v0
			}
		}
		ue.Barrier()
		if c.ID == 0 {
			h, f := chip.Engine.SchedStats()
			nsPerEvent = float64((cpuNow() - t0).Nanoseconds()) / float64(h+f-e0)
		}
	})
	if rerr := chip.Run(); rerr != nil {
		return 0, 0, false, rerr
	}
	return virt, nsPerEvent, ok, err
}

func firstErr(a, b error) error {
	if a != nil {
		return a
	}
	return b
}
