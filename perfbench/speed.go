package main

import "time"

// Host speed. CPU time does not remove a shared host's drift: on a
// 2-vCPU VM, identical passes of one seed took from 5.5 to 9.4 s of CPU
// time within one run, and whole runs of one seed differed by up to 27%.
// So the untraced run scales every host time to a reference speed,
// measured in the same run by a reference workload interleaved with the
// ops: a slice of it runs on rank 0 before every op, outside the op's
// interval, and its CPU time is taken out of set-up and run time.
//
// The reference workload is a ring of goroutines, one per simulated
// core, passing a token over unbuffered channels; each hop touches 64
// cache lines of the receiving node's own state. That is the shape of
// the engine's handoffs from rank to rank, but none of the simulator's
// code, and it allocates nothing: it shares only the host's cores and
// caches with the program, so a change to the program barely moves it.
//
// The reference speed is the workload's refHopNs: the CPU time of one
// hop measured inside running benchmarks on a 2-vCPU Xeon VM at
// 2.0 GHz. At that speed the scaled host times equal the CPU times.

// sliceHops is the length of one slice, about 1 ms.
const sliceHops = 2048

// ringWords is each node's state, in uint64s: 4 KB.
const ringWords = 512

// speedRing is the reference workload.
type speedRing struct {
	in   []chan int
	out  chan int
	done chan struct{}
	hops int     // per slice: whole laps of at least sliceHops
	ref  float64 // reference hop time, ns
}

// newSpeedRing starts a ring of n goroutines whose hops take refHopNs
// at the reference speed.
func newSpeedRing(n int, refHopNs float64) *speedRing {
	r := &speedRing{
		in:   make([]chan int, n),
		out:  make(chan int),
		done: make(chan struct{}),
		hops: (sliceHops + n - 1) / n * n,
		ref:  refHopNs,
	}
	for i := range r.in {
		r.in[i] = make(chan int)
	}
	for i := range r.in {
		in, out := r.in[i], r.out
		if i+1 < n {
			out = r.in[i+1]
		}
		go func() {
			defer func() { r.done <- struct{}{} }()
			state := make([]uint64, ringWords)
			for v := range in {
				acc := uint64(v)
				for j := 0; j < len(state); j += 8 {
					acc += state[j]
					state[j] = acc
				}
				out <- v + int(acc&1)
			}
		}()
	}
	return r
}

// slice sends the token round the ring for r.hops hops and returns the
// CPU time it took. An untimed lap first brings the ring's state back
// into the caches, so that how much of it the program evicted between
// slices does not count.
func (r *speedRing) slice() time.Duration {
	r.lap(0)
	t := cpuNow()
	for i := 0; i < r.hops/len(r.in); i++ {
		r.lap(i)
	}
	return cpuNow() - t
}

// lap sends v once round the ring.
func (r *speedRing) lap(v int) {
	r.in[0] <- v
	<-r.out
}

// close stops the ring's goroutines and waits for them to end.
func (r *speedRing) close() {
	for _, c := range r.in {
		close(c)
	}
	for range r.in {
		<-r.done
	}
}

// factor converts CPU time measured while slices took the given times
// to reference time. It uses the median slice, so a slice that a GC
// cycle or a preemption lands in does not count; with no slices it is 1.
func (r *speedRing) factor(slices []time.Duration) float64 {
	if len(slices) == 0 {
		return 1
	}
	ns := make([]float64, len(slices))
	for i, d := range slices {
		ns[i] = float64(d.Nanoseconds())
	}
	return r.ref * float64(r.hops) / median(ns)
}

// total is the CPU time of the slices.
func total(slices []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range slices {
		t += d
	}
	return t
}
