package main

import (
	"encoding/binary"
	"math"

	"scc/internal/core"
	"scc/internal/scc"
)

// Inputs are small integers, so every summation order gives the same
// float64 and results compare exactly against the sequential reference.

// inputVal is rank r's j-th input element for op k of a run seeded with
// base: an integer in [-512, 511].
func inputVal(base uint64, k, r, j int) float64 {
	h := base ^ uint64(k+1)*0x9E3779B97F4A7C15 ^ uint64(r+1)*0xC2B2AE3D27D4EB4F
	h += uint64(j) * 0x165667B19E3779F9
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	return float64(int64(h>>54) - 512)
}

// fillInput writes rank r's input for op o (op index k) into buf and
// returns the used prefix.
func fillInput(buf []float64, base uint64, o opSpec, k, r, p int) []float64 {
	n := o.n
	switch o.kind {
	case opBarrier:
		return buf[:0]
	case opBroadcast:
		if r != 0 {
			return buf[:0]
		}
	case opAlltoall:
		n *= p
	}
	v := buf[:n]
	for j := range v {
		v[j] = inputVal(base, k, r, j)
	}
	return v
}

// reference holds the sequential reduction of op k's inputs, built once
// per op by the first rank that checks it. Ranks check op k before they
// reach op k+1's barrier, so one cached op suffices.
type reference struct {
	k   int
	sum []float64
}

// sumFor returns Σ_r inputVal(k, r, j) for j < n, in rank order.
func (ref *reference) sumFor(base uint64, k, n, p int) []float64 {
	if ref.k == k && len(ref.sum) == n {
		return ref.sum
	}
	ref.k = k
	if cap(ref.sum) < n {
		ref.sum = make([]float64, n)
	}
	ref.sum = ref.sum[:n]
	for j := range ref.sum {
		ref.sum[j] = 0
	}
	for r := 0; r < p; r++ {
		for j := range ref.sum {
			ref.sum[j] += inputVal(base, k, r, j)
		}
	}
	return ref.sum
}

// privF64 reads element j of the vector at a without charging virtual
// time.
func privF64(c *scc.Core, a scc.Addr, j int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(c.PrivBytes(a+scc.Addr(8*j), 8)))
}

// checkOp reports whether rank r's output of op o (op index k) equals
// the sequential reference. blocks is the partition a ReduceScatter
// used.
func checkOp(c *scc.Core, ref *reference, base uint64, o opSpec, k, p int, src, dst scc.Addr, blocks []core.Block) bool {
	r := c.ID
	n := o.n
	switch o.kind {
	case opBarrier:
		return true
	case opBroadcast:
		for j := 0; j < n; j++ {
			if privF64(c, src, j) != inputVal(base, k, 0, j) {
				return false
			}
		}
	case opAllreduce, opReduce:
		if o.kind == opReduce && r != 0 {
			return true
		}
		sum := ref.sumFor(base, k, n, p)
		for j, want := range sum {
			if privF64(c, dst, j) != want {
				return false
			}
		}
	case opReduceScatter:
		sum := ref.sumFor(base, k, n, p)
		b := blocks[r]
		for j := 0; j < b.Len; j++ {
			if privF64(c, dst, j) != sum[b.Off+j] {
				return false
			}
		}
	case opAllgather:
		for q := 0; q < p; q++ {
			for j := 0; j < n; j++ {
				if privF64(c, dst, q*n+j) != inputVal(base, k, q, j) {
					return false
				}
			}
		}
	case opAlltoall:
		for q := 0; q < p; q++ {
			for j := 0; j < n; j++ {
				if privF64(c, dst, q*n+j) != inputVal(base, k, q, r*n+j) {
					return false
				}
			}
		}
	}
	return true
}
