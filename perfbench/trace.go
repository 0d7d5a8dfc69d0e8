package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"scc/internal/core"
	"scc/internal/metrics"
	"scc/internal/simtime"
)

// runTraced is the separate traced run. It runs the workload twice on
// fresh chips, each for half the run time: untraced under a CPU
// profile, then with a metrics registry attached. The two must agree
// on every simulated number; the per-layer metrics come from the
// registry, the engine and mesh counters, the profile and the layer
// probes.
func runTraced(w *workload, seed int64, dur time.Duration, outdir string) (*report, error) {
	r := &report{}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(outdir, w.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var profErr error
	plain := newSession(w, seed, cpuNow())
	plain.timed, plain.dur, plain.minOps = true, dur/2, 1
	plain.onTimed = func(start bool) {
		if start {
			profErr = pprof.StartCPUProfile(f)
		} else {
			pprof.StopCPUProfile()
		}
	}
	if err := plain.run(); err != nil {
		return nil, err
	}
	if profErr != nil {
		return nil, fmt.Errorf("cpu profile: %w", profErr)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	traced := newSession(w, seed, cpuNow())
	traced.timed, traced.dur, traced.minOps, traced.traced = true, dur/2, 1, true
	if err := traced.run(); err != nil {
		return nil, err
	}

	countFailures(r, plain)
	countFailures(r, traced)
	// The registry's hooks read the clock (Core.Now), which applies
	// deferred latency early: virtual time is unchanged, but the engine
	// runs more events. So events are compared between untraced runs
	// only (runPlain's set-ups), and their traced excess is reported.
	sameVirtual(r, "untraced", plain.passes[1], "traced", traced.passes[1], false)
	sameApp(r, plain, traced)
	r.add("trace.events_ratio", "ratio", ratio(float64(passEvents(traced.passes[1])), float64(passEvents(plain.passes[1]))))

	layerMetrics(r, plain, traced)
	hostPerOp := func(s *session) float64 {
		return float64(s.end.cpu-s.start.cpu) / float64(s.timedOp)
	}
	r.add("trace.overhead_ratio", "ratio", hostPerOp(traced)/hostPerOp(plain))

	if err := runProbes(r); err != nil {
		return nil, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, pkg := range sharePackages {
		r.add("share."+pkg, "%", shares[pkg])
		total += shares[pkg]
	}
	if total < 98 || total > 102 {
		r.problem("CPU shares sum to %.2f%%, want 100%% ± 2%%", total)
	}
	return r, nil
}

func passEvents(pass []opRecord) uint64 {
	var n uint64
	for _, o := range pass {
		n += o.events
	}
	return n
}

// layerMetrics adds the per-op counters of the timed phases: engine
// and mesh counters and Go runtime statistics from the untraced
// session, registry phases and counters from the traced one, and
// selector picks, per-op-kind latencies and GCMC observables from the
// first timed pass.
func layerMetrics(r *report, plain, traced *session) {
	ops := float64(plain.timedOp)
	a, b := plain.start, plain.end
	events := float64(b.handoffs + b.fastpath - a.handoffs - a.fastpath)
	r.add("simtime.events_per_op", "events", events/ops)
	r.add("simtime.handoffs_per_op", "events", float64(b.handoffs-a.handoffs)/ops)
	r.add("simtime.fastpath_ratio", "ratio", ratio(float64(b.fastpath-a.fastpath), events))
	r.add("simtime.ns_per_event", "ns", ratio(float64((b.cpu-a.cpu).Nanoseconds()), events))

	transfers := float64(b.net.Transfers - a.net.Transfers)
	r.add("mesh.transfers_per_op", "count", transfers/ops)
	r.add("mesh.hops_per_transfer", "hops", ratio(float64(b.net.TotalHops-a.net.TotalHops), transfers))
	r.add("mesh.contended_ratio", "ratio", ratio(float64(b.net.Contended-a.net.Contended), transfers))
	r.add("mesh.queued_us_per_op", "us", (b.net.Queued-a.net.Queued).Micros()/ops)

	r.add("runtime.allocs_per_op", "count", float64(b.mem.Mallocs-a.mem.Mallocs)/ops)
	r.add("runtime.alloc_bytes_per_op", "B", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/ops)
	r.add("runtime.gc_cycles", "count", float64(b.mem.NumGC-a.mem.NumGC))

	tops := float64(traced.timedOp)
	ra, rb := traced.start.reg.Totals, traced.end.reg.Totals
	counter := func(c metrics.Counter) float64 {
		return float64(rb.Counters[c.String()] - ra.Counters[c.String()])
	}
	var phaseTotal float64
	for _, ph := range metrics.PhaseNames() {
		phaseTotal += float64(rb.Phases[ph] - ra.Phases[ph])
	}
	for _, ph := range metrics.PhaseNames() {
		r.add("scc.phase."+strings.ReplaceAll(ph, "-", "_"), "ratio", ratio(float64(rb.Phases[ph]-ra.Phases[ph]), phaseTotal))
	}
	r.add("scc.flag_probes_per_op", "count", counter(metrics.CtrFlagProbes)/tops)
	r.add("scc.blocked_waits_per_op", "count", counter(metrics.CtrBlockedWaits)/tops)
	r.add("scc.mpb_bytes_per_op", "B", (counter(metrics.CtrMPBBytesRead)+counter(metrics.CtrMPBBytesWritten))/tops)
	l1h, l1m := counter(metrics.CtrL1Hits), counter(metrics.CtrL1Misses)
	l2h, l2m := counter(metrics.CtrL2Hits), counter(metrics.CtrL2Misses)
	r.add("scc.l1_hit_ratio", "ratio", ratio(l1h, l1h+l1m))
	r.add("scc.l2_hit_ratio", "ratio", ratio(l2h, l2h+l2m))
	r.add("rcce.sends_per_op", "count", counter(metrics.CtrSends)/tops)
	r.add("rcce.bytes_per_send", "B", ratio(counter(metrics.CtrMPBBytesWritten), counter(metrics.CtrPuts)))
	r.add("lwnb.slot_drains_per_op", "count", counter(metrics.CtrSlotDrains)/tops)
	r.add("ircce.pending_max", "count", float64(rb.Counters[metrics.CtrPendingReqsMax.String()]))
	r.add("ircce.req_wait_rounds_per_op", "count", counter(metrics.CtrReqWaitRounds)/tops)

	first := plain.passes[1]
	picks := map[string]float64{}
	virtSum := map[string]float64{}
	virtN := map[string]float64{}
	for _, o := range first {
		if o.pick != "" {
			picks[o.pick]++
		}
		virtSum[o.kind] += o.call.Micros()
		virtN[o.kind]++
	}
	for _, name := range core.AllAlgorithmNames() {
		r.add("core.pick."+strings.ReplaceAll(name, ":", "."), "count", picks[name])
	}
	for _, op := range allOps {
		r.add("core.virt_us."+op, "us", ratio(virtSum[op], virtN[op]))
	}

	var compute, wall simtime.Duration
	var accepted, attempted int
	for _, res := range plain.appResults[min(1, len(plain.appResults)):] {
		compute += res.ComputeTime
		wall += res.WallTime
		accepted += res.Stats.Accepted
		attempted += res.Stats.Attempted
	}
	r.add("gcmc.compute_virt_share", "ratio", ratio(float64(compute), float64(wall)))
	r.add("gcmc.accept_ratio", "ratio", ratio(float64(accepted), float64(attempted)))
}

// sharePackages are the buckets of share.<pkg>: the simulator's layers,
// the Go runtime, package math (the GCMC physics), the benchmark
// itself, and everything else.
var sharePackages = []string{
	"simtime", "scc", "mesh", "rcce", "lwnb", "ircce", "rckmpi", "core",
	"gcmc", "metrics", "timing", "runtime", "math", "perfbench", "other",
}

// cpuShares sums the profile's flat samples per package with
// `go tool pprof -top` and returns each bucket's percentage of all
// samples.
func cpuShares(profPath string) (map[string]float64, error) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		return nil, fmt.Errorf("cpu shares: %w", err)
	}
	cmd := exec.Command(goBin, "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-unit=ms", profPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.String())
	}
	return parseTop(out)
}

// parseTop reads `pprof -top -unit=ms` output: a "Showing nodes
// accounting for X, Y% of Z total" header, then one row per function
// whose first column is its flat time.
func parseTop(out []byte) (map[string]float64, error) {
	shares := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "Showing nodes accounting for "); ok {
			if i := strings.Index(rest, " of "); i >= 0 {
				t, err := parseMs(strings.TrimSuffix(strings.TrimSpace(rest[i+4:]), " total"))
				if err != nil {
					return nil, err
				}
				total = t
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 6 || !strings.HasSuffix(fields[0], "ms") {
			continue
		}
		flat, err := parseMs(fields[0])
		if err != nil {
			continue // the column header
		}
		shares[bucket(strings.Join(fields[5:], " "))] += flat
	}
	if total <= 0 {
		return nil, fmt.Errorf("cpu shares: no samples in the profile")
	}
	for k, v := range shares {
		shares[k] = 100 * v / total
	}
	return shares, nil
}

func parseMs(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSuffix(s, "ms"), 64)
}

// bucket maps a profiled function to its share.<pkg> bucket.
func bucket(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case pkg == "main":
		return "perfbench"
	case pkg == "math":
		return "math"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	if layer, ok := strings.CutPrefix(pkg, "scc/internal/"); ok {
		for _, b := range sharePackages {
			if b == layer {
				return b
			}
		}
	}
	return "other"
}
