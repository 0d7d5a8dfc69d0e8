// Command perfbench is the repository's benchmark. It runs one workload
// on the simulated SCC as a closed loop (each op on rank 0 starts at
// one barrier exit and ends at the next), checks every op's result
// against the sequential reference, and prints the end-to-end metrics
// (-trace 0) or the per-layer metrics of a separate traced run
// (-trace 1). The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it through run.py, which builds it from source:
//
//	python3 perfbench/run.py --workload fig9_48 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times a run sets up (fresh chip, spawned ranks,
// warm-up pass); setup_s is their median. The last set-up continues
// into the timed passes.
const setupReps = 3

// factorWindow is how many ops on each side of an op lend their
// reference slices to its speed factor: about 2 s of a run, so the
// factor follows the host's drift within a pass.
const factorWindow = 20

// minTimedOps keeps the timed phase running until the host-time p90
// has at least ten samples beyond it.
const minTimedOps = 100

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
}

// report collects a run's metrics and the problems that make it wrong.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	problems  []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) problem(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

func main() {
	name := flag.String("workload", "", "workload: fig9_48, gcmc48 or tuned512")
	seed := flag.Int64("seed", 1, "seed for sizes, op order, input values and the GCMC seed")
	seconds := flag.Int("seconds", 10, "host seconds the timed phase runs")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	outdir := flag.String("outdir", ".bench_build/perfbench", "directory for the traced run's CPU profile")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1, -trace 0 or 1, and no arguments")
		os.Exit(2)
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The engine runs one goroutine at a time. One P keeps every handoff
	// on one OS thread: faster than waking a second thread per handoff,
	// and no idle thread spins and bills CPU time.
	runtime.GOMAXPROCS(1)
	dur := time.Duration(*seconds) * time.Second
	var r *report
	if *trace == 1 {
		r, err = runTraced(w, *seed, dur, *outdir)
	} else {
		r, err = runPlain(w, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("workload=%s seed=%d seconds=%d trace=%d\n", w.name, *seed, *seconds, *trace)
	if !emit(r) {
		os.Exit(1)
	}
}

// runPlain is the untraced run: setupReps set-ups, then the timed
// passes of the last one. Its host times are scaled to the reference
// speed (see speed.go): set-up by the factor of the warm-up pass's
// slices, each timed pass by that of its slices, and each timed op by
// that of the slices within factorWindow ops of it.
func runPlain(w *workload, seed int64, dur time.Duration) (*report, error) {
	r := &report{}
	ring := newSpeedRing(w.model.NumCores(), w.refHopNs)
	defer ring.close()
	var setups []float64
	var first *session
	var s *session
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()            // start each set-up from a collected heap
		var begun time.Duration // the first set-up counts from process start
		if rep > 0 {
			begun = cpuNow()
		}
		s = newSession(w, seed, begun)
		s.speed = ring
		s.timed = rep == setupReps-1
		s.dur, s.minOps = dur, minTimedOps
		if err := s.run(); err != nil {
			return nil, err
		}
		countFailures(r, s)
		warm := s.slicesOf(0)
		setups = append(setups, ring.factor(warm)*(s.setup-total(warm)).Seconds())
		if first == nil {
			first = s
		} else {
			sameVirtual(r, "set-up 1", first.passes[0], fmt.Sprintf("set-up %d", rep+1), s.passes[0], true)
			sameApp(r, first, s)
		}
	}

	passes := s.timedPasses()
	var host, factors []float64
	var elapsed, rawElapsed float64 // CPU seconds of the timed passes, without the slices
	for k, p := range passes {
		slices := s.slicesOf(k + 1)
		f := ring.factor(slices)
		factors = append(factors, f)
		for i, o := range p { // slices[i] ran just before op i
			near := slices[max(i-factorWindow, 0):min(i+factorWindow+1, len(slices))]
			host = append(host, ring.factor(near)*float64(o.host.Nanoseconds())/1e6)
		}
		cpu := (s.bounds[k+1] - s.bounds[k] - total(slices)).Seconds()
		elapsed += f * cpu
		rawElapsed += cpu
	}
	virt := virtualUs(passes[0])

	r.add("setup_s", "s", median(setups))
	r.add("ops_per_s", "ops/s", float64(len(host))/elapsed)
	r.add("host_ms_p50", "ms", median(host))
	r.add("host_ms_p90", "ms", quantile(host, 0.9))
	r.add("virt_us_p50", "us", median(virt))
	r.add("virt_us_p90", "us", quantile(virt, 0.9))
	r.add("virt_ms_total", "ms", sum(virt)/1000)
	r.add("peak_rss_mb", "MB", float64(s.peakRSS)/1024)
	fmt.Printf("timed: %d ops in %d passes, %.2f s CPU (%.2f s at reference speed) over %.2f s wall; host p90 has %d samples beyond it; virtual metrics over the first timed pass (%d ops)\n",
		len(host), len(passes), rawElapsed, elapsed, s.end.at.Sub(s.start.at).Seconds(), len(host)-int(0.9*float64(len(host)))-1, len(virt))
	fmt.Printf("host speed: %d-node reference ring, factor %.4f in the warm-up pass, %.4f per timed pass; unscaled ops_per_s %.4f\n",
		len(ring.in), ring.factor(s.slicesOf(0)), factors, float64(len(host))/rawElapsed)
	return r, nil
}

// countFailures adds s's timed ops to attempted and failed, and records
// a problem for every wrong op, warm-up included.
func countFailures(r *report, s *session) {
	attempted, failed := 0, 0
	for _, p := range s.timedPasses() {
		attempted += len(p)
	}
	for key := range s.bad {
		if key[0] == 0 {
			r.problem("warm-up op %d wrong", key[1])
		} else {
			failed++
		}
	}
	if failed > 0 {
		r.problem("%d of %d timed ops wrong", failed, attempted)
	}
	r.attempted += attempted
	r.failed += failed
}

// virtualUs returns the simulated latency of each op of a pass, in µs.
func virtualUs(pass []opRecord) []float64 {
	v := make([]float64, len(pass))
	for i, o := range pass {
		v[i] = o.virt.Micros()
	}
	return v
}

// sameVirtual records a problem unless two passes of the same ops have
// identical per-op simulated latencies and, when events is set, engine
// event counts.
func sameVirtual(r *report, an string, a []opRecord, bn string, b []opRecord, events bool) {
	if len(a) != len(b) {
		r.problem("%s ran %d ops, %s ran %d", an, len(a), bn, len(b))
		return
	}
	for i := range a {
		if a[i].virt != b[i].virt || a[i].call != b[i].call || (events && a[i].events != b[i].events) {
			r.problem("op %d (%s): %s gives %d ticks/%d events, %s gives %d ticks/%d events",
				i, a[i].kind, an, a[i].virt, a[i].events, bn, b[i].virt, b[i].events)
			return
		}
	}
}

// sameApp records a problem unless two GCMC sessions end each pass
// they both ran with the same particle count and energy.
func sameApp(r *report, a, b *session) {
	for i := 0; i < min(len(a.appResults), len(b.appResults)); i++ {
		x, y := a.appResults[i], b.appResults[i]
		if x.FinalN != y.FinalN || x.FinalEnergy != y.FinalEnergy {
			r.problem("gcmc pass %d final state differs: N=%d E=%v vs N=%d E=%v", i, x.FinalN, x.FinalEnergy, y.FinalN, y.FinalEnergy)
		}
	}
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

// emit prints the metrics table, the problems and the JSON result line,
// and reports whether the run was correct.
func emit(r *report) bool {
	out := jsonResult{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonValue{},
	}
	for _, m := range r.metrics {
		fmt.Printf("%-40s %16.6g %s\n", m.name, m.value, m.unit)
		out.Metrics[m.name] = jsonValue{m.value, m.unit}
	}
	// fail_frac can be 0, so it travels in the result's attempted and
	// failed fields rather than among the metrics.
	fmt.Printf("%-40s %16.6g %s\n", "fail_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")
	for _, p := range r.problems {
		fmt.Println("WRONG:", p)
		fmt.Fprintln(os.Stderr, "perfbench: wrong:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: encoding result:", err)
		return false
	}
	fmt.Println(string(line))
	return out.Correct
}
