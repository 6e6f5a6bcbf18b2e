// Command campaignbench times the paper's three campaign methods — the
// EM-driven GA virus search, the fast resonance sweep and the V_MIN shmoo —
// end to end, and in a traced run layer by layer, and checks every step's
// simulated output bit for bit. See README.md for the workloads and
// metrics.
//
//	campaignbench --workload ga-virus --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// setupRepeats is how many times a run performs its set-up; setup_s is the
// median.
const setupRepeats = 5

// minSteps is the step count a p90 needs (ten samples beyond it).
const minSteps = 100

// workload is one benchmark workload. setup holds all one-time work and may
// be called again to replace the previous state; reference computes the
// expected outputs (untimed); next prepares the following step (untimed);
// step performs one timed step and checks its output.
type workload interface {
	setup(e *env) error
	reference(e *env) error
	next(e *env) error
	step(e *env) (stepOut, error)
	layers(e *env, m metricSet)
	close()
}

type stepOut struct {
	items int
	kind  string
}

// counters are cumulative per-layer counts folded in by the workloads.
type counters struct {
	traceHits, traceLookups   uint64
	ckptHits, ckptProbes      uint64
	ckptResumed               float64
	batchItems, batchMeasured uint64
	tracedMeasured            uint64
	evalSeconds               float64
	items                     int
	buildDurs, transferDurs   []time.Duration
}

// env is the state a run shares with its workload.
type env struct {
	seed  int64
	jobs  int
	dir   string  // the run's private directory inside the checkout
	trace bool    // this is the traced run
	tr    *tracer // non-nil while a traced step runs
	all   *tracer // every traced step's spans
	ctr   counters
}

// timeEval times one campaign-level evaluation call: always into the
// evaluation total, and as a span when the step is traced.
func (e *env) timeEval(name string, fn func() error) error {
	t := time.Now()
	err := e.tr.do(name, fn)
	e.ctr.evalSeconds += time.Since(t).Seconds()
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if v != v { // NaN: nothing was measured
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

var workloads = map[string]func() workload{
	"ga-virus":     func() workload { return &gaVirus{} },
	"opsweep":      func() workload { return &opSweep{} },
	"warm-restart": func() workload { return &warmRestart{} },
	"fleet-remote": func() workload { return &fleetRemote{} },
}

func main() {
	name := flag.String("workload", "", "workload: ga-virus, opsweep, warm-restart or fleet-remote")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured duration")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	pins := flag.Bool("print-pins", false, "print the pinned digests for the default seed and exit")
	flag.Parse()

	if *pins {
		if err := printPins(); err != nil {
			fatal(err)
		}
		return
	}
	mk, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	e := &env{seed: *seed, jobs: min(2, runtime.NumCPU()), dir: dir, trace: *trace == 1}
	res, err := run(mk, e, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
}

// run sets up a fresh workload from mk setupRepeats times, keeps the last,
// and measures its steps for length.
func run(mk func() workload, e *env, length time.Duration) (*result, error) {
	host := newHostRecord(e.dir)
	var setups []time.Duration
	var w workload
	for k := 0; k < setupRepeats; k++ {
		if w != nil {
			w.close()
		}
		w = mk()
		runtime.GC() // every set-up starts from a collected heap holding no earlier one
		t := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t))
	}
	defer w.close()
	res := &result{Correct: true, Metrics: metricSet{}}
	if err := w.reference(e); err != nil {
		fmt.Fprintln(os.Stderr, "reference check:", err)
		res.Correct = false
	}
	// Return what set-up freed to the OS, so the RSS figure follows the
	// steps: set-up's own transient peak depends on when the collector ran.
	debug.FreeOSMemory()

	var plain, traced stepLog
	var peakRSS float64
	var failures []string
	e.ctr = counters{buildDurs: e.ctr.buildDurs, transferDurs: e.ctr.transferDurs}
	if e.trace {
		e.all = newTracer()
	}
	g0 := readGoCounters()
	steal0, total0 := cpuTicks()
	start := time.Now()
	for i := 0; time.Since(start) < length; i++ {
		res.Attempted++
		if err := w.next(e); err != nil {
			res.Failed++
			failures = append(failures, err.Error())
			continue
		}
		e.tr = nil
		if e.trace && splitmix(uint64(i))&1 == 1 {
			e.tr = e.all
			e.tr.step = i
		}
		root := e.tr.begin("step")
		t := time.Now()
		out, err := w.step(e)
		d := time.Since(t)
		e.tr.end(root)
		peakRSS = max(peakRSS, rssMB())
		if err != nil {
			res.Failed++
			failures = append(failures, err.Error())
			continue
		}
		e.ctr.items += out.items
		if e.tr != nil {
			traced.add(d, out.items, out.kind)
		} else {
			plain.add(d, out.items, out.kind)
		}
	}
	g1 := readGoCounters()
	steal1, total1 := cpuTicks()
	host.StealFrac = ratio(steal1-steal0, total1-total0)
	host.LoadEnd = loadAvg()
	for i, f := range failures {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "... %d more failed steps\n", len(failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "failed step:", f)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if len(plain.durs) < minSteps && !e.trace {
		fmt.Fprintf(os.Stderr, "warning: %d steps, fewer than the %d a p90 needs\n", len(plain.durs), minSteps)
	}

	if !e.trace {
		res.Metrics.set("items_per_s", "1/s", plain.itemsPerSecond())
		res.Metrics.set("step_ms_p50", "ms", plain.quantileMS(0.5))
		res.Metrics.set("step_ms_p90", "ms", plain.quantileMS(0.9))
		res.Metrics.set("peak_rss_mb", "MB", peakRSS)
		sort.Slice(setups, func(a, b int) bool { return setups[a] < setups[b] })
		res.Metrics.set("setup_s", "s", setups[len(setups)/2].Seconds())
	} else {
		layerMetrics(e, w, res.Metrics)
		res.Metrics.set("trace.overhead_frac", "frac",
			traced.quantileMS(0.5)/plain.quantileMS(0.5)-1)
		items := float64(e.ctr.items)
		res.Metrics.set("go.alloc_kb_per_item", "KiB", (g1.allocBytes-g0.allocBytes)/1024/items)
		res.Metrics.set("go.gc_cpu_frac", "frac", (g1.gcCPU-g0.gcCPU)/(g1.totalCPU-g0.totalCPU))
	}
	kinds := map[string]any{}
	for k, ds := range plain.byKind() {
		kinds[k] = map[string]any{"steps": len(ds), "p50_ms": ms(durQuantile(ds, 0.5)), "p90_ms": ms(durQuantile(ds, 0.9))}
	}
	info := map[string]any{
		"host": host, "workload_steps": len(plain.durs) + len(traced.durs),
		"traced_steps": len(traced.durs), "setup_s": setupSeconds(setups), "kinds": kinds,
	}
	b, _ := json.Marshal(info)
	fmt.Println(string(b))
	return res, nil
}

func setupSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// splitmix is SplitMix64's finalizer: a fixed pseudo-random choice of which
// steps the traced run traces, so traced and untraced steps interleave
// without following the campaigns' generation parity.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(1)
}
