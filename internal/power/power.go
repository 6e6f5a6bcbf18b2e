// Package power converts micro-architectural activity into electrical load:
// it maps per-cycle switching charge (from internal/uarch) to a current
// waveform at a given clock frequency, resamples it onto the circuit
// solver's time grid, and composes multi-core cluster loads.
//
// Current model: a cycle that moves charge Q at clock frequency f draws a
// mean current of Q·f during that cycle. Lowering the clock both stretches
// the loop period (lowering the loop frequency) and reduces the current
// amplitude — exactly the coupled modulation the paper's fast resonance
// sweep (Section 5.3) exploits.
package power

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/isa"
	"repro/internal/uarch"
)

// ClusterLoad describes a homogeneous CPU cluster running one stress loop
// per active core, all cores clocked together.
type ClusterLoad struct {
	Core    uarch.Config
	Seq     []isa.Inst
	ClockHz float64
	// ActiveCores is how many cores run the loop. Idle (but powered)
	// cores draw only base charge; see IdleCurrent.
	ActiveCores int
	// PhaseCycles optionally staggers each active core by a cycle offset.
	// Empty means all cores aligned — the worst case a virus targets.
	PhaseCycles []float64
}

// Validate reports the first problem with the load description.
func (cl ClusterLoad) Validate() error {
	if err := cl.Core.Validate(); err != nil {
		return err
	}
	switch {
	case len(cl.Seq) == 0:
		return fmt.Errorf("power: empty stress loop")
	case cl.ClockHz <= 0 || math.IsNaN(cl.ClockHz) || math.IsInf(cl.ClockHz, 0):
		return fmt.Errorf("power: invalid clock %v", cl.ClockHz)
	case cl.ActiveCores < 1:
		return fmt.Errorf("power: %d active cores", cl.ActiveCores)
	case len(cl.PhaseCycles) != 0 && len(cl.PhaseCycles) != cl.ActiveCores:
		return fmt.Errorf("power: %d phase offsets for %d cores", len(cl.PhaseCycles), cl.ActiveCores)
	}
	return nil
}

// SteadySim is the sized simulation behind one evaluation of a load on a
// dt×n sample window: the micro-architectural result Current resamples,
// the grid it was sized for, and the period-snap scale. Batched campaign
// paths obtain one per operating point (optionally served from a primed
// uarch.Trace) and share it between the loop-frequency prefilter and the
// waveform resample, so no point pays the sizing twice.
type SteadySim struct {
	// Res is the micro-architectural result a Current call with the same
	// grid would return.
	Res *uarch.Result
	// Dt and N are the sampling grid the simulation was sized for.
	Dt float64
	N  int

	scale float64 // period-snap time-base warp (see steadySim)
}

// maxPhase returns the longest phase offset, which extends the needed
// steady window.
func (cl ClusterLoad) maxPhase() float64 {
	m := 0.0
	for _, p := range cl.PhaseCycles {
		if p > m {
			m = p
		}
	}
	return m
}

// PrimeSteadyCycles returns the steady-window demand (in cycles) an
// evaluation of this load on a dt×n grid may make of the simulator,
// including the 5% period-snap headroom. A campaign primes uarch.PrimeTrace
// with this value at its largest clock; every smaller clock's demand is a
// covered prefix.
func (cl ClusterLoad) PrimeSteadyCycles(dt float64, n int) int {
	maxPhase := cl.maxPhase()
	window := float64(n) * dt * cl.ClockHz
	minSteady := int(math.Ceil(window+maxPhase)) + 8
	upfront := int(math.Ceil(window*1.05+maxPhase)) + 2
	if upfront > minSteady {
		return upfront
	}
	return minSteady
}

// steadySim sizes the simulation for a dt×n sample window. The sizing is
// two-stage: the snap decision reads the loop period from a minimally sized
// run, and the snapped window may then need a slightly longer trace (the
// warp is bounded at 5%). With the trace cache enabled, one simulation
// covering the 5% bound is primed up front so both stages are served as
// pure cache hits — prefix-consistent synthesis keeps every stage
// bit-identical to running the simulator per stage, which is what happens
// when the cache is disabled.
//
// A non-nil covering tr short-circuits both stages onto the primed history:
// stage 1 reads only the loop period (no Result materialized) and stage 2
// synthesizes the one Result the caller keeps — the same prefix synthesis
// the cache performs, so results stay bit-identical whether the trace, the
// cache, or a per-stage simulation serves the request.
func (cl ClusterLoad) steadySim(dt float64, n int, tr *uarch.Trace) (SteadySim, error) {
	maxPhase := cl.maxPhase()
	window := float64(n) * dt * cl.ClockHz // cycles covered by the sample window
	minSteady := int(math.Ceil(window+maxPhase)) + 8

	var res *uarch.Result
	var loopCycles float64
	fromTrace := tr.Covers(minSteady)
	if fromTrace {
		lc, err := tr.LoopCyclesAt(minSteady)
		if err != nil {
			return SteadySim{}, err
		}
		loopCycles = lc
	} else {
		// Prime the one backing simulation to cover any snapped window (the
		// warp is bounded at 5%), so the possible re-run below is a pure
		// cache hit. With the cache disabled the priming window is ignored
		// and each stage simulates at its own size — bit-identical either way.
		upfront := int(math.Ceil(window*1.05+maxPhase)) + 2
		r, err := uarch.RunWindow(cl.Core, cl.Seq, minSteady, upfront)
		if err != nil {
			return SteadySim{}, err
		}
		res, loopCycles = r, r.LoopCycles
	}
	// Period snapping: warp the time base slightly so an integer number of
	// loop periods fills the window exactly. Downstream FFT analyses then
	// see a truly periodic signal with no wrap discontinuity (no spectral
	// leakage splashing into the PDN resonance). The warp is bounded at
	// 5%; if the window holds less than ~one period, sample unwarped.
	scale := 1.0
	if loopCycles > 0 {
		k := math.Round(window / loopCycles)
		if k >= 1 {
			s := k * loopCycles / window
			if math.Abs(s-1) <= 0.05 {
				scale = s
			}
		}
	}
	needed := int(math.Ceil(window*scale+maxPhase)) + 2
	if fromTrace {
		// The scalar path re-runs at `needed` only when it exceeds the
		// stage-1 window (stage 1 always holds exactly minSteady steady
		// cycles), so synthesize at whichever window that run would keep.
		size := minSteady
		if needed > minSteady {
			size = needed
		}
		if !tr.Covers(size) {
			// The priming window was sized for the 5% bound, so this is
			// unreachable from PrimeSteadyCycles-sized traces; fall back to
			// the scalar stage-2 run for under-primed hand-built ones.
			r, err := uarch.Run(cl.Core, cl.Seq, size)
			if err != nil {
				return SteadySim{}, err
			}
			res = r
		} else {
			r, err := tr.Synth(size)
			if err != nil {
				return SteadySim{}, err
			}
			res = r
		}
	} else if len(res.SteadyCharge()) < needed {
		r, err := uarch.Run(cl.Core, cl.Seq, needed)
		if err != nil {
			return SteadySim{}, err
		}
		res = r
	}
	return SteadySim{Res: res, Dt: dt, N: n, scale: scale}, nil
}

// SteadySimTrace sizes the simulation for a dt×n sample window, drawing
// from tr when it covers the demand (see PrimeSteadyCycles) and falling
// back to the scalar per-point sizing otherwise — including for a nil
// trace, so campaign paths thread an optional priming unconditionally.
// The returned sim feeds FillFromSim and LoopFrequency.
func (cl ClusterLoad) SteadySimTrace(dt float64, n int, tr *uarch.Trace) (SteadySim, error) {
	if err := cl.Validate(); err != nil {
		return SteadySim{}, err
	}
	if dt <= 0 || n < 1 {
		return SteadySim{}, fmt.Errorf("power: invalid sampling dt=%v n=%d", dt, n)
	}
	return cl.steadySim(dt, n, tr)
}

// wavePool recycles current-waveform buffers between Current calls. The
// waveform is the largest per-evaluation allocation (n float64s); callers
// that are done with it hand it back via PutWave.
var wavePool sync.Pool

// getWave returns a waveform buffer of length n; fillFromSim overwrites (or
// clears) every element, so recycled buffers are not re-zeroed here.
func getWave(n int) []float64 {
	if p, _ := wavePool.Get().(*[]float64); p != nil && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]float64, n)
}

// PutWave recycles a waveform previously returned by Current. The caller
// must not touch the slice afterwards. Putting a waveform that escaped
// into a cache or result is a bug; only transient, locally consumed
// waveforms may be recycled.
func PutWave(w []float64) {
	if cap(w) == 0 {
		return
	}
	wavePool.Put(&w)
}

// Current simulates the loop and returns the cluster current sampled at dt
// over n samples, together with the micro-architectural result. The
// waveform comes from the wave pool; callers done with it may hand it back
// via PutWave.
func (cl ClusterLoad) Current(dt float64, n int) ([]float64, *uarch.Result, error) {
	if err := cl.Validate(); err != nil {
		return nil, nil, err
	}
	if dt <= 0 || n < 1 {
		return nil, nil, fmt.Errorf("power: invalid sampling dt=%v n=%d", dt, n)
	}
	sim, err := cl.steadySim(dt, n, nil)
	if err != nil {
		return nil, nil, err
	}
	out := getWave(n)
	cl.fillFromSim(sim, out)
	return out, sim.Res, nil
}

// FillFromSim resamples a prepared simulation into out (len sim.N),
// exactly as a Current call that performed the sizing itself would — the
// shared body is what keeps batched campaign points bit-identical to the
// scalar path.
func (cl ClusterLoad) FillFromSim(sim SteadySim, out []float64) error {
	if sim.Res == nil {
		return fmt.Errorf("power: empty steady sim")
	}
	if len(out) != sim.N {
		return fmt.Errorf("power: waveform buffer length %d, want %d", len(out), sim.N)
	}
	cl.fillFromSim(sim, out)
	return nil
}

// fillFromSim resamples the simulated charge trace into out and low-passes
// it with the core's current-ramp time constant, in one pass: the filter is
// warmed over the last k raw samples of the periodic window (see
// slewWarmup), each recomputed from the trace rather than stored, and
// every sample is then resampled and filtered in the same iteration, so
// the independent resample work overlaps the filter's serial add–mul–add
// chain.
func (cl ClusterLoad) fillFromSim(sim SteadySim, out []float64) {
	steady := sim.Res.SteadyCharge()
	r := resampler{steady: steady, last: len(steady) - 1, dt: sim.Dt, scale: sim.scale, clock: cl.ClockHz}
	n := len(out)
	alpha, k := slewWarmup(n, sim.Dt, cl.Core.CurrentSlewTau)
	acc := 0.0
	if len(cl.PhaseCycles) == 0 {
		cores := cl.ActiveCores
		if k > 0 {
			acc = r.aligned(n-k, cores)
			for j := n - k; j < n; j++ {
				acc += alpha * (r.aligned(j, cores) - acc)
			}
		}
		for i := range out {
			v := r.aligned(i, cores)
			if k > 0 {
				acc += alpha * (v - acc)
				v = acc
			}
			out[i] = v
		}
		return
	}
	phases := cl.PhaseCycles
	if k > 0 {
		acc = r.phased(n-k, phases)
		for j := n - k; j < n; j++ {
			acc += alpha * (r.phased(j, phases) - acc)
		}
	}
	for i := range out {
		v := r.phased(i, phases)
		if k > 0 {
			acc += alpha * (v - acc)
			v = acc
		}
		out[i] = v
	}
}

// slewWarmup returns the slew filter's coefficient and the number of
// trailing samples of an n-sample periodic window it is warmed over (0:
// no filter, tau <= 0). The arbitrary warm-up start decays by
// exp(-dt/tau) per sample, so 45 time constants bury it far below
// double-precision rounding and the state entering sample 0 is the
// converged end-of-period state; longer time constants warm over the
// whole window.
func slewWarmup(n int, dt, tau float64) (alpha float64, k int) {
	if tau <= 0 || n == 0 {
		return 0, 0
	}
	k = n
	if need := 45 * tau / dt; need < float64(k) {
		k = int(need) + 1
	}
	return 1 - math.Exp(-dt/tau), k
}

// resampler maps sample indices onto the steady charge trace as currents:
// one core's sample i reads the cycle under time i·dt on the
// period-snapped time base, plus the core's phase offset, clamped to the
// last simulated cycle.
type resampler struct {
	steady    []float64
	last      int
	dt, scale float64
	clock     float64
}

// aligned is raw sample i of cores aligned cores: every core reads the
// same trace index, so the value is resampled once and added cores times
// from 0, which reproduces the per-core accumulation bit for bit.
func (r *resampler) aligned(i, cores int) float64 {
	idx := int(float64(i) * r.dt * r.scale * r.clock)
	if idx > r.last {
		idx = r.last
	}
	v := r.steady[idx] * r.clock
	acc := 0.0
	for core := 0; core < cores; core++ {
		acc += v
	}
	return acc
}

// phased is raw sample i of staggered cores: the per-core values summed
// in core order from 0.
func (r *resampler) phased(i int, phases []float64) float64 {
	cyc := float64(i) * r.dt * r.scale * r.clock
	acc := 0.0
	for _, phase := range phases {
		idx := int(cyc + phase)
		if idx > r.last {
			idx = r.last
		}
		acc += r.steady[idx] * r.clock
	}
	return acc
}

// LoopHz returns the loop fundamental frequency a Current call with the
// same sampling grid would report, without resampling the waveform. It
// shares Current's exact simulation sizing, so the underlying uarch result
// is identical — with the trace cache warm this is nearly free, letting
// callers band-filter operating points before paying for spectra.
func (cl ClusterLoad) LoopHz(dt float64, n int) (float64, *uarch.Result, error) {
	if err := cl.Validate(); err != nil {
		return 0, nil, err
	}
	if dt <= 0 || n < 1 {
		return 0, nil, fmt.Errorf("power: invalid sampling dt=%v n=%d", dt, n)
	}
	sim, err := cl.steadySim(dt, n, nil)
	if err != nil {
		return 0, nil, err
	}
	return LoopFrequency(sim.Res, cl.ClockHz), sim.Res, nil
}

// IdleCurrent returns the current drawn by one powered-but-idle core at the
// given clock: the base charge plus all issue slots idle.
func IdleCurrent(cfg uarch.Config, clockHz float64) float64 {
	return (cfg.BaseCharge + float64(cfg.IssueWidth)*cfg.IdleSlotCharge) * clockHz
}

// MeanCurrent returns the time average of a current waveform.
func MeanCurrent(wave []float64) float64 {
	if len(wave) == 0 {
		return 0
	}
	var s float64
	for _, v := range wave {
		s += v
	}
	return s / float64(len(wave))
}

// LoopFrequency returns the stress loop's fundamental frequency, the
// inverse of the steady-state loop period (paper Table 2's "loop freq").
func LoopFrequency(res *uarch.Result, clockHz float64) float64 {
	if res.LoopCycles <= 0 {
		return 0
	}
	return clockHz / res.LoopCycles
}
