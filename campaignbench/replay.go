package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/em"
	"repro/internal/ga"
	"repro/internal/instrument"
	"repro/internal/pdn"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/slab"
	"repro/internal/uarch"
)

// replayer re-evaluates a sampled item of a traced step stage by stage,
// calling each layer's public function under its own span, and checks the
// result against what the campaign measured. It exists only in traced runs.
type replayer struct {
	b     *core.Bench
	d     *platform.Domain
	ts    *pdn.TransferSet // the domain's transfers at its powered-core count
	store *castore.Store   // scratch store for the codec stages
	ar    slab.Arena

	wave, vAmp, iAmp, watts, vdie, idie, inv []float64
	spec, prod, scratch                      []complex128
}

// newReplayer builds the transfer set the PDN stages need (timed as
// pdn.transfers_ms) and a scratch store under the run directory.
func newReplayer(e *env, b *core.Bench, d *platform.Domain, storeDir string) (*replayer, error) {
	m, err := d.Model()
	if err != nil {
		return nil, err
	}
	t := time.Now()
	ts, err := m.Transfers(b.N, b.Dt)
	if err != nil {
		return nil, err
	}
	e.ctr.transferDurs = append(e.ctr.transferDurs, time.Since(t))
	st, err := castore.Open(storeDir, castore.Options{})
	if err != nil {
		return nil, err
	}
	n, half := b.N, b.N/2+1
	return &replayer{
		b: b, d: d, ts: ts, store: st,
		wave: make([]float64, n), vAmp: make([]float64, half), iAmp: make([]float64, half),
		watts: make([]float64, half), vdie: make([]float64, n), idie: make([]float64, n),
		inv: make([]float64, n), spec: make([]complex128, half), prod: make([]complex128, half),
		scratch: make([]complex128, dsp.RFFTScratchLen(n)),
	}, nil
}

// item replays one measured GA individual: simulation, current synthesis,
// PDN spectra, antenna fold and analyzer peak, plus the FFT pair, the
// steady-state response and the store codec on the same data.
func (r *replayer) item(e *env, ind ga.Individual, cores int) error {
	d, b, tr := r.d, r.b, e.tr
	cl := power.ClusterLoad{Core: d.Spec.Core, Seq: ind.Seq, ClockHz: d.ClockHz(), ActiveCores: cores}
	var sim power.SteadySim
	prev := uarch.SetTraceCacheEnabled(false) // time a real simulation, not a cache hit
	err := tr.do("uarch.sim", func() (err error) {
		sim, err = cl.SteadySimTrace(b.Dt, b.N, nil)
		return err
	})
	uarch.SetTraceCacheEnabled(prev)
	if err != nil {
		return err
	}
	if err := r.fill(e, cl, sim, cores); err != nil {
		return err
	}
	freqs, err := r.waveStages(e)
	if err != nil {
		return err
	}
	m, err := r.emStages(e, freqs, r.iAmp, b.Band.Lo, b.Band.Hi)
	if err != nil {
		return err
	}
	if m.PeakDBm != ind.Fitness || m.PeakHz != ind.DominantHz {
		return fmt.Errorf("replayed individual reads %v dBm at %v Hz, campaign measured %v dBm at %v Hz",
			m.PeakDBm, m.PeakHz, ind.Fitness, ind.DominantHz)
	}
	return r.codec(e, sim.Res, platform.Load{Seq: ind.Seq, ActiveCores: cores}.Hash())
}

// fill synthesizes the rail current from a sized simulation and applies the
// idle-core current and supply scaling the domain adds.
func (r *replayer) fill(e *env, cl power.ClusterLoad, sim power.SteadySim, cores int) error {
	if err := e.tr.do("power.fill", func() error { return cl.FillFromSim(sim, r.wave) }); err != nil {
		return err
	}
	d := r.d
	idle := power.IdleCurrent(d.Spec.Core, cl.ClockHz) * float64(d.PoweredCores()-cores)
	scale := d.SupplyVolts() / d.Spec.PDN.VNominal
	for i := range r.wave {
		r.wave[i] = (r.wave[i] + idle) * scale
	}
	return nil
}

// waveStages runs the PDN and FFT layers on r.wave, leaving the current
// spectrum in r.iAmp.
func (r *replayer) waveStages(e *env) (freqs []float64, err error) {
	tr, n := e.tr, r.b.N
	if err := tr.do("pdn.spectra", func() (err error) {
		freqs, err = r.ts.SpectraInto(r.vAmp, r.iAmp, r.wave, r.spec, r.scratch)
		return err
	}); err != nil {
		return nil, err
	}
	tr.do("dsp.rfft", func() error { dsp.RFFTInto(r.spec, r.wave, r.scratch); return nil })
	tr.do("dsp.irfft", func() error { dsp.IRFFTInto(r.inv, r.spec, n, r.scratch); return nil })
	err = tr.do("pdn.steady", func() error {
		return r.ts.SteadyStateInto(r.vdie, r.idie, r.wave, r.d.SupplyVolts(), r.spec, r.prod, r.scratch)
	})
	return freqs, err
}

func (r *replayer) emStages(e *env, freqs, iAmp []float64, lo, hi float64) (m *instrument.Measurement, err error) {
	watts := r.watts[:len(freqs)]
	if err := e.tr.do("em.combine", func() error {
		_, err := em.CombineInto(watts, r.b.Platform.Antenna, []em.Emitter{
			{Freqs: freqs, IAmp: iAmp, Path: r.d.Spec.EMPath},
		})
		return err
	}); err != nil {
		return nil, err
	}
	err = e.tr.do("instrument.peak", func() (err error) {
		m, err = r.b.Analyzer.MeasurePeak(freqs, watts, lo, hi, r.b.Samples)
		return err
	})
	return m, err
}

// codec round-trips the item's simulation result — the payload layout the
// spectra tier persists — through the store and the uarch decoder. Keys
// cycle over a few slots so the scratch store stays small.
func (r *replayer) codec(e *env, res *uarch.Result, key uint64) error {
	enc := castore.NewEnc(0)
	uarch.AppendResult(enc, res)
	payload := enc.Bytes()
	key %= 8
	tr := e.tr
	if err := tr.do("castore.put", func() error { return r.store.Put("replay", 1, key, payload) }); err != nil {
		return err
	}
	var got []byte
	var ok bool
	tr.do("castore.get", func() error { got, ok = r.store.Get("replay", 1, key); return nil })
	if !ok {
		return fmt.Errorf("castore: replayed payload missing")
	}
	var back *uarch.Result
	err := tr.do("castore.decode", func() error {
		dec := castore.NewDec(got)
		back = uarch.ReadResult(dec)
		return dec.Finish()
	})
	if err != nil {
		return err
	}
	if len(back.Charge) != len(res.Charge) || back.LoopCycles != res.LoopCycles {
		return fmt.Errorf("castore: decoded result differs from the stored one")
	}
	return nil
}

// point replays one in-band point of a fast resonance sweep through the
// batched operating-point layer, then the same point's waveform through
// the PDN layer directly, and checks both against the sweep's reading.
func (r *replayer) point(e *env, l platform.Load, pt core.SweepPoint) error {
	d, b, tr := r.d, r.b, e.tr
	maxClock := d.Spec.MaxClockHz
	trc := r.prime(e, l, maxClock)
	var pe platform.PointEval
	if err := tr.do("platform.prepare", func() (err error) {
		pe, err = d.PreparePointAt(l, b.Dt, b.N, pt.ClockHz, trc)
		return err
	}); err != nil {
		return err
	}
	if pe.LoopHz != pt.LoopHz {
		return fmt.Errorf("replayed sweep point loops at %v Hz, sweep reported %v Hz", pe.LoopHz, pt.LoopHz)
	}
	r.ar.Reset()
	var freqs, iAmp []float64
	if err := tr.do("platform.spectra", func() (err error) {
		freqs, _, iAmp, err = pe.SpectraArena(d.SupplyVolts(), d.PoweredCores(), &r.ar)
		return err
	}); err != nil {
		return err
	}
	halfBand := b.Analyzer.RBWHz + 2/(float64(b.N)*b.Dt)
	m, err := r.emStages(e, freqs, iAmp, pe.LoopHz-halfBand, pe.LoopHz+halfBand)
	if err != nil {
		return err
	}
	if m.PeakDBm != pt.PeakDBm {
		return fmt.Errorf("replayed sweep point reads %v dBm, sweep reported %v dBm", m.PeakDBm, pt.PeakDBm)
	}

	cl := power.ClusterLoad{Core: d.Spec.Core, Seq: l.Seq, ClockHz: pt.ClockHz, ActiveCores: l.ActiveCores}
	sim, err := cl.SteadySimTrace(b.Dt, b.N, trc)
	if err != nil {
		return err
	}
	if err := r.fill(e, cl, sim, l.ActiveCores); err != nil {
		return err
	}
	if _, err := r.waveStages(e); err != nil {
		return err
	}
	for i := range iAmp {
		if math.Float64bits(iAmp[i]) != math.Float64bits(r.iAmp[i]) {
			return fmt.Errorf("PDN spectra of the sweep point differ from the batched path at bin %d", i)
		}
	}
	return r.codec(e, sim.Res, l.Hash())
}

// column replays one V_MIN shmoo column: prime, freeze the supply ladder,
// and evaluate it over the top supply steps.
func (r *replayer) column(e *env, l platform.Load, clock, maxClock float64) error {
	d, b, tr := r.d, r.b, e.tr
	trc := r.prime(e, l, maxClock)
	r.ar.Reset()
	var ld *platform.Ladder
	if err := tr.do("platform.ladder", func() (err error) {
		ld, err = d.LadderAt(l, b.Dt, b.N, clock, trc, &r.ar)
		return err
	}); err != nil {
		return err
	}
	step := d.Spec.VminStepVolts()
	for k := 0; k < 8; k++ {
		v := d.Spec.PDN.VNominal - float64(k)*step
		if err := tr.do("platform.minvdroop", func() error { _, _, err := ld.MinVDroop(v); return err }); err != nil {
			return err
		}
	}
	return nil
}

// prime simulates a load's clock-invariant trace with the trace cache off,
// so the span times a real simulation.
func (r *replayer) prime(e *env, l platform.Load, maxClock float64) *uarch.Trace {
	prev := uarch.SetTraceCacheEnabled(false)
	defer uarch.SetTraceCacheEnabled(prev)
	var trc *uarch.Trace
	e.tr.do("uarch.prime", func() error {
		trc = r.d.PrimeTraceAt(l, r.b.Dt, r.b.N, maxClock)
		return nil
	})
	return trc
}
