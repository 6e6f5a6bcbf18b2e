package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/uarch"
)

// refFill is the two-pass waveform synthesis fillFromSim replaced, kept
// here as the bit-identity oracle: resample every sample into out, then
// run the slew filter over the finished buffer.
func refFill(cl ClusterLoad, sim SteadySim, out []float64) {
	dt, n, scale := sim.Dt, sim.N, sim.scale
	steady := sim.Res.SteadyCharge()
	if len(cl.PhaseCycles) == 0 {
		for i := 0; i < n; i++ {
			cyc := float64(i) * dt * scale * cl.ClockHz
			idx := int(cyc)
			if idx >= len(steady) {
				idx = len(steady) - 1
			}
			v := steady[idx] * cl.ClockHz
			acc := 0.0
			for core := 0; core < cl.ActiveCores; core++ {
				acc += v
			}
			out[i] = acc
		}
	} else {
		clear(out)
		for core := 0; core < cl.ActiveCores; core++ {
			phase := cl.PhaseCycles[core]
			for i := 0; i < n; i++ {
				cyc := float64(i)*dt*scale*cl.ClockHz + phase
				idx := int(cyc)
				if idx >= len(steady) {
					idx = len(steady) - 1
				}
				out[i] += steady[idx] * cl.ClockHz
			}
		}
	}
	refSlew(out, dt, cl.Core.CurrentSlewTau)
}

func refSlew(wave []float64, dt, tau float64) {
	if tau <= 0 || len(wave) == 0 {
		return
	}
	alpha := 1 - math.Exp(-dt/tau)
	k := len(wave)
	if need := 45 * tau / dt; need < float64(k) {
		k = int(need) + 1
	}
	acc := wave[len(wave)-k]
	for _, v := range wave[len(wave)-k:] {
		acc += alpha * (v - acc)
	}
	for i, v := range wave {
		acc += alpha * (v - acc)
		wave[i] = acc
	}
}

// TestFillFromSimFusedBitIdentical pins the one-pass resample + slew
// against the two-pass oracle, bit for bit: aligned and phased loads at 1–4
// active cores; no slew, the A72's 1.5 ns slew, and a time constant whose
// warm-up spans the whole window (so the warm-up start point shows in the
// output); simulated traces with a period-snapped time base, a synthetic
// trace read at 1.1 cycles per sample, and a steady trace shorter than the
// window, which exercises the last-index clamp.
func TestFillFromSimFusedBitIdentical(t *testing.T) {
	seq := testSeq(t)
	phases := []float64{0, 3.5, 7.25, 11}
	dt := 0.25e-9
	rng := rand.New(rand.NewSource(15))
	charges := func(n int) []float64 {
		q := make([]float64, n)
		for i := range q {
			q[i] = rng.Float64() * 1e-9
		}
		return q
	}
	// The clamped trace covers 40 cycles; the windows need far more. The
	// dense one is read at 1.1 cycles per sample, so neighbouring raw
	// samples differ and a warm-up started one sample late shows.
	short, long := charges(40), charges(10000)
	for _, tau := range []float64{0, 1.5e-9, 1e-6} {
		for _, n := range []int{256, 8192} {
			for cores := 1; cores <= 4; cores++ {
				for _, phased := range []bool{false, true} {
					cfg := uarch.CortexA72()
					cfg.CurrentSlewTau = tau
					cl := ClusterLoad{Core: cfg, Seq: seq, ClockHz: 1.1e9, ActiveCores: cores}
					if phased {
						cl.PhaseCycles = phases[:cores]
					}
					sim, err := cl.SteadySimTrace(dt, n, nil)
					if err != nil {
						t.Fatal(err)
					}
					clamped := SteadySim{Res: &uarch.Result{Charge: short}, Dt: dt, N: n, scale: 1.03}
					dense := SteadySim{Res: &uarch.Result{Charge: long}, Dt: 1e-9, N: n, scale: 1.03}
					for _, c := range []struct {
						name string
						sim  SteadySim
					}{{"sim", sim}, {"clamped", clamped}, {"dense", dense}} {
						label := fmt.Sprintf("tau=%v n=%d cores=%d phased=%v %s", tau, n, cores, phased, c.name)
						want := make([]float64, n)
						refFill(cl, c.sim, want)
						got := make([]float64, n)
						if err := cl.FillFromSim(c.sim, got); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						for i := range want {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s: wave[%d] = %v, want %v", label, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// BenchmarkFillFromSim times the waveform synthesis of one campaign
// evaluation on the default 8192 × 0.25 ns grid (A72, 1.5 ns slew), at two
// and four aligned cores and at four phased cores.
func BenchmarkFillFromSim(b *testing.B) {
	seq := testSeq(b)
	dt, n := 0.25e-9, 8192
	for _, c := range []struct {
		name   string
		cores  int
		phases []float64
	}{
		{"cores=2", 2, nil},
		{"cores=4", 4, nil},
		{"cores=4/phased", 4, []float64{0, 3.5, 7.25, 11}},
	} {
		b.Run(c.name, func(b *testing.B) {
			cl := ClusterLoad{Core: uarch.CortexA72(), Seq: seq, ClockHz: 1.2e9, ActiveCores: c.cores, PhaseCycles: c.phases}
			sim, err := cl.SteadySimTrace(dt, n, nil)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.FillFromSim(sim, out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
