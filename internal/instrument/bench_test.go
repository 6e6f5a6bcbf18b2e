package instrument_test

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/em"
	"repro/internal/platform"
)

// BenchmarkMeasurePeak times one GA fitness reading: the GA bench's
// analyzer (E4402B class, 9 kHz–1.5 GHz at 1 MHz RBW) over the paper's
// 50–200 MHz band with 30 sweeps, on the received spectrum of a random
// 50-instruction A72 individual with two active cores.
func BenchmarkMeasurePeak(b *testing.B) {
	plat, err := platform.JunoR2()
	if err != nil {
		b.Fatal(err)
	}
	bench, err := core.NewBench(plat, 1)
	if err != nil {
		b.Fatal(err)
	}
	d, err := plat.Domain(platform.DomainA72)
	if err != nil {
		b.Fatal(err)
	}
	seq := d.Spec.Pool().RandomSequence(rand.New(rand.NewSource(3)), 50)
	freqs, _, iAmp, _, err := d.Spectra(platform.Load{Seq: seq, ActiveCores: 2}, bench.Dt, bench.N)
	if err != nil {
		b.Fatal(err)
	}
	_, watts, err := em.CombinedSpectrum(plat.Antenna, []em.Emitter{{Freqs: freqs, IAmp: iAmp, Path: d.Spec.EMPath}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Analyzer.MeasurePeak(freqs, watts, bench.Band.Lo, bench.Band.Hi, 30); err != nil {
			b.Fatal(err)
		}
	}
}
