package instrument

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/detrand"
	"repro/internal/dsp"
)

// refMeasurePeak is the unpruned measurement: every in-band bin of every
// sweep is converted to dBm and scanned. The pruned MeasurePeak must
// reproduce it bit for bit, errors included.
func refMeasurePeak(sa *SpectrumAnalyzer, freqs, watts []float64, lo, hi float64, samples int) (*Measurement, error) {
	h := detrand.HashFloatsFrom(detrand.GridState(freqs), watts)
	nBins := sa.nBins()
	bLimit := 0
	for bLimit < nBins && sa.StartHz+(float64(bLimit)+0.5)*sa.RBWHz <= hi {
		bLimit++
	}
	acc := make([]float64, bLimit)
	sa.rebinInto(acc, freqs, watts)
	floor := dsp.FromDBm(sa.NoiseFloorDBm)
	var peaks []float64
	var votes []freqVote
	for s := 0; s < samples; s++ {
		rng := detrand.Stream(sa.seed, h, uint64(s))
		peakF, peakDBm, ok := 0.0, math.Inf(-1), false
		for b := 0; b < len(acc); b++ {
			f := sa.StartHz + (float64(b)+0.5)*sa.RBWHz
			u := rng.Float64()
			g := rng.NormFloat64()
			if f < lo {
				continue
			}
			dbm := dsp.DBm(acc[b]+floor*(0.5+u)) + g*sa.NoiseSigmaDB
			if dbm > peakDBm {
				peakF, peakDBm, ok = f, dbm, true
			}
		}
		if !ok {
			return nil, fmt.Errorf("instrument: band [%v, %v] outside analyzer span", lo, hi)
		}
		peaks = append(peaks, peakDBm)
		voted := false
		for i := range votes {
			if votes[i].f == peakF {
				votes[i].n++
				voted = true
				break
			}
		}
		if !voted {
			votes = append(votes, freqVote{f: peakF, n: 1})
		}
	}
	var sum float64
	for _, dbm := range peaks {
		w := dsp.FromDBm(dbm)
		sum += w * w
	}
	rms := math.Sqrt(sum / float64(samples))
	mean := dsp.Mean(peaks)
	var varAcc float64
	for _, dbm := range peaks {
		varAcc += (dbm - mean) * (dbm - mean)
	}
	var domFreq float64
	best := -1
	for _, v := range votes {
		if v.n > best || (v.n == best && v.f < domFreq) {
			domFreq, best = v.f, v.n
		}
	}
	return &Measurement{
		PeakDBm:  dsp.DBm(rms),
		PeakHz:   domFreq,
		Samples:  samples,
		StdevDBm: math.Sqrt(varAcc / float64(samples)),
	}, nil
}

func sameMeasurement(a, b *Measurement) bool {
	return math.Float64bits(a.PeakDBm) == math.Float64bits(b.PeakDBm) &&
		math.Float64bits(a.PeakHz) == math.Float64bits(b.PeakHz) &&
		a.Samples == b.Samples &&
		math.Float64bits(a.StdevDBm) == math.Float64bits(b.StdevDBm)
}

// TestMeasurePeakPrunedBitIdentical pins the pruned peak search to the
// full per-bin scan on random and adversarial spectra: flat and exactly
// tied bins (a zero-noise analyzer makes ties exact), NaN and +Inf bins,
// negative power, bands partly or wholly outside the span, a noise sigma
// large enough to defeat most pruning, one small enough that the bounds
// are nearly tight, and 1, 3 and 30 samples.
func TestMeasurePeakPrunedBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type analyzer struct {
		name         string
		floor, sigma float64
	}
	analyzers := []analyzer{
		{"default", -90, 0.8},
		{"noiseless", math.Inf(-1), 0}, // readings are exact dBm: ties stay ties
		{"loud", -40, 25},
		// Near-silent dB noise over a floor-level spectrum: the floor draw
		// u decides each sweep, so the winner is seldom the bin with the
		// largest bound, and a bound sits within a hair of its reading
		// whenever u is near 1 — the case an unsound skip rule gets wrong.
		{"quiet", -90, 1e-3},
	}
	type spectrum struct {
		name         string
		freqs, watts []float64
	}
	grid := func(n int, f func(i int) float64) ([]float64, []float64) {
		fs, ws := make([]float64, n), make([]float64, n)
		for i := range fs {
			fs[i] = 5e6 + float64(i)*0.5e6
			ws[i] = f(i)
		}
		return fs, ws
	}
	var spectra []spectrum
	for k := 0; k < 4; k++ {
		fs, ws := grid(500, func(int) float64 { return 1e-9 * math.Exp(3*rng.NormFloat64()) })
		spectra = append(spectra, spectrum{"random", fs, ws})
	}
	fs, ws := grid(500, func(int) float64 { return 0 })
	spectra = append(spectra, spectrum{"zero", fs, ws})
	fs, ws = grid(500, func(int) float64 { return 1e-8 })
	spectra = append(spectra, spectrum{"flat", fs, ws})
	fs, ws = grid(500, func(i int) float64 { return 1e-8 * float64(1+i%2) })
	spectra = append(spectra, spectrum{"tied-pairs", fs, ws})
	fs, ws = grid(500, func(i int) float64 { return 1e-9 * math.Exp(rng.NormFloat64()) })
	ws[200] = math.NaN()
	spectra = append(spectra, spectrum{"nan-bin", fs, ws})
	fs, ws = grid(500, func(i int) float64 { return 1e-9 * math.Exp(rng.NormFloat64()) })
	ws[150], ws[300] = math.Inf(1), math.Inf(1)
	spectra = append(spectra, spectrum{"inf-bins", fs, ws})
	fs, ws = grid(500, func(i int) float64 { return -1e-9 * float64(i%5) })
	spectra = append(spectra, spectrum{"negative", fs, ws})
	fs, ws = grid(500, func(int) float64 { return math.NaN() })
	spectra = append(spectra, spectrum{"all-nan", fs, ws})

	bands := [][2]float64{
		{50e6, 200e6},        // the paper's GA band
		{1e3, 100e6},         // below the span's start
		{1.4e9, 2e9},         // past the span's stop
		{2e9, 3e9},           // wholly above the span
		{1e3, 5e3},           // wholly below the span
		{100.5e6, 100.5e6},   // a single bin centre
		{100.6e6, 100.9e6},   // between two bin centres
		{math.NaN(), 150e6},  // NaN lower edge
		{80e6, math.Inf(1)},  // open upper edge
		{math.Inf(-1), 60e6}, // open lower edge
	}
	checked, errs := 0, 0
	for _, an := range analyzers {
		sa, err := NewSpectrumAnalyzer("e4402b", 9e3, 1.5e9, 1e6, 7)
		if err != nil {
			t.Fatal(err)
		}
		sa.NoiseFloorDBm, sa.NoiseSigmaDB = an.floor, an.sigma
		for _, sp := range spectra {
			for _, band := range bands {
				for _, samples := range []int{1, 3, 30} {
					got, gerr := sa.MeasurePeak(sp.freqs, sp.watts, band[0], band[1], samples)
					want, werr := refMeasurePeak(sa, sp.freqs, sp.watts, band[0], band[1], samples)
					checked++
					if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
						t.Fatalf("%s/%s band %v samples %d: error %v, reference %v", an.name, sp.name, band, samples, gerr, werr)
					}
					if gerr != nil {
						errs++
						continue
					}
					if !sameMeasurement(got, want) {
						t.Fatalf("%s/%s band %v samples %d: %+v, reference %+v", an.name, sp.name, band, samples, *got, *want)
					}
				}
			}
		}
	}
	if errs == 0 || errs == checked {
		t.Fatalf("%d of %d cases errored: the cases must cover both the error path and readings", errs, checked)
	}
}
