// Package instrument simulates the measurement equipment of the paper's
// Section 4: spectrum analyzers (Agilent E4402B / N9342C class) fed by the
// loop antenna, the Juno's on-chip digital storage oscilloscope (OC-DSO),
// a bench oscilloscope with differential probes on the AMD Kelvin pads,
// and the synthetic current load (SCL) block.
//
// Instruments are intentionally imperfect: they re-bin onto their
// resolution bandwidth, add a noise floor and per-sweep measurement noise,
// band-limit, and quantize — so measurement-driven loops (the GA) face the
// same jitter the real methodology does, and the paper's 30-sample
// averaging is actually necessary.
//
// Noise model: every instrument draws its measurement noise from a
// deterministic stream derived from (instrument seed, content hash of the
// request, sample index) — see internal/detrand. Measuring the same signal
// always yields the same reading no matter how many other measurements ran
// before it or on which goroutine, which makes the instruments lock-free
// and lets the GA and the sweeps evaluate concurrently with bit-identical
// results at any parallelism setting.
package instrument

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"repro/internal/detrand"
	"repro/internal/dsp"
)

// SpectrumAnalyzer models a swept-tuned analyzer.
type SpectrumAnalyzer struct {
	Model         string
	StartHz       float64
	StopHz        float64
	RBWHz         float64 // resolution bandwidth: power integrates per RBW bin
	NoiseFloorDBm float64
	NoiseSigmaDB  float64 // per-bin Gaussian measurement noise, in dB

	seed int64 // base of the per-request noise streams
}

// NewSpectrumAnalyzer returns an analyzer spanning [startHz, stopHz] with
// the given resolution bandwidth. The seed fixes the measurement-noise
// stream so experiments are reproducible.
func NewSpectrumAnalyzer(model string, startHz, stopHz, rbwHz float64, seed int64) (*SpectrumAnalyzer, error) {
	if startHz < 0 || stopHz <= startHz || rbwHz <= 0 {
		return nil, fmt.Errorf("instrument: invalid span [%v, %v] rbw %v", startHz, stopHz, rbwHz)
	}
	return &SpectrumAnalyzer{
		Model:         model,
		StartHz:       startHz,
		StopHz:        stopHz,
		RBWHz:         rbwHz,
		NoiseFloorDBm: -90,
		NoiseSigmaDB:  0.8,
		seed:          seed,
	}, nil
}

// ContentHash identifies the analyzer's complete measurement behaviour:
// every reading is a deterministic function of (signal, these parameters,
// seed), so two analyzers with equal hashes produce bit-identical readings
// and a persisted measurement may be replayed for either. The unexported
// noise seed is included — two analyzers differing only in seed measure
// different values.
func (sa *SpectrumAnalyzer) ContentHash() uint64 {
	h := detrand.NewHash()
	h.String(sa.Model)
	h.Float64(sa.StartHz)
	h.Float64(sa.StopHz)
	h.Float64(sa.RBWHz)
	h.Float64(sa.NoiseFloorDBm)
	h.Float64(sa.NoiseSigmaDB)
	h.Uint64(uint64(sa.seed))
	return h.Sum()
}

// Sweep is one analyzer trace.
type Sweep struct {
	Freqs []float64 // RBW bin centres, Hz
	DBm   []float64 // measured power per bin
}

// Peak returns the marker peak of the sweep.
func (s *Sweep) Peak() (freq, dbm float64) {
	if len(s.DBm) == 0 {
		return 0, math.Inf(-1)
	}
	best := 0
	for i, v := range s.DBm {
		if v > s.DBm[best] {
			best = i
		}
	}
	return s.Freqs[best], s.DBm[best]
}

// PeakInBand returns the strongest bin within [lo, hi].
func (s *Sweep) PeakInBand(lo, hi float64) (freq, dbm float64, ok bool) {
	dbm = math.Inf(-1)
	for i, f := range s.Freqs {
		if f < lo || f > hi {
			continue
		}
		if s.DBm[i] > dbm {
			freq, dbm, ok = f, s.DBm[i], true
		}
	}
	return freq, dbm, ok
}

// Capture performs one sweep over an incident power spectrum (freqs in Hz,
// powers in watts, e.g. from em.CombinedSpectrum): incident power is summed
// into RBW bins, the noise floor is added, and per-bin measurement noise is
// applied. The noise is a deterministic function of the analyzer seed and
// the spectrum content, so capturing the same signal twice gives the same
// trace; MeasurePeak varies the sample index to model sweep-to-sweep noise.
func (sa *SpectrumAnalyzer) Capture(freqs, watts []float64) (*Sweep, error) {
	if len(freqs) != len(watts) {
		return nil, fmt.Errorf("instrument: spectrum length mismatch %d vs %d", len(freqs), len(watts))
	}
	return sa.capture(freqs, watts, detrand.Stream(sa.seed, detrand.HashFloats(freqs, watts), 0)), nil
}

// nBins returns the analyzer's RBW bin count.
func (sa *SpectrumAnalyzer) nBins() int {
	n := int(math.Ceil((sa.StopHz - sa.StartHz) / sa.RBWHz))
	if n < 1 {
		n = 1
	}
	return n
}

// rebin sums the incident spectrum into the analyzer's RBW bins. The
// result depends only on the spectrum, not on any noise draw, so repeated
// sweeps over the same signal share one re-binning pass.
func (sa *SpectrumAnalyzer) rebin(freqs, watts []float64) []float64 {
	acc := make([]float64, sa.nBins())
	sa.rebinInto(acc, freqs, watts)
	return acc
}

// rebinInto is rebin onto a caller-provided (zeroed) prefix of the bin
// grid; incident power falling past len(acc) is dropped, which is exact
// when the caller never reads those bins.
func (sa *SpectrumAnalyzer) rebinInto(acc, freqs, watts []float64) {
	for i, f := range freqs {
		if f < sa.StartHz || f >= sa.StopHz {
			continue
		}
		bin := int((f - sa.StartHz) / sa.RBWHz)
		if bin >= 0 && bin < len(acc) {
			acc[bin] += watts[i]
		}
	}
}

// freqVote is one per-sweep peak-bin tally. A short slice replaces the
// map: samples is small (3–30), so a linear scan is cheaper than hashing
// and the winner — highest count, ties to the lowest frequency — is the
// same either way.
type freqVote struct {
	f float64
	n int
}

// peakScratch carries MeasurePeak's per-call accumulators — the re-binned
// power buffer, the in-band bins' bounds and per-sweep noise draws, the
// per-sweep peaks, and the peak-bin votes — between calls, so a sweep
// campaign's measurement loop allocates only its Measurement. Every buffer
// grows monotonically toward the widest band measured, after which every
// call reuses it.
type peakScratch struct {
	acc   []float64
	ub    []float64 // per in-band bin: noise-independent dBm upper bound
	us    []float64 // per in-band bin: this sweep's floor-noise draw u
	gs    []float64 // per in-band bin: this sweep's dB noise g·σ
	peaks []float64
	votes []freqVote
}

func (sc *peakScratch) accFor(n int) []float64 {
	if cap(sc.acc) < n {
		sc.acc = make([]float64, n)
		return sc.acc
	}
	sc.acc = sc.acc[:n]
	clear(sc.acc)
	return sc.acc
}

// grow returns buf resized to n, reallocating only when it is too short.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// pruneMarginDB pads each bin's dBm upper bound so it dominates the exact
// reading even where math.Log10 is not perfectly monotone (an error of a
// few ulps — under 1e-12 dB across the whole float64 power range).
const pruneMarginDB = 1e-6

var peakScratchPool = sync.Pool{New: func() any { return new(peakScratch) }}

// BinCenters returns the center frequencies of n RBW bins starting at
// startHz. It is the single definition of the analyzer's frequency grid:
// capture uses it to label sweeps, and the lab client uses it to
// reconstruct a remote sweep's Freqs from (n, startHz, rbwHz) alone —
// bit-identically, because both sides evaluate the same expression on the
// same operands.
func BinCenters(startHz, rbwHz float64, n int) []float64 {
	freqs := make([]float64, n)
	for b := 0; b < n; b++ {
		freqs[b] = startHz + (float64(b)+0.5)*rbwHz
	}
	return freqs
}

// capture is the noise-source-explicit sweep used by Capture and MeasurePeak.
func (sa *SpectrumAnalyzer) capture(freqs, watts []float64, rng *rand.Rand) *Sweep {
	acc := sa.rebin(freqs, watts)
	nBins := len(acc)
	sweep := &Sweep{Freqs: BinCenters(sa.StartHz, sa.RBWHz, nBins), DBm: make([]float64, nBins)}
	floor := dsp.FromDBm(sa.NoiseFloorDBm)
	for b := 0; b < nBins; b++ {
		p := acc[b] + floor*(0.5+rng.Float64())
		sweep.DBm[b] = dsp.DBm(p) + rng.NormFloat64()*sa.NoiseSigmaDB
	}
	return sweep
}

// Measurement is the paper's GA fitness observable: the peak amplitude in a
// band, averaged over repeated sweeps ("the metric used for maximum EM
// amplitude is the mean root square of 30 samples", Section 3.1).
type Measurement struct {
	PeakDBm  float64 // RMS-averaged peak power
	PeakHz   float64 // dominant frequency (mode of the per-sweep peaks)
	Samples  int
	StdevDBm float64
}

// MeasurePeak takes samples sweeps over the incident spectrum and returns
// the averaged in-band peak. The dominant frequency is the most frequent
// per-sweep peak bin, which rejects occasional noise-floor wins.
func (sa *SpectrumAnalyzer) MeasurePeak(freqs, watts []float64, lo, hi float64, samples int) (*Measurement, error) {
	if samples < 1 {
		return nil, fmt.Errorf("instrument: need at least 1 sample, got %d", samples)
	}
	if len(freqs) != len(watts) {
		return nil, fmt.Errorf("instrument: spectrum length mismatch %d vs %d", len(freqs), len(watts))
	}
	// The frequency grid is a long-lived axis shared by every measurement on
	// a platform, so its hash-state prefix is memoized; only the watts fold
	// runs per call.
	h := detrand.HashFloatsFrom(detrand.GridState(freqs), watts)
	// Banded sweep, bit-identical to a full capture + PeakInBand: the noise
	// stream is consumed strictly in bin order, so bins past the band's
	// upper edge — whose draws come after every in-band draw — can be
	// skipped outright (the rebin never even accumulates them), and bins
	// below the lower edge consume their two draws but skip the dBm
	// conversion. In-band bins convert only when they can win (below).
	nBins := sa.nBins()
	bLimit := 0
	for bLimit < nBins && sa.StartHz+(float64(bLimit)+0.5)*sa.RBWHz <= hi {
		bLimit++
	}
	// Bin centres rise with the bin index, so the bins at or above lo are a
	// suffix [bLo, bLimit) of the banded grid.
	bLo := 0
	for bLo < bLimit && sa.StartHz+(float64(bLo)+0.5)*sa.RBWHz < lo {
		bLo++
	}
	sc := peakScratchPool.Get().(*peakScratch)
	acc := sc.accFor(bLimit) // noise-independent; shared by all samples
	sa.rebinInto(acc, freqs, watts)
	floor := dsp.FromDBm(sa.NoiseFloorDBm)
	sigma := sa.NoiseSigmaDB

	// Pruned peak search. A bin's reading is DBm(acc+floor·(0.5+u)) + g·σ
	// with u in [0, 1), so ub = DBm(acc+1.5·floor) + margin bounds the dBm
	// term from above for every draw, and ub + g·σ bounds the reading (each
	// rounded step is monotone). Each sweep draws every bin's (u, g) in the
	// stream's bin order, reads the bin with the largest bound exactly as a
	// threshold, and converts only the bins whose bound reaches it: a bin
	// whose bound falls short reads strictly below the sweep's maximum, so
	// the winning bin, its tie-breaking and the out-of-band error are those
	// of the full per-bin scan. NaN bounds never fall short, so they are
	// always read exactly.
	inBand := acc[bLo:]
	ub := grow(sc.ub, len(inBand))
	us := grow(sc.us, len(inBand))
	gs := grow(sc.gs, len(inBand))
	sc.ub, sc.us, sc.gs = ub, us, gs
	ceil := floor * 1.5
	for i, a := range inBand {
		ub[i] = dsp.DBm(a+ceil) + pruneMarginDB
	}
	peaks := sc.peaks[:0]
	votes := sc.votes[:0]
	for s := 0; s < samples; s++ {
		rng := detrand.PooledStream(sa.seed, h, uint64(s))
		for b := 0; b < bLo; b++ {
			// Bins below the band consume their two draws unread.
			rng.Float64()
			rng.NormFloat64()
		}
		top, topBound := -1, math.Inf(-1)
		for i := range ub {
			us[i] = rng.Float64()
			gs[i] = rng.NormFloat64() * sigma
			if bd := ub[i] + gs[i]; bd > topBound {
				top, topBound = i, bd
			}
		}
		thr := math.Inf(-1)
		if top >= 0 {
			thr = dsp.DBm(inBand[top]+floor*(0.5+us[top])) + gs[top]
		}
		peakI, peakDBm := -1, math.Inf(-1)
		for i := range ub {
			if i != top && ub[i]+gs[i] < thr {
				continue
			}
			dbm := thr
			if i != top {
				dbm = dsp.DBm(inBand[i]+floor*(0.5+us[i])) + gs[i]
			}
			if dbm > peakDBm {
				peakI, peakDBm = i, dbm
			}
		}
		detrand.Recycle(rng)
		if peakI < 0 {
			sc.peaks, sc.votes = peaks, votes
			peakScratchPool.Put(sc)
			return nil, fmt.Errorf("instrument: band [%v, %v] outside analyzer span", lo, hi)
		}
		peakF := sa.StartHz + (float64(bLo+peakI)+0.5)*sa.RBWHz
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
	// RMS in linear power terms, reported in dBm.
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
	sc.peaks, sc.votes = peaks, votes
	peakScratchPool.Put(sc)
	return &Measurement{
		PeakDBm:  dsp.DBm(rms),
		PeakHz:   domFreq,
		Samples:  samples,
		StdevDBm: math.Sqrt(varAcc / float64(samples)),
	}, nil
}
