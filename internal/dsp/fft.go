// Package dsp provides the signal-processing primitives used by the
// simulated instruments: FFT (radix-2 and Bluestein for arbitrary lengths),
// window functions, amplitude spectra, RMS and dB helpers, and spectral peak
// finding.
package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// FFT returns the discrete Fourier transform of x. The input is not
// modified. Any length is accepted: powers of two use an in-place radix-2
// algorithm, other lengths use Bluestein's chirp-z transform.
func FFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, false)
		return out
	}
	return bluestein(out, false)
}

// IFFT returns the inverse discrete Fourier transform of x (normalized by
// 1/N). The input is not modified.
func IFFT(x []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	out := make([]complex128, n)
	copy(out, x)
	if n&(n-1) == 0 {
		fftRadix2(out, true)
	} else {
		out = bluestein(out, true)
	}
	inv := complex(1/float64(n), 0)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// FFTReal transforms a real signal, returning the full complex spectrum.
func FFTReal(x []float64) []complex128 {
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	if len(c) == 0 {
		return nil
	}
	if len(c)&(len(c)-1) == 0 {
		fftRadix2(c, false)
		return c
	}
	return bluestein(c, false)
}

// fftRadix2 performs an in-place iterative radix-2 Cooley-Tukey FFT.
// len(x) must be a power of two. inverse selects conjugated twiddles
// (without the 1/N normalization).
func fftRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	fftStages(x, inverse)
}

// fftStages runs the butterfly stages of a radix-2 FFT over x, which must
// already hold its input in bit-reversed order (len(x) a power of two).
//
// Stages run in fused pairs: one pass over the data applies stage s and
// stage 2s to four elements held in registers — the two size-s butterflies
// (k, k+s/2) and (k+s, k+3s/2) with twiddle w_s^k, then the two size-2s
// butterflies (k, k+s) with w_2s^k and (k+s/2, k+3s/2) with w_2s^(k+s/2).
// Every butterfly reads the same operands and twiddle and runs the same
// arithmetic as the one-stage-per-pass loop; only the interleaving of
// independent butterflies changes, so the output is bit-identical while
// the data crosses the cache half as often. An odd stage count leaves the
// size-2 stage to run alone first.
func fftStages(x []complex128, inverse bool) {
	n := len(x)
	size := 2
	if bits.TrailingZeros(uint(n))%2 == 1 {
		w := stageTwiddles(2, inverse)[0]
		for i := 1; i < n; i += 2 {
			a := x[i-1]
			b := x[i] * w
			x[i-1] = a + b
			x[i] = a - b
		}
		size = 4
	}
	for ; size < n; size <<= 2 {
		half := size >> 1
		t1 := stageTwiddles(size, inverse)[:half]
		t2 := stageTwiddles(2*size, inverse)[:size]
		t2lo := t2[:half:half]
		t2hi := t2[half:size:size]
		for start := 0; start < n; start += 2 * size {
			// Six slices re-cut to one length and indexed by k alone let the
			// compiler drop every bounds check in the inner loop.
			q0 := x[start : start+half : start+half]
			q1 := x[start+half : start+size : start+size][:len(q0)]
			q2 := x[start+size : start+size+half : start+size+half][:len(q0)]
			q3 := x[start+size+half : start+2*size : start+2*size][:len(q0)]
			t1, t2lo, t2hi := t1[:len(q0)], t2lo[:len(q0)], t2hi[:len(q0)]
			for k := range q0 {
				w1 := t1[k]
				a0, a1, a2, a3 := q0[k], q1[k], q2[k], q3[k]
				b := a1 * w1
				a0, a1 = a0+b, a0-b
				b = a3 * w1
				a2, a3 = a2+b, a2-b
				b = a2 * t2lo[k]
				q0[k], q2[k] = a0+b, a0-b
				b = a3 * t2hi[k]
				q1[k], q3[k] = a1+b, a1-b
			}
		}
	}
}

// bluestein computes the DFT of arbitrary length via the chirp-z transform,
// using radix-2 FFTs of length m >= 2n-1. The chirp and filter spectrum
// come from a cached per-length plan (see plan.go).
func bluestein(x []complex128, inverse bool) []complex128 {
	return bluesteinPlanFor(len(x), inverse).transform(x)
}

// AmplitudeSpectrum returns single-sided amplitude estimates for a real
// signal sampled at rate fs: bin k corresponds to frequency k*fs/N for
// k in [0, N/2]. Non-DC (and non-Nyquist) bins are doubled so a pure
// sinusoid of amplitude A reports A at its bin.
func AmplitudeSpectrum(x []float64, fs float64) (freqs, amps []float64) {
	n := len(x)
	if n == 0 {
		return nil, nil
	}
	spec := RFFT(x)
	half := n/2 + 1
	freqs = make([]float64, half)
	amps = make([]float64, half)
	for k := 0; k < half; k++ {
		freqs[k] = float64(k) * fs / float64(n)
		a := cmplx.Abs(spec[k]) / float64(n)
		if k != 0 && !(n%2 == 0 && k == n/2) {
			a *= 2
		}
		amps[k] = a
	}
	return freqs, amps
}

// BinFreq returns the frequency of bin k for an N-point transform of a
// signal sampled at fs.
func BinFreq(k, n int, fs float64) float64 {
	return float64(k) * fs / float64(n)
}

// FreqBin returns the nearest bin index for frequency f in an N-point
// transform at sample rate fs, clamped to [0, n/2].
func FreqBin(f float64, n int, fs float64) int {
	k := int(math.Round(f * float64(n) / fs))
	if k < 0 {
		k = 0
	}
	if k > n/2 {
		k = n / 2
	}
	return k
}

// Validate panics unless the sample rate and length form a usable spectrum;
// used by instruments to catch configuration errors early.
func Validate(n int, fs float64) error {
	if n <= 0 {
		return fmt.Errorf("dsp: non-positive length %d", n)
	}
	if fs <= 0 || math.IsNaN(fs) || math.IsInf(fs, 0) {
		return fmt.Errorf("dsp: invalid sample rate %v", fs)
	}
	return nil
}
