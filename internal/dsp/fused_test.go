package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The reference transforms below are the straightforward radix-2 pipeline
// the fused, bit-reversed-pack implementation must reproduce bit for bit:
// a swap pass into bit-reversed order, then one pass per butterfly stage,
// and real transforms that pack in natural order before calling it.

func refFFTRadix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		tw := stageTwiddles(size, inverse)[:half]
		for start := 0; start < n; start += size {
			lo := x[start : start+half : start+half]
			hi := x[start+half : start+size : start+size]
			for k := range tw {
				a := lo[k]
				b := hi[k] * tw[k]
				lo[k] = a + b
				hi[k] = a - b
			}
		}
	}
}

// refRFFT is the even power-of-two real transform with a natural-order pack.
func refRFFT(x []float64) []complex128 {
	n := len(x)
	m := n / 2
	z := make([]complex128, m)
	for j := 0; j < m; j++ {
		z[j] = complex(x[2*j], x[2*j+1])
	}
	refFFTRadix2(z, false)
	w := rfftPlanFor(n).w
	out := make([]complex128, m+1)
	z0 := z[0]
	c0 := cmplx.Conj(z0)
	e0 := (z0 + c0) * 0.5
	o0 := (z0 - c0) * complex(0, -0.5)
	out[0] = e0 + w[0]*o0
	for k := 1; k < m; k++ {
		zk := z[k]
		zmk := cmplx.Conj(z[m-k])
		e := (zk + zmk) * 0.5
		o := (zk - zmk) * complex(0, -0.5)
		out[k] = e + w[k]*o
	}
	out[m] = e0 + w[m]*o0
	return out
}

// refIRFFT is the even power-of-two inverse real transform.
func refIRFFT(spec []complex128, n int) []float64 {
	m := n / 2
	w := rfftPlanFor(n).w
	z := make([]complex128, m)
	for k := 0; k < m; k++ {
		xk := spec[k]
		xmk := cmplx.Conj(spec[m-k])
		e := (xk + xmk) * 0.5
		o := (xk - xmk) * 0.5 * cmplx.Conj(w[k])
		z[k] = e + complex(0, 1)*o
	}
	refFFTRadix2(z, true)
	out := make([]float64, n)
	inv := 1 / float64(m)
	for j := 0; j < m; j++ {
		out[2*j] = real(z[j]) * inv
		out[2*j+1] = imag(z[j]) * inv
	}
	return out
}

// sameBits compares two floats bit for bit, except that any two NaNs
// match: which NaN payload propagates out of a NaN+NaN add is the
// compiler's choice (float addition commutes, so it may swap operands),
// not the transform's.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameComplexBits(a, b complex128) bool {
	return sameBits(real(a), real(b)) && sameBits(imag(a), imag(b))
}

// fusedSignals returns the real test signals for one length: random
// heavy-tailed samples, signed zeros (which a skipped multiply by the unit
// twiddle would flip) and one with an infinity and a NaN.
func fusedSignals(rng *rand.Rand, n int) [][]float64 {
	zeros := make([]float64, n)
	for i := range zeros {
		if i%3 != 0 {
			zeros[i] = math.Copysign(0, -1)
		}
	}
	special := randSignal(rng, n)
	special[n/2] = math.Inf(1)
	special[n-1] = math.NaN()
	return [][]float64{randSignal(rng, n), randSignal(rng, n), zeros, special}
}

// TestFusedTransformsBitIdentical pins every power-of-two transform — FFT,
// IFFT, RFFT, IRFFT and their Into forms — to the reference pipeline, bit
// for bit, at every length from 2 to 16384: both odd and even stage counts,
// so the lone leftover stage and every fused pair shape are exercised.
func TestFusedTransformsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 2; n <= 16384; n <<= 1 {
		for si, x := range fusedSignals(rng, n) {
			// Complex transforms of length n.
			c := make([]complex128, n)
			for i, v := range x {
				c[i] = complex(v, x[n-1-i])
			}
			want := append([]complex128(nil), c...)
			refFFTRadix2(want, false)
			for k, g := range FFT(c) {
				if !sameComplexBits(g, want[k]) {
					t.Fatalf("n=%d signal %d: FFT bin %d = %v, reference %v", n, si, k, g, want[k])
				}
			}
			want = append(want[:0], c...)
			refFFTRadix2(want, true)
			inv := complex(1/float64(n), 0)
			for k, g := range IFFT(c) {
				if w := want[k] * inv; !sameComplexBits(g, w) {
					t.Fatalf("n=%d signal %d: IFFT bin %d = %v, reference %v", n, si, k, g, w)
				}
			}

			// Real transforms of length n (an n/2-point complex core).
			wantSpec := refRFFT(x)
			scratch := make([]complex128, RFFTScratchLen(n))
			into := RFFTInto(make([]complex128, n/2+1), x, scratch)
			for k, g := range RFFT(x) {
				if !sameComplexBits(g, wantSpec[k]) {
					t.Fatalf("n=%d signal %d: RFFT bin %d = %v, reference %v", n, si, k, g, wantSpec[k])
				}
				if !sameComplexBits(into[k], wantSpec[k]) {
					t.Fatalf("n=%d signal %d: RFFTInto bin %d = %v, reference %v", n, si, k, into[k], wantSpec[k])
				}
			}
			wantX := refIRFFT(wantSpec, n)
			intoX := IRFFTInto(make([]float64, n), wantSpec, n, scratch)
			for i, g := range IRFFT(wantSpec, n) {
				if !sameBits(g, wantX[i]) {
					t.Fatalf("n=%d signal %d: IRFFT sample %d = %v, reference %v", n, si, i, g, wantX[i])
				}
				if !sameBits(intoX[i], wantX[i]) {
					t.Fatalf("n=%d signal %d: IRFFTInto sample %d = %v, reference %v", n, si, i, intoX[i], wantX[i])
				}
			}
		}
	}
}
