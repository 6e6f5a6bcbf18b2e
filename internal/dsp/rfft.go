package dsp

// Real-input FFT. Every signal in the pipeline — current waveforms, rail
// voltage, EM amplitude — is real, so the full complex transform wastes
// half its work on the conjugate-symmetric upper half. RFFT packs the N
// reals into an N/2-point complex transform and untangles the two
// interleaved half-spectra:
//
//	z[j] = x[2j] + i·x[2j+1],  Z = FFT_{m}(z),  m = N/2
//	E[k] = (Z[k] + conj(Z[m−k]))/2        (spectrum of the even samples)
//	O[k] = −i/2 · (Z[k] − conj(Z[m−k]))   (spectrum of the odd samples)
//	X[k] = E[k] + w^k·O[k],  w = exp(−2πi/N),  k = 0..m (indices mod m)
//
// IRFFT inverts the untangling exactly: conj(X[m−k]) = E[k] − w^k·O[k], so
// E and O recover by half-sum/half-difference and z = IFFT_m(E + i·O).
// Odd lengths fall back to the full complex transform (Bluestein underneath)
// and return the same half-spectrum shape.

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// rfftPlan caches the length-dependent setup for a real transform of length
// n: the untangle twiddles w^k (k = 0..n/2), the bit-reversal table of the
// n/2-point core when that is a power of two, and a scratch pool for the
// packed n/2-point work buffer.
type rfftPlan struct {
	n int
	w []complex128 // w[k] = exp(-2πi·k/n), read-only
	// rev[i] is i bit-reversed over log2(n/2) bits: slot i of the packed
	// input takes sample pair rev[i], already in the order the radix-2
	// stages expect, so no swap pass runs. Nil when n/2 is not a power of
	// two (Bluestein core).
	rev     []int32
	scratch sync.Pool // *[]complex128 of length n/2
}

var (
	rfftMu    sync.Mutex
	rfftPlans = map[int]*rfftPlan{}
)

// specPools recycles half-spectrum buffers per length; RFFT draws from it
// and callers that consume a spectrum locally hand it back via PutSpectrum.
var specPools sync.Map // int (len) -> *sync.Pool of *[]complex128

func specPoolFor(n int) *sync.Pool {
	if p, ok := specPools.Load(n); ok {
		return p.(*sync.Pool)
	}
	p, _ := specPools.LoadOrStore(n, &sync.Pool{})
	return p.(*sync.Pool)
}

// GetSpectrum returns an uninitialized half-spectrum buffer of length n,
// recycled when possible. Callers must overwrite every element.
func GetSpectrum(n int) []complex128 {
	if n == 0 {
		return nil
	}
	if ptr, _ := specPoolFor(n).Get().(*[]complex128); ptr != nil {
		return *ptr
	}
	return make([]complex128, n)
}

// PutSpectrum recycles a half-spectrum previously returned by RFFT or
// GetSpectrum. The caller must not touch the slice afterwards; spectra that
// escaped into a cache or result must never be recycled.
func PutSpectrum(spec []complex128) {
	if len(spec) == 0 || len(spec) != cap(spec) {
		return
	}
	specPoolFor(len(spec)).Put(&spec)
}

func rfftPlanFor(n int) *rfftPlan {
	rfftMu.Lock()
	p, ok := rfftPlans[n]
	rfftMu.Unlock()
	if ok {
		return p
	}
	m := n / 2
	w := make([]complex128, m+1)
	for k := 0; k <= m; k++ {
		w[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
	}
	p = &rfftPlan{n: n, w: w}
	if m&(m-1) == 0 {
		p.rev = make([]int32, m)
		shift := 64 - uint(bits.TrailingZeros(uint(m)))
		for j := range p.rev {
			p.rev[j] = int32(bits.Reverse64(uint64(j)) >> shift)
		}
	}
	p.scratch.New = func() any {
		buf := make([]complex128, m)
		return &buf
	}
	rfftMu.Lock()
	if prior, ok := rfftPlans[n]; ok {
		p = prior // concurrent builders produce identical plans; keep one
	} else {
		rfftPlans[n] = p
	}
	rfftMu.Unlock()
	return p
}

// rfftEven is the even-length transform core shared by RFFT and RFFTInto:
// pack x into the m-point work buffer z, transform, untangle into out
// (length m+1). A power-of-two core packs straight into bit-reversed
// slots and runs only the butterfly stages — the same values in the same
// slots the swap pass would produce. The untangle loop is written without
// the modular indexing of the textbook formulation — bins 0 and m both
// read Z[0], interior bins read Z[k] and Z[m-k] directly — with arithmetic
// identical operation for operation, so the results are bit-identical.
func rfftEven(out []complex128, x []float64, z []complex128, p *rfftPlan) {
	m := len(x) / 2
	var Z []complex128
	if rev := p.rev; rev != nil {
		// rev is an involution, so gathering pair rev[i] into slot i fills
		// the same slots as scattering pair j into slot rev[j], with
		// sequential writes.
		Z = z[:len(rev)]
		for i, r := range rev {
			Z[i] = complex(x[2*r], x[2*r+1])
		}
		fftStages(Z, false)
	} else {
		for j := 0; j < m; j++ {
			z[j] = complex(x[2*j], x[2*j+1])
		}
		Z = bluestein(z, false)
	}
	w := p.w
	z0 := Z[0]
	c0 := cmplx.Conj(z0)
	e0 := (z0 + c0) * 0.5
	o0 := (z0 - c0) * complex(0, -0.5)
	out[0] = e0 + w[0]*o0
	for k := 1; k < m; k++ {
		zk := Z[k]
		zmk := cmplx.Conj(Z[m-k])
		e := (zk + zmk) * 0.5
		o := (zk - zmk) * complex(0, -0.5)
		out[k] = e + w[k]*o
	}
	out[m] = e0 + w[m]*o0
}

// RFFT transforms a real signal and returns the non-redundant half spectrum,
// bins 0..N/2 inclusive (the remaining bins of the full transform are the
// conjugate mirror). Even lengths cost one N/2-point complex transform; odd
// lengths fall back to the full transform.
func RFFT(x []float64) []complex128 {
	n := len(x)
	if n == 0 {
		return nil
	}
	half := n/2 + 1
	if n%2 != 0 {
		spec := FFTReal(x)
		return spec[:half:half]
	}
	p := rfftPlanFor(n)
	zptr := p.scratch.Get().(*[]complex128)
	out := GetSpectrum(half)
	rfftEven(out, x, *zptr, p)
	p.scratch.Put(zptr)
	return out
}

// RFFTScratchLen returns the scratch length RFFTInto needs for a real
// transform of length n (zero for odd lengths, which use the fallback path).
func RFFTScratchLen(n int) int {
	if n%2 != 0 {
		return 0
	}
	return n / 2
}

// RFFTInto is RFFT writing the half spectrum into dst — len(dst) must be
// n/2+1 — using a caller-provided work buffer of at least RFFTScratchLen(n)
// entries. Batch pipelines use it to keep whole generations of spectra in
// one contiguous slab with per-worker scratch instead of drawing both from
// pools per call. Results are bit-identical to RFFT; dst is returned.
func RFFTInto(dst []complex128, x []float64, scratch []complex128) []complex128 {
	n := len(x)
	if n == 0 {
		return dst[:0]
	}
	half := n/2 + 1
	if len(dst) != half {
		panic(fmt.Sprintf("dsp: RFFTInto dst of %d bins for length %d (want %d)", len(dst), n, half))
	}
	if n%2 != 0 {
		spec := FFTReal(x)
		copy(dst, spec[:half])
		return dst
	}
	m := n / 2
	if len(scratch) < m {
		panic(fmt.Sprintf("dsp: RFFTInto scratch of %d for length %d (want %d)", len(scratch), n, m))
	}
	rfftEven(dst, x, scratch[:m], rfftPlanFor(n))
	return dst
}

// IRFFT inverts RFFT: given the half spectrum of a real signal of length n
// (len(spec) must be n/2+1) it returns the time-domain signal, normalized
// by 1/n to match IFFT.
func IRFFT(spec []complex128, n int) []float64 {
	if n == 0 {
		return nil
	}
	half := n/2 + 1
	if len(spec) != half {
		panic(fmt.Sprintf("dsp: IRFFT of %d bins for length %d (want %d)", len(spec), n, half))
	}
	if n%2 != 0 {
		full := make([]complex128, n)
		copy(full, spec)
		for k := half; k < n; k++ {
			full[k] = cmplx.Conj(spec[n-k])
		}
		t := IFFT(full)
		out := make([]float64, n)
		for i, c := range t {
			out[i] = real(c)
		}
		return out
	}
	p := rfftPlanFor(n)
	zptr := p.scratch.Get().(*[]complex128)
	out := make([]float64, n)
	irfftEven(out, spec, *zptr, p)
	p.scratch.Put(zptr)
	return out
}

// irfftEven is the even-length inverse core shared by IRFFT and IRFFTInto:
// untangle spec into the m-point work buffer z (gathered into bit-reversed
// slots for a power-of-two core, as in rfftEven), inverse-transform, and
// deinterleave into out (length n) with the 1/m normalization.
func irfftEven(out []float64, spec, z []complex128, p *rfftPlan) {
	m := len(out) / 2
	z = z[:m]
	rev := p.rev
	if rev != nil {
		for i, k := range rev {
			z[i] = untangleInv(spec, p.w, m, int(k))
		}
	} else {
		for k := range z {
			z[k] = untangleInv(spec, p.w, m, k)
		}
	}
	Z := z
	if rev != nil {
		fftStages(z, true)
	} else {
		Z = bluestein(z, true)
	}
	inv := 1 / float64(m)
	for j := 0; j < m; j++ {
		out[2*j] = real(Z[j]) * inv
		out[2*j+1] = imag(Z[j]) * inv
	}
}

// untangleInv recombines bins k and m−k of a real signal's half spectrum
// into entry k of the packed m-point inverse input: E + i·O.
func untangleInv(spec, w []complex128, m, k int) complex128 {
	xk := spec[k]
	xmk := cmplx.Conj(spec[m-k])
	e := (xk + xmk) * 0.5
	o := (xk - xmk) * 0.5 * cmplx.Conj(w[k])
	return e + complex(0, 1)*o
}

// IRFFTInto is IRFFT writing the time-domain signal into dst — len(dst)
// must be n — using a caller-provided work buffer of at least
// RFFTScratchLen(n) entries instead of the plan's scratch pool. Batched
// response paths (the V_MIN ladder) use it to keep every per-supply
// inversion in per-worker slab rows. The untangle, transform and
// deinterleave run the same arithmetic in the same order as IRFFT, so the
// filled signal is bit-identical; dst is returned.
func IRFFTInto(dst []float64, spec []complex128, n int, scratch []complex128) []float64 {
	if n == 0 {
		return dst[:0]
	}
	half := n/2 + 1
	if len(spec) != half {
		panic(fmt.Sprintf("dsp: IRFFTInto of %d bins for length %d (want %d)", len(spec), n, half))
	}
	if len(dst) != n {
		panic(fmt.Sprintf("dsp: IRFFTInto dst of %d for length %d", len(dst), n))
	}
	if n%2 != 0 {
		// Odd lengths use the full-transform fallback either way.
		copy(dst, IRFFT(spec, n))
		return dst
	}
	m := n / 2
	if len(scratch) < m {
		panic(fmt.Sprintf("dsp: IRFFTInto scratch of %d for length %d (want %d)", len(scratch), n, m))
	}
	irfftEven(dst, spec, scratch, rfftPlanFor(n))
	return dst
}

// CAbs returns |c| without the overflow/underflow guards of cmplx.Abs —
// appropriate for spectra whose magnitudes are nowhere near the float64
// range limits, and measurably cheaper in per-bin loops.
func CAbs(c complex128) float64 {
	re, im := real(c), imag(c)
	return math.Sqrt(re*re + im*im)
}
