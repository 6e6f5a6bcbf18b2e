package platform

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/slab"
	"repro/internal/uarch"
)

func requireSameFloats(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v != %v", label, i, got[i], want[i])
		}
	}
}

// TestSpectraAtArenaMatchesSpectraAt pins the batched sweep's evaluation
// path: an arena-backed spectra computation (PreparePointAt +
// PointEval.SpectraArena at the domain's current snapshot) served from a
// campaign-primed trace must be bit-identical to the scalar memoized path
// at every clock, and the memo must still serve warm entries to the arena
// path.
func TestSpectraAtArenaMatchesSpectraAt(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	l := Load{Seq: probeLoop(t, d.Spec.Pool()), ActiveCores: 2}
	dt, n := 0.5e-9, 2048

	clocks := d.ClockSteps()
	var maxClock float64
	for _, c := range clocks {
		if c > maxClock {
			maxClock = c
		}
	}
	tr := d.PrimeTraceAt(l, dt, n, maxClock)
	if tr == nil {
		t.Fatal("priming failed for a valid campaign")
	}

	supply, powered := d.SupplyVolts(), d.PoweredCores()
	arenaSpectra := func(clock float64, ar *slab.Arena) (freqs, vAmp, iAmp []float64, err error) {
		pe, err := d.PreparePointAt(l, dt, n, clock, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		return pe.SpectraArena(supply, powered, ar)
	}

	var ar slab.Arena
	for _, clock := range clocks {
		ar.Reset()
		// Arena path first: the fresh domain's memo has no entry, so this
		// exercises the computing branch (which must NOT install).
		gotF, gotV, gotI, err := arenaSpectra(clock, &ar)
		if err != nil {
			t.Fatalf("clock %v: arena spectra: %v", clock, err)
		}
		wantF, wantV, wantI, _, err := d.SpectraAt(l, dt, n, clock)
		if err != nil {
			t.Fatalf("clock %v: scalar spectra: %v", clock, err)
		}
		requireSameFloats(t, fmt.Sprintf("clock %v freqs", clock), gotF, wantF)
		requireSameFloats(t, fmt.Sprintf("clock %v vAmp", clock), gotV, wantV)
		requireSameFloats(t, fmt.Sprintf("clock %v iAmp", clock), gotI, wantI)
	}

	// The scalar calls above installed memo entries; the arena path must
	// now serve them as hits.
	hits0, _, _ := d.SpectraCacheStats()
	ar.Reset()
	if _, _, _, err := arenaSpectra(clocks[0], &ar); err != nil {
		t.Fatal(err)
	}
	if hits1, _, _ := d.SpectraCacheStats(); hits1 != hits0+1 {
		t.Fatalf("warm arena call not served by memo: hits %d -> %d", hits0, hits1)
	}
}

// TestLadderMatchesSteadyResponseAt pins the V_MIN ladder: every supply
// step's (minV, droop) must match the scalar SteadyResponseAt pipeline bit
// for bit, the per-supply memo must be transparent, and the out-of-range
// error must be the scalar path's.
func TestLadderMatchesSteadyResponseAt(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	l := Load{Seq: probeLoop(t, d.Spec.Pool()), ActiveCores: 2}
	dt, n := 0.5e-9, 2048
	clock, err := d.SnapClock(0.9e9)
	if err != nil {
		t.Fatal(err)
	}

	var ar slab.Arena
	ld, err := d.LadderAt(l, dt, n, clock, nil, &ar)
	if err != nil {
		t.Fatal(err)
	}
	nominal := d.Spec.PDN.VNominal
	for _, supply := range []float64{nominal, nominal - 0.03, nominal - 0.11, nominal * 0.7} {
		minV, droop, err := ld.MinVDroop(supply)
		if err != nil {
			t.Fatalf("supply %v: %v", supply, err)
		}
		resp, _, err := d.SteadyResponseAt(l, dt, n, clock, supply)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(minV) != math.Float64bits(resp.MinVoltage()) {
			t.Fatalf("supply %v: minV %v != %v", supply, minV, resp.MinVoltage())
		}
		if math.Float64bits(droop) != math.Float64bits(resp.MaxDroop(supply)) {
			t.Fatalf("supply %v: droop %v != %v", supply, droop, resp.MaxDroop(supply))
		}
		// The memoized revisit must return the same bits.
		minV2, droop2, err := ld.MinVDroop(supply)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(minV2) != math.Float64bits(minV) || math.Float64bits(droop2) != math.Float64bits(droop) {
			t.Fatalf("supply %v: memoized revisit diverges", supply)
		}
	}

	_, _, gotErr := ld.MinVDroop(-0.1)
	_, _, wantErr := d.SteadyResponseAt(l, dt, n, clock, -0.1)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("out-of-range error mismatch: ladder %v, scalar %v", gotErr, wantErr)
	}

	// A ladder served from a primed trace must agree with the untraced one.
	tr := d.PrimeTraceAt(l, dt, n, clock)
	var ar2 slab.Arena
	ld2, err := d.LadderAt(l, dt, n, clock, tr, &ar2)
	if err != nil {
		t.Fatal(err)
	}
	a1, b1, err := ld.MinVDroop(nominal - 0.05)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := ld2.MinVDroop(nominal - 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a1) != math.Float64bits(a2) || math.Float64bits(b1) != math.Float64bits(b2) {
		t.Fatal("traced ladder diverges from untraced ladder")
	}
}

// TestSpectraCacheCapConfig exercises the configurable memo bound: the
// default, an explicit shrink (which must evict down to the new cap), the
// grow-only campaign sizing, and the reset back to the default.
func TestSpectraCacheCapConfig(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	if got := d.SpectraCacheCap(); got != DefaultSpectraCacheCap {
		t.Fatalf("default cap = %d, want %d", got, DefaultSpectraCacheCap)
	}

	l := Load{Seq: probeLoop(t, d.Spec.Pool()), ActiveCores: 2}
	dt, n := 0.5e-9, 1024
	clocks := d.ClockSteps()
	if len(clocks) < 3 {
		t.Fatalf("need at least 3 clock steps, have %d", len(clocks))
	}
	d.SetSpectraCacheCap(2)
	for _, clock := range clocks[:3] {
		if _, _, _, _, err := d.SpectraAt(l, dt, n, clock); err != nil {
			t.Fatal(err)
		}
	}
	d.spectraMu.Lock()
	live := len(d.spectra)
	d.spectraMu.Unlock()
	if live > 2 {
		t.Fatalf("cap 2 holds %d entries", live)
	}
	if _, _, evictions := d.SpectraCacheStats(); evictions == 0 {
		t.Fatal("no evictions counted past the cap")
	}

	d.EnsureSpectraCacheCap(8)
	if got := d.SpectraCacheCap(); got != 8 {
		t.Fatalf("ensured cap = %d, want 8", got)
	}
	d.EnsureSpectraCacheCap(4) // grow-only: must not shrink
	if got := d.SpectraCacheCap(); got != 8 {
		t.Fatalf("ensure shrank the cap to %d", got)
	}
	d.SetSpectraCacheCap(0) // back to the default
	if got := d.SpectraCacheCap(); got != DefaultSpectraCacheCap {
		t.Fatalf("reset cap = %d, want %d", got, DefaultSpectraCacheCap)
	}
}

// TestPrimeTraceAtDegenerateInputs: priming is best-effort and must return
// nil (not panic) on inputs the per-point path will reject properly.
func TestPrimeTraceAtDegenerateInputs(t *testing.T) {
	d := domain(t, juno(t), DomainA72)
	l := Load{Seq: probeLoop(t, d.Spec.Pool()), ActiveCores: 2}
	if tr := d.PrimeTraceAt(Load{}, 0.5e-9, 1024, 1e9); tr != nil {
		t.Fatal("empty load primed")
	}
	if tr := d.PrimeTraceAt(l, 0, 1024, 1e9); tr != nil {
		t.Fatal("zero dt primed")
	}
	if tr := d.PrimeTraceAt(l, 0.5e-9, 0, 1e9); tr != nil {
		t.Fatal("zero n primed")
	}
	var nilTrace *uarch.Trace
	if nilTrace.Covers(10) {
		t.Fatal("nil trace claims coverage")
	}
}

// BenchmarkLadderMinVDroop times one V_MIN ladder step — supply rescale,
// PDN steady state and the (minV, droop) read — on the campaign's default
// 8192 × 0.25 ns grid (A72, two active cores). The per-supply memo is
// cleared every iteration so each op pays the full step.
func BenchmarkLadderMinVDroop(b *testing.B) {
	d := domain(b, juno(b), DomainA72)
	l := Load{Seq: probeLoop(b, d.Spec.Pool()), ActiveCores: 2}
	clock, err := d.SnapClock(1.2e9)
	if err != nil {
		b.Fatal(err)
	}
	var ar slab.Arena
	ld, err := d.LadderAt(l, 0.25e-9, 8192, clock, nil, &ar)
	if err != nil {
		b.Fatal(err)
	}
	supply := d.Spec.PDN.VNominal - 0.05
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(ld.memo)
		if _, _, err := ld.MinVDroop(supply); err != nil {
			b.Fatal(err)
		}
	}
}
