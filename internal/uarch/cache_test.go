package uarch

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/isa"
)

// requireSameResult compares two Results bit-for-bit: the determinism
// contract is that cached, synthesized and fresh runs are indistinguishable.
func requireSameResult(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Warmup != want.Warmup || got.Iterations != want.Iterations {
		t.Fatalf("%s: warmup/iterations (%d, %d) != (%d, %d)",
			label, got.Warmup, got.Iterations, want.Warmup, want.Iterations)
	}
	if math.Float64bits(got.LoopCycles) != math.Float64bits(want.LoopCycles) {
		t.Fatalf("%s: LoopCycles %v != %v", label, got.LoopCycles, want.LoopCycles)
	}
	if math.Float64bits(got.IPC) != math.Float64bits(want.IPC) {
		t.Fatalf("%s: IPC %v != %v", label, got.IPC, want.IPC)
	}
	if len(got.Charge) != len(want.Charge) {
		t.Fatalf("%s: charge length %d != %d", label, len(got.Charge), len(want.Charge))
	}
	for i := range got.Charge {
		if math.Float64bits(got.Charge[i]) != math.Float64bits(want.Charge[i]) {
			t.Fatalf("%s: charge[%d] = %v != %v", label, i, got.Charge[i], want.Charge[i])
		}
	}
}

// uncachedRun simulates exactly the window requested, bypassing the cache.
func uncachedRun(t *testing.T, cfg Config, seq []isa.Inst, minSteady int) *Result {
	t.Helper()
	hist, err := newSim(&cfg, seq, simHint(minSteady)).run(minSteady)
	if err != nil {
		t.Fatalf("uncached run: %v", err)
	}
	res, err := hist.synth(minSteady)
	if err != nil {
		t.Fatalf("uncached synth: %v", err)
	}
	return res
}

// TestShorterRunIsPrefix checks the lemma the whole cache rests on: a run
// with a shorter steady window is a strict prefix of a longer one — same
// charge bits, same iteration starts, same cumulative issue counts.
func TestShorterRunIsPrefix(t *testing.T) {
	pools := map[string]*isa.Pool{"arm64": isa.ARM64Pool(), "x86": isa.X86Pool()}
	for _, cfg := range []Config{CortexA72(), CortexA53(), AthlonII()} {
		for pname, pool := range pools {
			rng := rand.New(rand.NewSource(41))
			for trial := 0; trial < 4; trial++ {
				seq := pool.RandomSequence(rng, 5+rng.Intn(60))
				short, err := newSim(&cfg, seq, simHint(200)).run(200)
				if err != nil {
					t.Fatal(err)
				}
				long, err := newSim(&cfg, seq, simHint(1500)).run(1500)
				if err != nil {
					t.Fatal(err)
				}
				if short.warmup != long.warmup {
					t.Fatalf("%s/%s: warmup %d != %d", cfg.Name, pname, short.warmup, long.warmup)
				}
				for i, q := range short.charge {
					if math.Float64bits(q) != math.Float64bits(long.charge[i]) {
						t.Fatalf("%s/%s: charge[%d] diverges: %v != %v", cfg.Name, pname, i, q, long.charge[i])
					}
				}
				for i, c := range short.cumIssued {
					if c != long.cumIssued[i] {
						t.Fatalf("%s/%s: cumIssued[%d] diverges: %d != %d", cfg.Name, pname, i, c, long.cumIssued[i])
					}
				}
				for i, c := range short.iterStarts {
					if c != long.iterStarts[i] {
						t.Fatalf("%s/%s: iterStarts[%d] diverges: %d != %d", cfg.Name, pname, i, c, long.iterStarts[i])
					}
				}
			}
		}
	}
}

// TestCachedRunBitIdentical drives Run through the cache with windows in
// every order — descending (sweep order), ascending (forces extensions) and
// mixed — and requires bit-identical Results versus exact-window
// simulations.
func TestCachedRunBitIdentical(t *testing.T) {
	pool := isa.ARM64Pool()
	windows := []int{900, 300, 1700, 50, 1700, 4200, 128, 4200}
	for _, cfg := range []Config{CortexA72(), CortexA53(), AthlonII()} {
		rng := rand.New(rand.NewSource(97))
		for trial := 0; trial < 3; trial++ {
			seq := pool.RandomSequence(rng, 8+rng.Intn(50))
			ResetTraceCache()
			prev := SetTraceCacheEnabled(true)
			for _, m := range windows {
				got, err := Run(cfg, seq, m)
				if err != nil {
					t.Fatalf("%s: cached Run(%d): %v", cfg.Name, m, err)
				}
				requireSameResult(t, fmt.Sprintf("%s M=%d", cfg.Name, m), got, uncachedRun(t, cfg, seq, m))
			}
			SetTraceCacheEnabled(prev)
		}
	}
	ResetTraceCache()
}

// TestDisabledCacheBitIdentical checks that Run with the cache disabled
// matches Run with it enabled.
func TestDisabledCacheBitIdentical(t *testing.T) {
	pool := isa.X86Pool()
	rng := rand.New(rand.NewSource(7))
	seq := pool.RandomSequence(rng, 40)
	cfg := AthlonII()

	ResetTraceCache()
	prev := SetTraceCacheEnabled(true)
	defer func() { SetTraceCacheEnabled(prev); ResetTraceCache() }()
	cached, err := Run(cfg, seq, 2500)
	if err != nil {
		t.Fatal(err)
	}
	SetTraceCacheEnabled(false)
	plain, err := Run(cfg, seq, 2500)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "disabled vs enabled", plain, cached)
}

// TestTraceCacheStats exercises the counters: a first request misses, a
// shorter one hits, a longer one extends.
func TestTraceCacheStats(t *testing.T) {
	pool := isa.ARM64Pool()
	rng := rand.New(rand.NewSource(3))
	seq := pool.RandomSequence(rng, 20)
	cfg := CortexA72()

	ResetTraceCache()
	prev := SetTraceCacheEnabled(true)
	defer func() { SetTraceCacheEnabled(prev); ResetTraceCache() }()

	if _, err := Run(cfg, seq, 1000); err != nil {
		t.Fatal(err)
	}
	if st := TraceCacheStats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("after first run: %+v", st)
	}
	if _, err := Run(cfg, seq, 400); err != nil {
		t.Fatal(err)
	}
	if st := TraceCacheStats(); st.Hits != 1 {
		t.Fatalf("shorter window should hit: %+v", st)
	}
	if _, err := Run(cfg, seq, 5000); err != nil {
		t.Fatal(err)
	}
	if st := TraceCacheStats(); st.Extensions != 1 {
		t.Fatalf("longer window should extend: %+v", st)
	}
	if _, err := Run(cfg, seq, 4000); err != nil {
		t.Fatal(err)
	}
	if st := TraceCacheStats(); st.Hits != 2 {
		t.Fatalf("extended window should cover 4000: %+v", st)
	}
	if st := TraceCacheStats(); st.Cycles <= 0 || st.Cycles > traceCacheMaxCycles {
		t.Fatalf("cycle accounting out of range: %+v", st)
	}
}

// fakeHist fabricates a minimal history of the given total length so
// eviction accounting can be tested without running simulations.
func fakeHist(cfg *Config, n int) *traceHist {
	return &traceHist{cfg: cfg, charge: make([]float64, n), cumIssued: make([]int64, n), warmup: 1, steady: n - 1}
}

// TestTraceCacheEviction fills a private cache past its cycle budget and
// checks that old entries are dropped, recently used ones survive, and the
// accounting matches residency.
func TestTraceCacheEviction(t *testing.T) {
	cfg := CortexA72()
	pool := isa.ARM64Pool()
	rng := rand.New(rand.NewSource(11))
	c := newTraceCache()

	const chunk = traceCacheMaxCycles / 4
	var keys []uint64
	for i := 0; i < 6; i++ {
		seq := pool.RandomSequence(rng, 10)
		key := traceKey(&cfg, seq)
		keys = append(keys, key)
		e, ok := c.lookup(key, &cfg, seq)
		if !ok {
			t.Fatalf("entry %d: unexpected collision", i)
		}
		c.install(e, nil, fakeHist(&cfg, chunk))
	}
	if c.evictions.Load() == 0 {
		t.Fatal("no evictions past the cycle budget")
	}
	c.mu.Lock()
	cycles, entries := c.cycles, len(c.entries)
	_, newestResident := c.entries[keys[len(keys)-1]]
	_, oldestResident := c.entries[keys[0]]
	c.mu.Unlock()
	if cycles > traceCacheMaxCycles {
		t.Fatalf("cycle budget exceeded: %d > %d", cycles, traceCacheMaxCycles)
	}
	if cycles != entries*chunk {
		t.Fatalf("accounting drift: %d cycles for %d entries of %d", cycles, entries, chunk)
	}
	if !newestResident {
		t.Fatal("most recently installed entry was evicted")
	}
	if oldestResident {
		t.Fatal("least recently used entry survived past the budget")
	}
}

// TestSynthErrorMatchesFreshRun: synthesizing a window that a fresh run
// could never reach must reproduce the fresh run's error text.
func TestSynthErrorMatchesFreshRun(t *testing.T) {
	cfg := CortexA72()
	// A fresh Run(1) fails if steady state needs more than 1*64+100000
	// cycles; fabricate a history whose warmup alone exceeds that.
	h := fakeHist(&cfg, 200002)
	h.warmup = 200000
	h.steady = 2
	if _, err := h.synth(1); err == nil || err.Error() != steadyStateErr(1).Error() {
		t.Fatalf("synth error = %v, want %v", err, steadyStateErr(1))
	}
	if _, err := h.synth(2); err == nil {
		t.Fatal("expected limit error for M=2")
	}
}

// TestTraceCacheConcurrent hammers one key from many goroutines with mixed
// window lengths (the parallel-sweep access pattern) and checks every
// result against an exact-window simulation. Run under -race this also
// proves the lock discipline.
func TestTraceCacheConcurrent(t *testing.T) {
	pool := isa.ARM64Pool()
	rng := rand.New(rand.NewSource(23))
	seq := pool.RandomSequence(rng, 30)
	cfg := CortexA72()
	windows := []int{200, 800, 3000, 500, 1200}
	want := make(map[int]*Result)
	for _, m := range windows {
		want[m] = uncachedRun(t, cfg, seq, m)
	}

	ResetTraceCache()
	prev := SetTraceCacheEnabled(true)
	defer func() { SetTraceCacheEnabled(prev); ResetTraceCache() }()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < len(windows); i++ {
				m := windows[(g+i)%len(windows)]
				got, err := Run(cfg, seq, m)
				if err != nil {
					errs <- err
					return
				}
				w := want[m]
				if len(got.Charge) != len(w.Charge) ||
					math.Float64bits(got.LoopCycles) != math.Float64bits(w.LoopCycles) ||
					math.Float64bits(got.IPC) != math.Float64bits(w.IPC) {
					errs <- fmt.Errorf("goroutine %d: window %d diverged", g, m)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSteadyExtrapolationBitIdentical pins that fast-forwarding an exactly
// periodic steady state replicates what per-cycle simulation would have
// produced, bit for bit — across cores, ISAs, sequence lengths and steady
// windows — and that the fast path actually engages on GA-shaped runs.
func TestSteadyExtrapolationBitIdentical(t *testing.T) {
	pools := map[string]*isa.Pool{"arm64": isa.ARM64Pool(), "x86": isa.X86Pool()}
	fired := false
	for _, cfg := range []Config{CortexA72(), CortexA53(), AthlonII()} {
		for pname, pool := range pools {
			rng := rand.New(rand.NewSource(41))
			for _, seqLen := range []int{2, 5, 17, 50} {
				for _, steady := range []int{120, 700, 2500} {
					label := fmt.Sprintf("%s/%s len=%d steady=%d", cfg.Name, pname, seqLen, steady)
					seq := pool.RandomSequence(rng, seqLen)

					prev := SetSteadyExtrapolationEnabled(false)
					want := uncachedRun(t, cfg, seq, steady)
					SetSteadyExtrapolationEnabled(true)
					before := ExtrapolatedCycles()
					got := uncachedRun(t, cfg, seq, steady)
					if ExtrapolatedCycles() > before {
						fired = true
					}
					SetSteadyExtrapolationEnabled(prev)
					requireSameResult(t, label, got, want)
				}
			}
		}
	}
	if !fired {
		t.Fatal("steady-state extrapolation never engaged")
	}
}
