package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ga"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/uarch"
)

// Paper parameters of the GA campaigns (Section 3): population 50, 60
// generations, 50-instruction loops, 30 analyzer sweeps per measurement.
const (
	gaPop     = 50
	gaGens    = 60
	gaSeqLen  = 50
	gaSamples = 30
)

// chip is one GA target of the paper: Fig. 7 (A72), Fig. 12 (A53) and
// Fig. 17 (Athlon II).
type chip struct {
	name, platform, domain string
	cores                  int
}

var chips = []chip{
	{"a72", "juno-r2", platform.DomainA72, 2},
	{"a53", "juno-r2", platform.DomainA53, 4},
	{"athlon", "amd-desktop", platform.DomainAthlon, 4},
}

// digest folds IEEE-754 bit patterns (and small integers) into one 64-bit
// FNV-1a value, so two results agree only if every input agrees bit for bit.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d digest) u64(v uint64) digest {
	for i := 0; i < 8; i++ {
		d ^= digest(byte(v >> (8 * i)))
		d *= 1099511628211
	}
	return d
}

func (d digest) f64(v float64) digest { return d.u64(math.Float64bits(v)) }

// genDigest is one GA generation's output: best fitness, mean fitness and
// the best individual's dominant frequency, as ga.Run summarizes it.
func genDigest(gen int, best, mean, dominant float64) uint64 {
	return uint64(newDigest().u64(uint64(gen)).f64(best).f64(mean).f64(dominant))
}

// popDigest summarizes a measured population exactly the way ga.Run's
// GenerationStats does (first strict maximum; mean in index order).
func popDigest(gen int, pop []ga.Individual) uint64 {
	best := 0
	var sum float64
	for i := range pop {
		sum += pop[i].Fitness
		if pop[i].Fitness > pop[best].Fitness {
			best = i
		}
	}
	return genDigest(gen, pop[best].Fitness, sum/float64(len(pop)), pop[best].DominantHz)
}

func gaConfig(pool *isa.Pool, seed int64, jobs int) ga.Config {
	cfg := ga.DefaultConfig(pool)
	cfg.PopulationSize = gaPop
	cfg.Generations = gaGens
	cfg.SeqLen = gaSeqLen
	cfg.Seed = seed
	cfg.Parallelism = jobs
	return cfg
}

// referenceCampaign runs a whole campaign through ga.Run, the library's
// own driver, and returns its per-generation digests.
func referenceCampaign(cfg ga.Config, m ga.Measurer) ([]uint64, error) {
	var out []uint64
	_, err := ga.Run(cfg, m, func(s ga.GenerationStats) {
		out = append(out, genDigest(s.Gen, s.BestFitness, s.MeanFitness, s.BestDominant))
	})
	return out, err
}

// campaign steps a GA campaign one generation at a time through the same
// public calls ga.Run composes (EvaluatePopulation, NextGeneration).
type campaign struct {
	cfg      ga.Config
	m        ga.Measurer
	rng      *rand.Rand
	pop      []ga.Individual
	gen      int
	evalSpan string
}

func newCampaign(cfg ga.Config, m ga.Measurer, evalSpan string) *campaign {
	rng := rand.New(rand.NewSource(cfg.Seed))
	pop := make([]ga.Individual, cfg.PopulationSize)
	for i := range pop {
		pop[i] = ga.Individual{Seq: cfg.Pool.RandomSequence(rng, cfg.SeqLen)}
	}
	return &campaign{cfg: cfg, m: m, rng: rng, pop: pop, evalSpan: evalSpan}
}

func (c *campaign) done() bool { return c.gen >= c.cfg.Generations }

// generation measures the current population, breeds the next one and
// returns the measured generation with its digest.
func (c *campaign) generation(e *env) (measured []ga.Individual, d uint64, err error) {
	if err := e.timeEval(c.evalSpan, func() error {
		return ga.EvaluatePopulation(c.pop, c.m, c.cfg.Parallelism)
	}); err != nil {
		return nil, 0, fmt.Errorf("generation %d: %w", c.gen, err)
	}
	measured = c.pop
	d = popDigest(c.gen, measured)
	c.gen++
	if !c.done() {
		e.tr.do("ga.breed", func() error {
			c.pop = ga.NextGeneration(c.cfg, c.rng, c.pop)
			return nil
		})
	}
	return measured, d, nil
}

// coldReset empties the process-wide simulation caches so the next
// campaign starts cold, first folding their counters into the run totals.
// The domains' spectra memos are cut to one entry (the smallest cap a
// domain takes); their PDN transfer sets, built in set-up, stay.
func coldReset(e *env, doms ...*platform.Domain) {
	ts := uarch.TraceCacheStats()
	e.ctr.traceHits += ts.Hits
	e.ctr.traceLookups += ts.Hits + ts.Misses + ts.Extensions
	cs := uarch.CheckpointStoreStats()
	e.ctr.ckptHits += cs.Hits
	e.ctr.ckptProbes += cs.Hits + cs.Misses
	e.ctr.ckptResumed += cs.MeanResumeDepth * float64(cs.Hits)
	uarch.ResetTraceCache()
	uarch.ResetCheckpointStore()
	for _, d := range doms {
		d.SetSpectraCacheCap(1)
		d.SetSpectraCacheCap(0)
	}
}

// foldBatch adds a finished bench's batch counters to the run totals.
func foldBatch(e *env, b *core.Bench) {
	if b == nil {
		return
	}
	bs := b.BatchStats()
	e.ctr.batchItems += bs.Items
	e.ctr.batchMeasured += bs.Measured
}
