package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/castore"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/ga"
	"repro/internal/lab"
	"repro/internal/platform"
	"repro/internal/vmin"
	suites "repro/internal/workload"
)

func buildPlatform(e *env, name string) (*platform.Platform, error) {
	t := time.Now()
	p, err := platform.Build(name)
	e.ctr.buildDurs = append(e.ctr.buildDurs, time.Since(t))
	return p, err
}

func newBench(e *env, p *platform.Platform) (*core.Bench, error) {
	b, err := core.NewBench(p, e.seed)
	if err != nil {
		return nil, err
	}
	b.Samples = gaSamples
	b.Parallelism = e.jobs
	return b, nil
}

// a72Bench builds a fresh juno platform and returns its A72 domain with a
// new bench on it.
func a72Bench(e *env) (*platform.Domain, *core.Bench, error) {
	p, err := buildPlatform(e, "juno-r2")
	if err != nil {
		return nil, nil, err
	}
	d, err := p.Domain(platform.DomainA72)
	if err != nil {
		return nil, nil, err
	}
	b, err := newBench(e, p)
	return d, b, err
}

func checkDigest(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: output digest %016x, expected %016x", what, got, want)
	}
	return nil
}

// checkCampaign compares a whole campaign's digests with the pinned ones
// when the run uses the pinned seed.
func checkCampaign(e *env, chipName string, got []uint64) error {
	if e.seed != pinnedSeed {
		return nil
	}
	want := pinnedGA[chipName]
	if len(got) != len(want) {
		return fmt.Errorf("%s campaign: %d generations, %d pinned", chipName, len(got), len(want))
	}
	for g := range got {
		if err := checkDigest(fmt.Sprintf("%s generation %d (pinned)", chipName, g), got[g], want[g]); err != nil {
			return err
		}
	}
	return nil
}

// spectraCounts sums the domains' spectra-memo counters.
func spectraCounts(doms []*platform.Domain) (hits, lookups uint64) {
	for _, d := range doms {
		h, m, _ := d.SpectraCacheStats()
		hits += h
		lookups += h + m
	}
	return hits, lookups
}

// ---- ga-virus ----

// gaVirus rotates EM-driven GA campaigns over the A72, A53 and Athlon II,
// each on a fresh bench with cold simulation caches. One step is one
// generation.
type gaVirus struct {
	doms    []*platform.Domain
	plats   []*platform.Platform
	refs    [][]uint64
	rep     []*replayer
	started int
	ci      int
	cur     *campaign
	bench   *core.Bench
	spec0   [2]uint64
}

func (w *gaVirus) setup(e *env) error {
	byName := map[string]*platform.Platform{}
	w.doms, w.plats = nil, nil
	for _, c := range chips {
		p := byName[c.platform]
		if p == nil {
			var err error
			if p, err = buildPlatform(e, c.platform); err != nil {
				return err
			}
			byName[c.platform] = p
		}
		d, err := p.Domain(c.domain)
		if err != nil {
			return err
		}
		w.doms = append(w.doms, d)
		w.plats = append(w.plats, p)
	}
	// Warm-up: one generation per chip builds the transfer sets and pools.
	for i, c := range chips {
		coldReset(e, w.doms...)
		b, err := newBench(e, w.plats[i])
		if err != nil {
			return err
		}
		cm := newCampaign(gaConfig(w.doms[i].Spec.Pool(), e.seed, e.jobs), b.EMMeasurer(w.doms[i], c.cores), "core.eval")
		if _, _, err := cm.generation(e); err != nil {
			return err
		}
	}
	w.cur, w.bench, w.started = nil, nil, 0
	return nil
}

func (w *gaVirus) reference(e *env) error {
	w.refs = make([][]uint64, len(chips))
	var firstErr error
	for i, c := range chips {
		coldReset(e, w.doms...)
		b, err := newBench(e, w.plats[i])
		if err != nil {
			return err
		}
		ref, err := referenceCampaign(gaConfig(w.doms[i].Spec.Pool(), e.seed, e.jobs), b.EMMeasurer(w.doms[i], c.cores))
		if err != nil {
			return err
		}
		w.refs[i] = ref
		if err := checkCampaign(e, c.name, ref); err != nil && firstErr == nil {
			firstErr = err
		}
		if e.trace {
			r, err := newReplayer(e, b, w.doms[i], filepath.Join(e.dir, "replay-store"))
			if err != nil {
				return err
			}
			w.rep = append(w.rep, r)
		}
	}
	h, l := spectraCounts(w.doms)
	w.spec0 = [2]uint64{h, l}
	return firstErr
}

func (w *gaVirus) next(e *env) error {
	if w.cur != nil && !w.cur.done() {
		return nil
	}
	foldBatch(e, w.bench)
	w.ci = w.started % len(chips)
	w.started++
	coldReset(e, w.doms...)
	runtime.GC() // a fresh process would not carry the flushed memos
	b, err := newBench(e, w.plats[w.ci])
	if err != nil {
		return err
	}
	w.bench = b
	c := chips[w.ci]
	w.cur = newCampaign(gaConfig(w.doms[w.ci].Spec.Pool(), e.seed, e.jobs), b.EMMeasurer(w.doms[w.ci], c.cores), "core.eval")
	return nil
}

func (w *gaVirus) step(e *env) (stepOut, error) {
	c, gen := chips[w.ci], w.cur.gen
	before := w.bench.BatchStats().Measured
	pop, dg, err := w.cur.generation(e)
	if err != nil {
		w.cur = nil
		return stepOut{}, err
	}
	if e.tr != nil {
		e.ctr.tracedMeasured += w.bench.BatchStats().Measured - before
		if err := w.rep[w.ci].item(e, pop[(gen*7+w.started)%len(pop)], c.cores); err != nil {
			return stepOut{}, err
		}
	}
	if err := checkDigest(fmt.Sprintf("%s generation %d", c.name, gen), dg, w.refs[w.ci][gen]); err != nil {
		return stepOut{}, err
	}
	return stepOut{items: len(pop), kind: c.name}, nil
}

func (w *gaVirus) layers(e *env, m metricSet) {
	foldBatch(e, w.bench)
	w.bench = nil
	coldReset(e)
	h, l := spectraCounts(w.doms)
	m.put("platform.spectra_hit_frac", ratio(float64(h-w.spec0[0]), float64(l-w.spec0[1])))
}

func (w *gaVirus) close() {}

// ---- opsweep ----

// opSweep runs passes of the paper's operating-point methods: fast
// resonance sweeps on the A72 with 2 and 1 powered cores, the A53 and the
// Athlon II, then a 4-clock V_MIN shmoo of one suite workload on the A72.
// Every pass starts with cold reuse layers; the transfer sets are built in
// set-up. One step is one pass.
type opSweep struct {
	juno, amd     *platform.Platform
	a72, a53, ath *platform.Domain
	shmoo         platform.Load
	clocks        []float64
	bench         map[*platform.Domain]*core.Bench
	ref           uint64
	rep           *replayer
	probe         platform.Load
	last          *core.SweepResult
	passes        int
}

// shmooWorkload is the suite workload the pass shmoos.
const shmooWorkload = "mcf"

func (w *opSweep) setup(e *env) error {
	juno, err := buildPlatform(e, "juno-r2")
	if err != nil {
		return err
	}
	amd, err := buildPlatform(e, "amd-desktop")
	if err != nil {
		return err
	}
	w.juno, w.amd = juno, amd
	if w.a72, err = juno.Domain(platform.DomainA72); err != nil {
		return err
	}
	if w.a53, err = juno.Domain(platform.DomainA53); err != nil {
		return err
	}
	if w.ath, err = amd.Domain(platform.DomainAthlon); err != nil {
		return err
	}
	wl, err := suites.ByName(shmooWorkload)
	if err != nil {
		return err
	}
	seq, err := wl.Build(w.a72.Spec.Pool())
	if err != nil {
		return err
	}
	w.shmoo = platform.Load{Seq: seq, ActiveCores: 2}
	w.clocks = core.SweepClockSteps(w.a72)[:4]
	// Warm-up: one pass builds every transfer set the passes use.
	if err := w.next(e); err != nil {
		return err
	}
	_, _, err = w.pass(e)
	return err
}

func (w *opSweep) reference(e *env) error {
	if err := w.next(e); err != nil {
		return err
	}
	d, _, err := w.pass(e)
	if err != nil {
		return err
	}
	w.ref = d
	if e.trace {
		if w.rep, err = newReplayer(e, w.bench[w.a72], w.a72, filepath.Join(e.dir, "replay-store")); err != nil {
			return err
		}
		probe, err := suites.Probe().Build(w.a72.Spec.Pool())
		if err != nil {
			return err
		}
		w.probe = platform.Load{Seq: probe, ActiveCores: 2}
	}
	if e.seed == pinnedSeed {
		return checkDigest("opsweep pass (pinned)", d, pinnedOpsweep)
	}
	return nil
}

// next gives the pass fresh benches (empty measurement memo and probe
// cache) and cold simulation caches.
func (w *opSweep) next(e *env) error {
	coldReset(e, w.a72, w.a53, w.ath)
	bj, err := newBench(e, w.juno)
	if err != nil {
		return err
	}
	ba, err := newBench(e, w.amd)
	if err != nil {
		return err
	}
	w.bench = map[*platform.Domain]*core.Bench{w.a72: bj, w.a53: bj, w.ath: ba}
	return nil
}

// pass runs one pass and returns its digest and operating-point count.
func (w *opSweep) pass(e *env) (uint64, int, error) {
	dg, items := newDigest(), 0
	sweep := func(d *platform.Domain, powered, active int) error {
		if err := d.SetPoweredCores(powered); err != nil {
			return err
		}
		defer d.Reset()
		var r *core.SweepResult
		if err := e.tr.do("core.sweep", func() (err error) {
			r, err = w.bench[d].FastResonanceSweep(d, active)
			return err
		}); err != nil {
			return fmt.Errorf("%s sweep: %w", d.Spec.Name, err)
		}
		if d == w.a72 && powered == 2 {
			w.last = r
		}
		dg = dg.f64(r.ResonanceHz).f64(r.PeakDBm)
		items += len(core.SweepClockSteps(d))
		return nil
	}
	for _, s := range []struct {
		d               *platform.Domain
		powered, active int
	}{{w.a72, 2, 2}, {w.a72, 1, 1}, {w.a53, 4, 1}, {w.ath, 4, 4}} {
		if err := sweep(s.d, s.powered, s.active); err != nil {
			return 0, 0, err
		}
	}
	t := vmin.NewTester(w.a72, e.seed)
	t.Parallelism = e.jobs
	var pts []vmin.ShmooPoint
	if err := e.tr.do("vmin.shmoo", func() (err error) {
		pts, err = t.Shmoo(w.shmoo, w.clocks)
		return err
	}); err != nil {
		return 0, 0, err
	}
	for _, p := range pts {
		dg = dg.f64(p.VminV).f64(p.MarginV)
	}
	return uint64(dg), items + len(pts), nil
}

func (w *opSweep) step(e *env) (stepOut, error) {
	dg, items, err := w.pass(e)
	if err != nil {
		return stepOut{}, err
	}
	if e.tr != nil {
		pt := w.last.Points[w.passes%len(w.last.Points)]
		if err := w.rep.point(e, w.probe, pt); err != nil {
			return stepOut{}, err
		}
		if err := w.rep.column(e, w.shmoo, w.clocks[w.passes%len(w.clocks)], w.clocks[0]); err != nil {
			return stepOut{}, err
		}
	}
	w.passes++
	if err := checkDigest("opsweep pass", dg, w.ref); err != nil {
		return stepOut{}, err
	}
	return stepOut{items: items, kind: "pass"}, nil
}

func (w *opSweep) layers(e *env, m metricSet) { coldReset(e) }

func (w *opSweep) close() {}

// ---- warm-restart ----

// warmRestart fills a persistent store with an A72 campaign in set-up
// (the write path) and replays the whole campaign from it in every step,
// each time from fresh process state: a newly opened store, a new
// platform and bench, and empty simulation caches (the read path). The
// store sits under the bench measurement memo, the only tier a replay
// reads.
type warmRestart struct {
	dir         string
	ref         []uint64
	fill        castore.Stats
	fillItems   int
	rep         *replayer
	hits, total uint64
	steps       int
}

func (w *warmRestart) setup(e *env) error {
	dir, err := os.MkdirTemp(e.dir, "store")
	if err != nil {
		return err
	}
	w.dir = dir
	s, err := castore.Open(w.dir, castore.Options{})
	if err != nil {
		return err
	}
	core.SetPersistentStore(s)
	defer core.SetPersistentStore(nil)
	coldReset(e)
	d, b, err := a72Bench(e)
	if err != nil {
		return err
	}
	if w.ref, err = referenceCampaign(gaConfig(d.Spec.Pool(), e.seed, e.jobs), b.EMMeasurer(d, chips[0].cores)); err != nil {
		return err
	}
	w.fill, w.fillItems = s.Stats(), gaPop*gaGens
	// Warm-up: one replay.
	_, err = w.replay(e, nil)
	return err
}

func (w *warmRestart) reference(e *env) error {
	if e.trace {
		d, b, err := a72Bench(e)
		if err != nil {
			return err
		}
		if w.rep, err = newReplayer(e, b, d, filepath.Join(e.dir, "replay-store")); err != nil {
			return err
		}
	}
	return checkCampaign(e, "a72", w.ref)
}

func (w *warmRestart) next(e *env) error { return nil }

// replay runs one whole campaign from fresh process state against the
// filled store, checking each generation against the cold campaign.
func (w *warmRestart) replay(e *env, rep *replayer) (castore.Stats, error) {
	s, err := castore.Open(w.dir, castore.Options{})
	if err != nil {
		return castore.Stats{}, err
	}
	core.SetPersistentStore(s)
	defer core.SetPersistentStore(nil)
	coldReset(e)
	d, b, err := a72Bench(e)
	if err != nil {
		return castore.Stats{}, err
	}
	defer foldBatch(e, b)
	c := newCampaign(gaConfig(d.Spec.Pool(), e.seed, e.jobs), b.EMMeasurer(d, chips[0].cores), "core.eval")
	sample := w.steps % gaGens
	for !c.done() {
		gen := c.gen
		pop, dg, err := c.generation(e)
		if err != nil {
			return castore.Stats{}, err
		}
		if err := checkDigest(fmt.Sprintf("replayed generation %d", gen), dg, w.ref[gen]); err != nil {
			return castore.Stats{}, err
		}
		if rep != nil && gen == sample {
			if err := rep.item(e, pop[(gen*7+w.steps)%len(pop)], chips[0].cores); err != nil {
				return castore.Stats{}, err
			}
		}
	}
	return s.Stats(), nil
}

func (w *warmRestart) step(e *env) (stepOut, error) {
	var rep *replayer
	if e.tr != nil {
		rep = w.rep
	}
	st, err := w.replay(e, rep)
	w.steps++
	if err != nil {
		return stepOut{}, err
	}
	w.hits += st.Hits
	w.total += st.Hits + st.Misses
	return stepOut{items: gaPop * gaGens, kind: "a72"}, nil
}

func (w *warmRestart) layers(e *env, m metricSet) {
	coldReset(e)
	m.put("castore.hit_frac", ratio(float64(w.hits), float64(w.total)))
	m.put("castore.bytes_per_item", float64(w.fill.Bytes)/float64(w.fillItems))
	m.put("castore.puts_per_item", float64(w.fill.Puts)/float64(w.fillItems))
}

func (w *warmRestart) close() { core.SetPersistentStore(nil) }

// ---- fleet-remote ----

// fleetRemote runs the A72 campaigns of ga-virus sharded by the fleet over
// two in-process lab daemons on loopback, one session each. One step is
// one generation.
type fleetRemote struct {
	servers []*lab.Server
	served  []chan struct{}
	remotes []*backend.Remote
	benches []*core.Bench
	doms    []*platform.Domain
	fl      *fleet.Fleet
	m       ga.Measurer
	ref     []uint64
	cur     *campaign
	rep     *replayer
	lab0    lab.Stats
	spec0   [2]uint64
	started int
}

func (w *fleetRemote) setup(e *env) error {
	w.close()
	var rigs []fleet.Rig
	for i := 0; i < 2; i++ {
		d, b, err := a72Bench(e)
		if err != nil {
			return err
		}
		srv, err := lab.NewServer(b)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		done := make(chan struct{})
		go func() {
			_ = srv.Serve(ln) // nil after Shutdown; earlier failures show as failed steps
			close(done)
		}()
		w.servers, w.served = append(w.servers, srv), append(w.served, done)
		w.benches, w.doms = append(w.benches, b), append(w.doms, d)
		rem, err := backend.NewRemote(ln.Addr().String(), 1, lab.Options{})
		if err != nil {
			return err
		}
		w.remotes = append(w.remotes, rem)
		rigs = append(rigs, fleet.Rig{Name: fmt.Sprintf("rig%d", i), Backend: rem})
	}
	fl, err := fleet.New(rigs, fleet.Options{Slots: e.jobs, Salt: uint64(e.seed)})
	if err != nil {
		return err
	}
	w.fl = fl
	spec := backend.MeasurerSpec{Domain: platform.DomainA72, Metric: backend.MetricEM,
		ActiveCores: chips[0].cores, Samples: gaSamples}
	if w.m, err = fl.Measurer(spec); err != nil {
		return err
	}
	// Warm-up: one generation builds the daemons' transfer sets.
	w.cur = nil
	if err := w.next(e); err != nil {
		return err
	}
	_, _, err = w.cur.generation(e)
	w.cur, w.started = nil, 0
	return err
}

func (w *fleetRemote) reference(e *env) error {
	coldReset(e, w.doms...)
	d, b, err := a72Bench(e)
	if err != nil {
		return err
	}
	if w.ref, err = referenceCampaign(gaConfig(d.Spec.Pool(), e.seed, e.jobs), b.EMMeasurer(d, chips[0].cores)); err != nil {
		return err
	}
	if e.trace {
		if w.rep, err = newReplayer(e, w.benches[0], w.doms[0], filepath.Join(e.dir, "replay-store")); err != nil {
			return err
		}
	}
	w.lab0 = w.labStats()
	h, l := spectraCounts(w.doms)
	w.spec0 = [2]uint64{h, l}
	return checkCampaign(e, "a72", w.ref)
}

func (w *fleetRemote) labStats() lab.Stats {
	var s lab.Stats
	s.Commands = map[string]lab.CommandStats{}
	for _, r := range w.remotes {
		ts := r.TransportStats()
		s.Dials += ts.Dials
		s.Reconnects += ts.Reconnects
		for v, c := range ts.Commands {
			cur := s.Commands[v]
			cur.Calls += c.Calls
			cur.Retries += c.Retries
			cur.Total += c.Total
			s.Commands[v] = cur
		}
	}
	return s
}

func (w *fleetRemote) next(e *env) error {
	if w.cur != nil && !w.cur.done() {
		return nil
	}
	coldReset(e, w.doms...)
	runtime.GC() // a fresh process would not carry the flushed memos
	w.started++
	w.cur = newCampaign(gaConfig(w.doms[0].Spec.Pool(), e.seed, e.jobs), w.m, "fleet.eval")
	return nil
}

func (w *fleetRemote) step(e *env) (stepOut, error) {
	gen := w.cur.gen
	pop, dg, err := w.cur.generation(e)
	if err != nil {
		w.cur = nil
		return stepOut{}, err
	}
	if e.tr != nil {
		if err := w.rep.item(e, pop[(gen*7+w.started)%len(pop)], chips[0].cores); err != nil {
			return stepOut{}, err
		}
	}
	if err := checkDigest(fmt.Sprintf("fleet generation %d", gen), dg, w.ref[gen]); err != nil {
		return stepOut{}, err
	}
	return stepOut{items: len(pop), kind: "a72"}, nil
}

func (w *fleetRemote) layers(e *env, m metricSet) {
	coldReset(e)
	now := w.labStats()
	items := float64(e.ctr.items)
	var calls, retries int64
	var ctrl time.Duration
	for v, c := range now.Commands {
		d := c
		d.Calls -= w.lab0.Commands[v].Calls
		d.Retries -= w.lab0.Commands[v].Retries
		d.Total -= w.lab0.Commands[v].Total
		calls += d.Calls
		retries += d.Retries
		switch v {
		case "MEASURE":
			m.put("lab.measure_us", ratio(us(d.Total), float64(d.Calls)))
			m.put("fleet.rig_busy_frac", ratio(d.Total.Seconds(), float64(len(w.remotes))*e.ctr.evalSeconds))
		case "LOAD", "RUN", "STOP":
			ctrl += d.Total
		}
	}
	m.put("lab.roundtrips_per_item", ratio(float64(calls), items))
	m.put("lab.ctrl_us_per_item", ratio(us(ctrl), items))
	m.put("lab.retries", float64(retries))
	h, l := spectraCounts(w.doms)
	m.put("platform.spectra_hit_frac", ratio(float64(h-w.spec0[0]), float64(l-w.spec0[1])))
}

func (w *fleetRemote) close() {
	if w.fl != nil {
		w.fl.Close()
	}
	for i, s := range w.servers {
		s.Shutdown()
		<-w.served[i]
	}
	*w = fleetRemote{}
}
