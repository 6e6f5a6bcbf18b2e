package main

import (
	"sort"
	"time"
)

// perLayer lists every per-layer metric the traced run reports, in
// BENCHMARK.json order. A layer a workload never reaches reports 0.
var perLayer = []struct{ name, unit string }{
	{"uarch.sim_us_per_item", "us"},
	{"uarch.ckpt_hit_frac", "frac"},
	{"uarch.ckpt_resume_depth", "count"},
	{"uarch.trace_hit_frac", "frac"},
	{"uarch.prime_us_per_pass", "us"},
	{"power.fill_us_per_item", "us"},
	{"pdn.spectra_us_per_item", "us"},
	{"pdn.steady_us_per_supply", "us"},
	{"pdn.transfers_ms", "ms"},
	{"dsp.rfft_us", "us"},
	{"dsp.irfft_us", "us"},
	{"em.combine_us_per_item", "us"},
	{"instrument.peak_us_per_item", "us"},
	{"platform.prepare_us_per_point", "us"},
	{"platform.spectra_us_per_point", "us"},
	{"platform.ladder_us_per_clock", "us"},
	{"platform.minvdroop_us_per_supply", "us"},
	{"platform.spectra_hit_frac", "frac"},
	{"platform.build_ms", "ms"},
	{"vmin.shmoo_ms", "ms"},
	{"core.eval_ms_per_gen", "ms"},
	{"core.measured_frac", "frac"},
	{"core.sweep_ms", "ms"},
	{"core.unattributed_us_per_item", "us"},
	{"ga.breed_ms_per_gen", "ms"},
	{"castore.get_us", "us"},
	{"castore.put_us", "us"},
	{"castore.decode_us", "us"},
	{"castore.hit_frac", "frac"},
	{"castore.bytes_per_item", "B"},
	{"castore.puts_per_item", "count"},
	{"lab.roundtrips_per_item", "count"},
	{"lab.measure_us", "us"},
	{"lab.ctrl_us_per_item", "us"},
	{"lab.retries", "count"},
	{"fleet.eval_ms_per_gen", "ms"},
	{"fleet.rig_busy_frac", "frac"},
	{"go.alloc_kb_per_item", "KiB"},
	{"go.gc_cpu_frac", "frac"},
	{"trace.overhead_frac", "frac"},
}

var units = func() map[string]string {
	m := make(map[string]string, len(perLayer))
	for _, p := range perLayer {
		m[p.name] = p.unit
	}
	return m
}()

// put sets a per-layer metric with its registered unit.
func (m metricSet) put(name string, v float64) { m.set(name, units[name], v) }

// layerMetrics derives the per-layer metrics of a traced run: the
// workload's own first, then those from spans and shared counters.
func layerMetrics(e *env, w workload, m metricSet) {
	for _, p := range perLayer {
		m.set(p.name, p.unit, 0)
	}
	w.layers(e, m) // folds the last counters before the shared ones below
	var spans []span
	if e.all != nil {
		spans = e.all.spans
	}
	tot := totalsByName(spans)
	// mean is a layer's self time per call.
	mean := func(name string) time.Duration {
		if lt := tot[name]; lt != nil && lt.Calls > 0 {
			return lt.Self / time.Duration(lt.Calls)
		}
		return 0
	}
	steps := map[string]map[int]bool{}
	for _, s := range spans {
		if steps[s.Name] == nil {
			steps[s.Name] = map[int]bool{}
		}
		steps[s.Name][s.Step] = true
	}
	perStep := func(name string) time.Duration {
		if lt := tot[name]; lt != nil && len(steps[name]) > 0 {
			return lt.Self / time.Duration(len(steps[name]))
		}
		return 0
	}

	m.put("uarch.sim_us_per_item", us(mean("uarch.sim")))
	m.put("uarch.prime_us_per_pass", us(perStep("uarch.prime")))
	m.put("power.fill_us_per_item", us(mean("power.fill")))
	// SpectraInto cannot be split from outside; its self time is the call
	// minus a separately timed RFFT of the same waveform.
	m.put("pdn.spectra_us_per_item", us(mean("pdn.spectra")-mean("dsp.rfft")))
	m.put("pdn.steady_us_per_supply", us(mean("pdn.steady")))
	m.put("pdn.transfers_ms", ms(median(e.ctr.transferDurs)))
	m.put("dsp.rfft_us", us(mean("dsp.rfft")))
	m.put("dsp.irfft_us", us(mean("dsp.irfft")))
	m.put("em.combine_us_per_item", us(mean("em.combine")))
	m.put("instrument.peak_us_per_item", us(mean("instrument.peak")))
	m.put("platform.prepare_us_per_point", us(mean("platform.prepare")))
	m.put("platform.spectra_us_per_point", us(mean("platform.spectra")))
	m.put("platform.ladder_us_per_clock", us(mean("platform.ladder")))
	m.put("platform.minvdroop_us_per_supply", us(mean("platform.minvdroop")))
	m.put("platform.build_ms", ms(median(e.ctr.buildDurs)))
	m.put("vmin.shmoo_ms", ms(mean("vmin.shmoo")))
	m.put("core.eval_ms_per_gen", ms(mean("core.eval")))
	m.put("core.sweep_ms", ms(mean("core.sweep")))
	m.put("ga.breed_ms_per_gen", ms(mean("ga.breed")))
	m.put("castore.get_us", us(mean("castore.get")))
	m.put("castore.put_us", us(mean("castore.put")))
	m.put("castore.decode_us", us(mean("castore.decode")))
	m.put("fleet.eval_ms_per_gen", ms(mean("fleet.eval")))

	c := e.ctr
	m.put("uarch.trace_hit_frac", ratio(float64(c.traceHits), float64(c.traceLookups)))
	m.put("uarch.ckpt_hit_frac", ratio(float64(c.ckptHits), float64(c.ckptProbes)))
	m.put("uarch.ckpt_resume_depth", ratio(c.ckptResumed, float64(c.ckptHits)))
	m.put("core.measured_frac", ratio(float64(c.batchMeasured), float64(c.batchItems)))
	if lt := tot["core.eval"]; lt != nil && c.tracedMeasured > 0 {
		// Evaluation runs on e.jobs workers; per measured item it costs
		// jobs × wall time, of which the replayed stages account for part.
		perItem := lt.Self.Seconds() * float64(e.jobs) / float64(c.tracedMeasured) * 1e6
		stages := us(mean("uarch.sim") + mean("power.fill") + mean("pdn.spectra") +
			mean("em.combine") + mean("instrument.peak"))
		m.put("core.unattributed_us_per_item", perItem-stages)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	return s[len(s)/2]
}
