package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
)

// TestBenchmarkFileMatchesCode checks BENCHMARK.json's metric names and
// units against the contract's limits and against what the code reports.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q invalid or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q invalid", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	want := map[string]bool{"items_per_s": true, "step_ms_p50": true, "step_ms_p90": true, "peak_rss_mb": true, "setup_s": true}
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if !want[m.Name] {
			t.Errorf("end-to-end metric %q is not reported", m.Name)
		}
		delete(want, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if len(want) > 0 {
		t.Errorf("end-to-end metrics missing from BENCHMARK.json: %v", want)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the code reports %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: file has %s [%s], code has %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Errorf("%d workloads", len(b.Workloads))
	}
	for _, w := range b.Workloads {
		check(w.Name, "count", "lower")
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100] with children a [10,40] and b [30,60] overlapping, and c
	// [90,120] reaching past the root's end; a has a child [15,20].
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},
		{Name: "c", Start: 90, End: 120, Parent: 0},
		{Name: "a1", Start: 15, End: 20, Parent: 1},
		{Name: "root", Start: 200, End: 210, Parent: -1},
	}
	want := []time.Duration{100 - 50 - 10, 30 - 5, 30, 30, 5, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, got[i], want[i])
		}
	}
	tot := totalsByName(spans)
	if r := tot["root"]; r.Calls != 2 || r.Total != 110 || r.Self != 50 {
		t.Errorf("root totals %+v", *r)
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer()
	tr.step = 7
	outer := tr.begin("outer")
	tr.do("inner", func() error { return nil })
	tr.end(outer)
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[1].Step != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if tr.spans[1].Start < tr.spans[0].Start || tr.spans[1].End > tr.spans[0].End {
		t.Errorf("inner span lies outside outer: %+v", tr.spans)
	}
	var off *tracer
	if id := off.begin("x"); id != -1 {
		t.Errorf("nil tracer recorded span %d", id)
	}
	if err := off.do("x", func() error { return errors.New("boom") }); err == nil {
		t.Error("nil tracer dropped the call's error")
	}
}

func TestQuantileAndRate(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := quantile(xs, 0.9); math.Abs(q-4.6) > 1e-12 {
		t.Errorf("p90 %v", q)
	}
	// Kind a: 100 items in 1 s; kind b: 100 items in 3 s. One rotation of
	// both moves 200 items in 4 s, however many steps of each ran.
	var l stepLog
	l.add(time.Second/2, 50, "a")
	l.add(time.Second/2, 50, "a")
	l.add(3*time.Second, 100, "b")
	if r := l.itemsPerSecond(); math.Abs(r-50) > 1e-9 {
		t.Errorf("items/s %v, want 50", r)
	}
	if p := l.quantileMS(0.5); math.Abs(p-(500+3000)/2.0) > 1e-9 {
		t.Errorf("p50 %v ms, want the mean of the kinds' medians", p)
	}
}

// TestStepDigestsMatchGARun checks that stepping a campaign generation by
// generation reproduces ga.Run's per-generation output, and that the
// output check fires on a tampered digest.
func TestStepDigestsMatchGARun(t *testing.T) {
	p, err := platform.Build("juno-r2")
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Domain(platform.DomainA72)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 5, jobs: 2}
	mk := func() *core.Bench {
		b, err := newBench(e, p)
		if err != nil {
			t.Fatal(err)
		}
		b.Samples = 2
		return b
	}
	cfg := gaConfig(d.Spec.Pool(), e.seed, e.jobs)
	cfg.PopulationSize, cfg.Generations = 6, 3
	ref, err := referenceCampaign(cfg, mk().EMMeasurer(d, 2))
	if err != nil {
		t.Fatal(err)
	}
	coldReset(e, d)
	c := newCampaign(cfg, mk().EMMeasurer(d, 2), "core.eval")
	for !c.done() {
		gen := c.gen
		_, dg, err := c.generation(e)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkDigest("generation", dg, ref[gen]); err != nil {
			t.Fatal(err)
		}
		if err := checkDigest("tampered", dg, ref[gen]^1); err == nil {
			t.Fatalf("generation %d: tampered digest passed the check", gen)
		}
	}
}

// tamperWorkload checks every step against a digest table whose second
// entry has been tampered with.
type tamperWorkload struct{ i int }

func (w *tamperWorkload) setup(*env) error       { return nil }
func (w *tamperWorkload) reference(*env) error   { return nil }
func (w *tamperWorkload) next(*env) error        { return nil }
func (w *tamperWorkload) layers(*env, metricSet) {}
func (w *tamperWorkload) close()                 {}
func (w *tamperWorkload) step(*env) (stepOut, error) {
	want := []uint64{1, 2 ^ 0xff, 3}
	got := uint64(w.i%3 + 1)
	w.i++
	time.Sleep(time.Millisecond)
	if err := checkDigest("step", got, want[got-1]); err != nil {
		return stepOut{}, err
	}
	return stepOut{items: 1, kind: "k"}, nil
}

func TestMismatchCountsAsFailedStep(t *testing.T) {
	e := &env{seed: 1, jobs: 1, dir: t.TempDir()}
	res, err := run(func() workload { return &tamperWorkload{} }, e, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if want := (res.Attempted + 1) / 3; res.Failed != want {
		t.Errorf("failed %d of %d steps, want %d", res.Failed, res.Attempted, want)
	}
}

// TestWarmRestartReplaysFromStore runs the warm-restart workload briefly:
// every replay must be served from the store and match the cold campaign.
func TestWarmRestartReplaysFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a store with whole campaigns")
	}
	e := &env{seed: 3, jobs: 2, dir: t.TempDir(), trace: true}
	res, err := run(func() workload { return &warmRestart{} }, e, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if hit := res.Metrics["castore.hit_frac"].Value; hit != 1 {
		t.Errorf("castore.hit_frac %v, want every replay served from the store", hit)
	}
	if m := res.Metrics["core.measured_frac"].Value; m != 0 {
		t.Errorf("core.measured_frac %v, want no measurement in a replay", m)
	}
}
