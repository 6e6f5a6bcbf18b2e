package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func durQuantile(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

// stepLog is the timed record of a run's steps. Kinds separate steps whose
// items cost different amounts (the GA rotates over three chips).
type stepLog struct {
	durs  []time.Duration
	items []int
	kinds []string
}

func (l *stepLog) add(d time.Duration, items int, kind string) {
	l.durs = append(l.durs, d)
	l.items = append(l.items, items)
	l.kinds = append(l.kinds, kind)
}

// byKind splits the step durations by kind.
func (l *stepLog) byKind() map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for i, d := range l.durs {
		out[l.kinds[i]] = append(out[l.kinds[i]], d)
	}
	return out
}

// quantileMS is the q-quantile of step time in milliseconds, taken per kind
// and averaged over kinds with equal weight, so it reads the same wherever
// in a rotation of kinds the run ends.
func (l *stepLog) quantileMS(q float64) float64 {
	kinds := l.byKind()
	var sum float64
	for _, ds := range kinds {
		sum += ms(durQuantile(ds, q))
	}
	return sum / float64(len(kinds))
}

// itemsPerSecond is the throughput over one rotation of kinds: each kind's
// host seconds per item, averaged with equal weight.
func (l *stepLog) itemsPerSecond() float64 {
	secs := map[string]float64{}
	items := map[string]float64{}
	for i, d := range l.durs {
		secs[l.kinds[i]] += d.Seconds()
		items[l.kinds[i]] += float64(l.items[i])
	}
	var perItem float64
	for k := range secs {
		perItem += secs[k] / items[k]
	}
	return float64(len(secs)) / perItem
}
