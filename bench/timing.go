package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// wallNow is the benchmark's only clock read.
func wallNow() time.Time {
	//edgeis:wallclock the benchmark exists to measure real elapsed time; every reading goes through here
	return time.Now()
}

// watchdog bounds a wait for replies, so a lost reply fails the run instead
// of hanging it.
func watchdog(d time.Duration) *time.Timer {
	//edgeis:wallclock a lost reply must end the run with an error, which needs a real timer
	return time.NewTimer(d)
}

var epoch = wallNow()

// clock is monotonic time since process start.
func clock() time.Duration { return wallNow().Sub(epoch) }

// speedProbe times a fixed dependent chain of integer operations. The chain
// touches no memory and cannot be overlapped, so its duration is set by the
// core clock alone. On the shared hosts this benchmark runs on the clock
// wanders between roughly 2.1 and 3.0 GHz, for seconds to minutes at a time,
// with the neighbours' load: every timing moves by up to 40% while the
// program stays the same, and no amount of repetition inside one run sees
// past it. Items are therefore timed together with probes, and durations
// are reported at a reference clock.
func speedProbe() time.Duration {
	t0 := clock()
	x := uint64(88172645463325252)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := clock() - t0
	probeSink += x
	return d
}

var probeSink uint64

// probeNominal is the probe's duration at the reference clock: about what it
// takes on this host on a typical day.
const probeNominal = 36 * time.Microsecond

// clockScale is what a duration measured alongside probes is multiplied by
// to report it at the reference clock. The median makes the scale immune to
// the odd probe that an interrupt stretched; a scale taken from one probe
// would hand the floor to whichever sample's probe happened to be slow.
func clockScale(probes []time.Duration) float64 {
	return ms(probeNominal) / median(millis(probes))
}

// probedScale takes a handful of probes now and returns their scale, for
// timing a stretch of work that carries no probes of its own.
func probedScale() float64 {
	var probes [5]time.Duration
	for i := range probes {
		probes[i] = speedProbe()
	}
	return clockScale(probes[:])
}

// series is the floor-timing estimator. A workload is a fixed list of items
// replayed pass after pass, every pass doing byte-identical work. Each
// pass's durations are first scaled to the reference clock by the probes
// taken during that pass; what is left — other tenants, the scheduler, the
// collector — only ever ADDS time to a sample, so the smallest scaled
// duration an item showed over the passes is the best estimate of what the
// program itself costs.
type series struct {
	min    []time.Duration
	asRun  time.Duration // sum of every unscaled sample
	passes int
}

// add folds in one pass: every item's duration and the probes taken
// between them.
func (s *series) add(dur, probes []time.Duration) error {
	if s.passes > 0 && len(dur) != len(s.min) {
		return fmt.Errorf("pass has %d items, earlier passes had %d", len(dur), len(s.min))
	}
	scale := clockScale(probes)
	if s.passes == 0 {
		s.min = make([]time.Duration, len(dur))
	}
	for i, d := range dur {
		if scaled := time.Duration(float64(d) * scale); s.passes == 0 || scaled < s.min[i] {
			s.min[i] = scaled
		}
		s.asRun += d
	}
	s.passes++
	return nil
}

// floor is the floor time of one whole pass.
func (s *series) floor() time.Duration { return total(s.min) }

// noise is as-run time over floor time: how disturbed (and how far from the
// reference clock) the run was.
func (s *series) noise() float64 {
	floor := s.floor()
	if s.passes == 0 || floor == 0 {
		return 0
	}
	return float64(s.asRun) / float64(s.passes) / float64(floor)
}

func total(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// quantile is the nearest-rank q-quantile of vals (which it does not modify).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// digest is FNV-1a over the values a pass produced; equal digests across
// passes are what licenses taking the minimum over them.
type digest uint64

const digestInit digest = 14695981039346656037

func (d *digest) u64(v uint64) {
	h := uint64(*d)
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	*d = digest(h)
}

func (d *digest) i(v int)     { d.u64(uint64(int64(v))) }
func (d *digest) f(v float64) { d.u64(math.Float64bits(v)) }

func (d *digest) flag(v bool) {
	if v {
		d.u64(1)
	} else {
		d.u64(0)
	}
}
