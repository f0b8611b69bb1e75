// Serving-side telemetry. The evaluation types above score accuracy against
// ground truth; the types here summarize the edge serving layer (package
// edge): admission-queue depth, scheduling wait, and per-session serving
// rows. They are plain sample aggregators — the scheduler measures, metrics
// summarizes — so this package stays free of clocks and goroutines.

package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// distWindow bounds the samples a Dist retains for percentile queries. Count,
// mean and max stay exact over the whole stream; percentiles cover the most
// recent distWindow samples, so a long-lived server summarizes recent
// behaviour instead of growing without bound.
const distWindow = 1024

// Dist tracks a stream of float64 samples with bounded memory.
// The zero value is ready to use.
type Dist struct {
	n   int
	sum float64
	max float64
	// ring holds the most recent samples for percentile queries.
	ring []float64
	next int
}

// Add records one sample.
func (d *Dist) Add(v float64) {
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
	if len(d.ring) < distWindow {
		d.ring = append(d.ring, v)
		return
	}
	d.ring[d.next] = v
	d.next = (d.next + 1) % distWindow
}

// Count returns the number of samples observed.
func (d *Dist) Count() int { return d.n }

// Mean returns the mean over every sample ever added.
func (d *Dist) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Max returns the largest sample ever added.
func (d *Dist) Max() float64 { return d.max }

// Quantile returns the q-quantile over the retained window of recent
// samples. Its behaviour is part of the SLO report contract and is fully
// deterministic for a given sample sequence:
//
//   - q is clamped to [0, 1]; Quantile(0) is the window minimum and
//     Quantile(1) the window maximum. Note Max() covers the whole stream
//     while Quantile(1) covers only the retained window.
//   - The estimator is nearest-rank with floor rounding: the window is
//     copied, sorted ascending, and element floor(q*(n-1)) returned. No
//     interpolation, so every reported quantile is an observed sample.
//   - Duplicate-heavy streams are handled by construction: sorting is the
//     only operation, so ties cannot reorder nondeterministically.
//   - An empty Dist reports 0; a single sample is every quantile.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.ring) == 0 {
		return 0
	}
	sorted := append([]float64(nil), d.ring...)
	sort.Float64s(sorted)
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// Percentile is Quantile under its historical name.
func (d *Dist) Percentile(p float64) float64 { return d.Quantile(p) }

// ServingRow is one session's line in a serving report.
type ServingRow struct {
	Session     string
	Served      int
	Rejected    int
	Shed        int
	MeanInferMs float64
	MeanWaitMs  float64
}

// ServingTable renders per-session serving rows as a report table, the
// serving counterpart of the accuracy Table above.
func ServingTable(title string, rows []ServingRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	fmt.Fprintf(&b, "%-28s %8s %9s %6s %10s %10s\n",
		"session", "served", "rejected", "shed", "infer ms", "wait ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-28s %8d %9d %6d %10.1f %10.2f\n",
			r.Session, r.Served, r.Rejected, r.Shed, r.MeanInferMs, r.MeanWaitMs)
	}
	return b.String()
}

// SizeHistogram renders launch-size counts (counts[i] = launches of size
// i+1) as "[1:12 4:3]", skipping empty buckets; all-empty renders "[]".
// Deterministic by construction: buckets print in ascending size order.
func SizeHistogram(counts []int) string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d:%d", i+1, n)
	}
	b.WriteByte(']')
	return b.String()
}
