// Package metrics implements the evaluation statistics of Section VI:
// per-object IoU (Eq. 8), false rates at the loose (0.5) and strict (0.75)
// thresholds, accuracy CDFs (Fig. 9) and latency summaries (Fig. 11).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"edgeis/internal/mask"
)

// IoU thresholds of Section VI-C: "a loose threshold of 0.5 and a strict
// threshold of 0.75 ... IoU smaller than the threshold is called a false
// result".
const (
	LooseThreshold  = 0.5
	StrictThreshold = 0.75
)

// PredictedMask is one displayed instance mask.
type PredictedMask struct {
	Label int
	Mask  *mask.Bitmask
}

// TruthMask is one ground-truth instance.
type TruthMask struct {
	ObjectID int
	Label    int
	Mask     *mask.Bitmask
}

// MatchFrame scores a frame: each ground-truth object is matched to the
// same-label prediction with the highest IoU (greedy, predictions can serve
// once); unmatched objects score zero.
func MatchFrame(preds []PredictedMask, truths []TruthMask) []float64 {
	used := make([]bool, len(preds))
	out := make([]float64, 0, len(truths))
	for _, gt := range truths {
		best, bestIdx := 0.0, -1
		for i, p := range preds {
			if used[i] || p.Label != gt.Label || p.Mask == nil {
				continue
			}
			if iou := mask.IoU(p.Mask, gt.Mask); iou > best {
				best, bestIdx = iou, i
			}
		}
		if bestIdx >= 0 {
			used[bestIdx] = true
		}
		out = append(out, best)
	}
	return out
}

// Accumulator gathers per-object IoUs and per-frame latencies over a run.
type Accumulator struct {
	Name      string
	ious      []float64
	latencies []float64
}

// NewAccumulator creates a named accumulator.
func NewAccumulator(name string) *Accumulator {
	return &Accumulator{Name: name}
}

// AddFrame records the frame's per-object IoUs and its mobile-side latency.
func (a *Accumulator) AddFrame(ious []float64, latencyMs float64) {
	a.ious = append(a.ious, ious...)
	a.latencies = append(a.latencies, latencyMs)
}

// Samples returns the number of per-object IoU samples.
func (a *Accumulator) Samples() int { return len(a.ious) }

// MeanIoU returns the average per-object IoU.
func (a *Accumulator) MeanIoU() float64 {
	if len(a.ious) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range a.ious {
		sum += v
	}
	return sum / float64(len(a.ious))
}

// FalseRate returns the fraction of objects with IoU below the threshold.
func (a *Accumulator) FalseRate(threshold float64) float64 {
	if len(a.ious) == 0 {
		return 0
	}
	n := 0
	for _, v := range a.ious {
		if v < threshold {
			n++
		}
	}
	return float64(n) / float64(len(a.ious))
}

// CDF returns (x, F(x)) pairs of the IoU distribution at the given
// resolution — the curves of Fig. 9.
func (a *Accumulator) CDF(points int) ([]float64, []float64) {
	if points <= 1 || len(a.ious) == 0 {
		return nil, nil
	}
	sorted := append([]float64(nil), a.ious...)
	sort.Float64s(sorted)
	xs := make([]float64, points)
	ys := make([]float64, points)
	for i := 0; i < points; i++ {
		x := float64(i) / float64(points-1)
		xs[i] = x
		// Fraction of samples <= x.
		idx := sort.SearchFloat64s(sorted, x+1e-12)
		ys[i] = float64(idx) / float64(len(sorted))
	}
	return xs, ys
}

// MeanLatencyMs returns the mean per-frame mobile latency.
func (a *Accumulator) MeanLatencyMs() float64 {
	if len(a.latencies) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range a.latencies {
		sum += v
	}
	return sum / float64(len(a.latencies))
}

// LatencyPercentile returns the p-quantile (0..1) of frame latency.
func (a *Accumulator) LatencyPercentile(p float64) float64 {
	if len(a.latencies) == 0 {
		return 0
	}
	sorted := append([]float64(nil), a.latencies...)
	sort.Float64s(sorted)
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// Merge absorbs another accumulator's samples.
func (a *Accumulator) Merge(other *Accumulator) {
	a.ious = append(a.ious, other.ious...)
	a.latencies = append(a.latencies, other.latencies...)
}

// Row summarizes the accumulator as a report line.
func (a *Accumulator) Row() string {
	return fmt.Sprintf("%-22s IoU=%.3f false@0.5=%5.1f%% false@0.75=%5.1f%% latency=%5.1fms (n=%d)",
		a.Name, a.MeanIoU(), 100*a.FalseRate(LooseThreshold),
		100*a.FalseRate(StrictThreshold), a.MeanLatencyMs(), a.Samples())
}

// Improvement returns the relative change from base to improved (positive =
// improved is higher).
func Improvement(base, improved float64) float64 {
	if base == 0 {
		return math.Inf(1)
	}
	return (improved - base) / base
}

// Reduction returns the relative reduction from base to reduced (positive =
// reduced is lower).
func Reduction(base, reduced float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - reduced) / base
}
