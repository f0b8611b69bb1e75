package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"edgeis/internal/mask"
)

func rect(w, h, x0, y0, x1, y1 int) *mask.Bitmask {
	m := mask.New(w, h)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			m.Set(x, y)
		}
	}
	return m
}

func TestMatchFrameBasic(t *testing.T) {
	gt := rect(64, 64, 10, 10, 30, 30)
	pred := rect(64, 64, 12, 10, 30, 30) // close match
	ious := MatchFrame(
		[]PredictedMask{{Label: 1, Mask: pred}},
		[]TruthMask{{ObjectID: 1, Label: 1, Mask: gt}},
	)
	if len(ious) != 1 {
		t.Fatalf("len = %d", len(ious))
	}
	if ious[0] < 0.8 || ious[0] > 1 {
		t.Errorf("iou = %v", ious[0])
	}
}

func TestMatchFrameLabelMismatch(t *testing.T) {
	gt := rect(64, 64, 10, 10, 30, 30)
	ious := MatchFrame(
		[]PredictedMask{{Label: 2, Mask: gt.Clone()}},
		[]TruthMask{{ObjectID: 1, Label: 1, Mask: gt}},
	)
	if ious[0] != 0 {
		t.Errorf("wrong-label prediction scored %v", ious[0])
	}
}

func TestMatchFramePredictionUsedOnce(t *testing.T) {
	gt := rect(64, 64, 10, 10, 30, 30)
	// One prediction, two identical truths: the second scores zero.
	ious := MatchFrame(
		[]PredictedMask{{Label: 1, Mask: gt.Clone()}},
		[]TruthMask{
			{ObjectID: 1, Label: 1, Mask: gt},
			{ObjectID: 2, Label: 1, Mask: gt},
		},
	)
	if ious[0] != 1 || ious[1] != 0 {
		t.Errorf("ious = %v", ious)
	}
}

func TestMatchFrameEmpty(t *testing.T) {
	gt := rect(64, 64, 10, 10, 30, 30)
	ious := MatchFrame(nil, []TruthMask{{ObjectID: 1, Label: 1, Mask: gt}})
	if len(ious) != 1 || ious[0] != 0 {
		t.Errorf("ious = %v", ious)
	}
	if got := MatchFrame(nil, nil); len(got) != 0 {
		t.Error("no truths should yield no scores")
	}
}

func TestAccumulatorStats(t *testing.T) {
	a := NewAccumulator("x")
	a.AddFrame([]float64{0.9, 0.8}, 20)
	a.AddFrame([]float64{0.4, 0.76}, 40)
	if a.Samples() != 4 {
		t.Errorf("samples = %d", a.Samples())
	}
	if got := a.MeanIoU(); math.Abs(got-0.715) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	if got := a.FalseRate(LooseThreshold); got != 0.25 {
		t.Errorf("false@0.5 = %v", got)
	}
	if got := a.FalseRate(StrictThreshold); got != 0.25 {
		t.Errorf("false@0.75 = %v", got)
	}
	if got := a.MeanLatencyMs(); got != 30 {
		t.Errorf("latency = %v", got)
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	a := NewAccumulator("empty")
	if a.MeanIoU() != 0 || a.FalseRate(0.5) != 0 || a.MeanLatencyMs() != 0 {
		t.Error("empty accumulator should return zeros")
	}
	if xs, ys := a.CDF(5); xs != nil || ys != nil {
		t.Error("empty CDF should be nil")
	}
	if a.LatencyPercentile(0.5) != 0 {
		t.Error("empty percentile should be 0")
	}
}

func TestCDFMonotone(t *testing.T) {
	a := NewAccumulator("c")
	a.AddFrame([]float64{0.1, 0.4, 0.6, 0.9, 0.95, 1.0}, 10)
	xs, ys := a.CDF(11)
	if len(xs) != 11 {
		t.Fatalf("points = %d", len(xs))
	}
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if ys[len(ys)-1] != 1 {
		t.Errorf("CDF(1.0) = %v, want 1", ys[len(ys)-1])
	}
}

func TestCDFProperty(t *testing.T) {
	f := func(vals []float64) bool {
		a := NewAccumulator("q")
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, math.Mod(math.Abs(v), 1))
			}
		}
		if len(clean) == 0 {
			return true
		}
		a.AddFrame(clean, 1)
		_, ys := a.CDF(8)
		for i := 1; i < len(ys); i++ {
			if ys[i] < ys[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLatencyPercentile(t *testing.T) {
	a := NewAccumulator("p")
	for i := 1; i <= 100; i++ {
		a.AddFrame(nil, float64(i))
	}
	if got := a.LatencyPercentile(0.95); got < 90 || got > 100 {
		t.Errorf("p95 = %v", got)
	}
	if got := a.LatencyPercentile(0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
}

func TestMerge(t *testing.T) {
	a := NewAccumulator("a")
	a.AddFrame([]float64{1}, 10)
	b := NewAccumulator("b")
	b.AddFrame([]float64{0}, 30)
	a.Merge(b)
	if a.Samples() != 2 || a.MeanIoU() != 0.5 || a.MeanLatencyMs() != 20 {
		t.Errorf("merged: n=%d iou=%v lat=%v", a.Samples(), a.MeanIoU(), a.MeanLatencyMs())
	}
}

func TestTableAndRow(t *testing.T) {
	a := NewAccumulator("sys-a")
	a.AddFrame([]float64{0.9}, 20)
	if !strings.Contains(a.Row(), "sys-a") {
		t.Error("row missing name")
	}
}

func TestImprovementReduction(t *testing.T) {
	if got := Improvement(0.5, 0.6); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("improvement = %v", got)
	}
	if !math.IsInf(Improvement(0, 1), 1) {
		t.Error("zero-base improvement should be +Inf")
	}
	if got := Reduction(100, 50); got != 0.5 {
		t.Errorf("reduction = %v", got)
	}
	if Reduction(0, 10) != 0 {
		t.Error("zero-base reduction should be 0")
	}
}
