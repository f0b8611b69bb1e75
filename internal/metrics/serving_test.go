package metrics

import (
	"strings"
	"testing"
)

func TestDistStreamingStats(t *testing.T) {
	var d Dist
	if d.Count() != 0 || d.Mean() != 0 || d.Max() != 0 || d.Percentile(0.5) != 0 {
		t.Fatal("zero Dist must report zeros")
	}
	for i := 1; i <= 100; i++ {
		d.Add(float64(i))
	}
	if d.Count() != 100 {
		t.Errorf("count = %d", d.Count())
	}
	if d.Mean() != 50.5 {
		t.Errorf("mean = %v", d.Mean())
	}
	if d.Max() != 100 {
		t.Errorf("max = %v", d.Max())
	}
	if p := d.Percentile(1); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	if p := d.Percentile(0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := d.Percentile(0.5); p < 40 || p > 60 {
		t.Errorf("p50 = %v", p)
	}
}

// TestDistQuantileEdgeCases pins the documented Quantile contract the SLO
// reports depend on: empty and single-sample dists, the q=0/q=1 endpoints,
// out-of-range clamping, duplicate-heavy streams, and the floor-rounding
// nearest-rank estimator.
func TestDistQuantileEdgeCases(t *testing.T) {
	var empty Dist
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}

	var one Dist
	one.Add(7.25)
	for _, q := range []float64{-0.5, 0, 0.5, 0.99, 1, 1.5} {
		if got := one.Quantile(q); got != 7.25 {
			t.Errorf("single-sample Quantile(%v) = %v, want 7.25", q, got)
		}
	}

	var d Dist
	for _, v := range []float64{5, 1, 4, 2, 3} {
		d.Add(v)
	}
	if got := d.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want window min 1", got)
	}
	if got := d.Quantile(1); got != 5 {
		t.Errorf("Quantile(1) = %v, want window max 5", got)
	}
	// Clamping: out-of-range q behaves as the nearest endpoint.
	if got := d.Quantile(-3); got != 1 {
		t.Errorf("Quantile(-3) = %v, want 1", got)
	}
	if got := d.Quantile(42); got != 5 {
		t.Errorf("Quantile(42) = %v, want 5", got)
	}
	// Nearest-rank floor: n=5, q=0.5 -> index floor(0.5*4)=2 -> value 3;
	// q=0.9 -> index floor(3.6)=3 -> value 4 (no interpolation).
	if got := d.Quantile(0.5); got != 3 {
		t.Errorf("Quantile(0.5) = %v, want 3", got)
	}
	if got := d.Quantile(0.9); got != 4 {
		t.Errorf("Quantile(0.9) = %v, want 4 (floor rank)", got)
	}

	// Duplicate-heavy stream: quantiles are observed samples and stay
	// byte-stable however the ties arrive.
	var dup Dist
	for i := 0; i < 90; i++ {
		dup.Add(10)
	}
	for i := 0; i < 10; i++ {
		dup.Add(20)
	}
	if got := dup.Quantile(0.5); got != 10 {
		t.Errorf("duplicate-heavy Quantile(0.5) = %v, want 10", got)
	}
	if got := dup.Quantile(0.95); got != 20 {
		t.Errorf("duplicate-heavy Quantile(0.95) = %v, want 20", got)
	}
	// Percentile is the same estimator under its historical name.
	if dup.Percentile(0.95) != dup.Quantile(0.95) {
		t.Error("Percentile must delegate to Quantile")
	}
}

// TestDistQuantileDeterministicAcrossRuns re-feeds the same stream and
// requires bit-identical quantiles — the property that makes two loadgen
// runs of the same seed produce identical SLO reports.
func TestDistQuantileDeterministicAcrossRuns(t *testing.T) {
	feed := func() *Dist {
		var d Dist
		v := 1.0
		for i := 0; i < 5000; i++ {
			// Deterministic pseudo-noise without math/rand.
			v = v*1103515245 + 12345
			v = float64(int64(v) % 1000003)
			d.Add(v)
		}
		return &d
	}
	a, b := feed(), feed()
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.95, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("Quantile(%v) differs across identical streams", q)
		}
	}
}

func TestDistWindowBoundsMemoryButKeepsExactMeanMax(t *testing.T) {
	var d Dist
	n := distWindow * 3
	for i := 0; i < n; i++ {
		d.Add(float64(i))
	}
	if d.Count() != n {
		t.Errorf("count = %d, want %d", d.Count(), n)
	}
	if d.Max() != float64(n-1) {
		t.Errorf("max = %v", d.Max())
	}
	if got, want := d.Mean(), float64(n-1)/2; got != want {
		t.Errorf("mean = %v, want %v", got, want)
	}
	// Percentiles cover the retained window: the low percentile must come
	// from the most recent samples, not the evicted early ones.
	if p := d.Percentile(0); p < float64(n-distWindow) {
		t.Errorf("windowed p0 = %v still sees evicted samples", p)
	}
	if len(d.ring) != distWindow {
		t.Errorf("ring grew to %d", len(d.ring))
	}
}

func TestServingTable(t *testing.T) {
	out := ServingTable("sessions", []ServingRow{
		{Session: "1 10.0.0.1:555", Served: 12, Rejected: 2, MeanInferMs: 310.5, MeanWaitMs: 1.25},
	})
	for _, want := range []string{"== sessions ==", "1 10.0.0.1:555", "12", "310.5", "1.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
