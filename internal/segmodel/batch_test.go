package segmodel

import (
	"math"
	"testing"
)

func TestBatchMsAmortizes(t *testing.T) {
	if got := BatchMs(nil); got != 0 {
		t.Errorf("empty batch cost %v, want 0", got)
	}
	if got := BatchMs([]float64{42}); got != 42 {
		t.Errorf("solo batch cost %v, want 42", got)
	}
	// max + frac*(sum-max): 20 + 0.5*(10+5) = 27.5.
	if got, want := BatchMs([]float64{10, 20, 5}), 27.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("batch cost %v, want %v", got, want)
	}
	// Order-independent.
	if a, b := BatchMs([]float64{10, 20, 5}), BatchMs([]float64{5, 10, 20}); a != b {
		t.Errorf("batch cost depends on order: %v vs %v", a, b)
	}
	// Equal-latency batch of 8 at frac 0.5 costs 4.5 solos -> ~1.78x.
	eq := make([]float64, 8)
	for i := range eq {
		eq[i] = 30
	}
	if got, want := BatchMs(eq), 30*4.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("batch-8 cost %v, want %v", got, want)
	}
}
