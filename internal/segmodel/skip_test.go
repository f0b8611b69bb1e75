package segmodel

import (
	"math"
	"testing"

	"edgeis/internal/mask"
)

// stubGuidance is a minimal Guidance + AreaProvider for skip-compute tests:
// anchors inside the given areas only, default NMS selection.
type stubGuidance struct {
	areas []mask.Box
}

func (g *stubGuidance) AnchorBudget(width, height int) int {
	total := 0
	for _, b := range g.areas {
		total += AnchorsInBox(b)
	}
	if full := FullGridAnchors(width, height); total > full {
		return full
	}
	return total
}

func (g *stubGuidance) Classify(b mask.Box) (int, int) {
	c := b.Center()
	for i, a := range g.areas {
		if a.Contains(int(c.X), int(c.Y)) {
			return i, 0
		}
	}
	return -1, 0
}

func (g *stubGuidance) SelectRoIs(props []Proposal) []Proposal {
	return DefaultNMS(props, 0.7, 100)
}

func (g *stubGuidance) CoversObjects(b mask.Box) bool {
	c := b.Center()
	for _, a := range g.areas {
		if a.Contains(int(c.X), int(c.Y)) {
			return true
		}
	}
	return false
}

func (g *stubGuidance) AreaBoxes() []mask.Box { return g.areas }

// guidanceFor builds a stub guidance whose areas are the input's object
// boxes expanded by a margin, shifted by (dx, dy).
func guidanceFor(in Input, dx, dy int) *stubGuidance {
	g := &stubGuidance{}
	for _, obj := range in.Objects {
		b := obj.Box.Expand(16, in.Width, in.Height)
		g.areas = append(g.areas, mask.Box{
			MinX: b.MinX + dx, MinY: b.MinY + dy,
			MaxX: b.MaxX + dx, MaxY: b.MaxY + dy,
		})
	}
	return g
}

func TestKeyframePolicyDisabled(t *testing.T) {
	in := testInput(1)
	c := NewFeatureCache()
	var p KeyframePolicy // zero value: disabled
	for i := 0; i < 5; i++ {
		d := p.Decide(c, in, nil)
		if !d.Keyframe || d.Reason != KeyDisabled {
			t.Fatalf("frame %d: disabled policy produced %+v, want keyframe/disabled", i, d)
		}
	}
	if c.Valid() {
		t.Error("disabled policy must leave the cache cold")
	}
	// Interval 1 is likewise disabled.
	if (KeyframePolicy{Interval: 1}).Enabled() {
		t.Error("Interval 1 should be disabled")
	}
	// Nil cache always keyframes even when the policy is on.
	d := KeyframePolicy{Interval: 4}.Decide(nil, in, nil)
	if !d.Keyframe || d.Reason != KeyDisabled {
		t.Errorf("nil cache: got %+v, want keyframe/disabled", d)
	}
}

func TestKeyframeDecisionSequence(t *testing.T) {
	in := testInput(1)
	g := guidanceFor(in, 0, 0)
	c := NewFeatureCache()
	p := KeyframePolicy{Interval: 4}

	wantReasons := []KeyframeReason{KeyCold, KeyNone, KeyNone, KeyNone, KeyInterval, KeyNone}
	wantAges := []int{0, 1, 2, 3, 0, 1}
	for i, want := range wantReasons {
		d := p.Decide(c, in, g)
		if d.Reason != want {
			t.Fatalf("frame %d: reason %q, want %q", i, d.Reason, want)
		}
		if d.Keyframe != (want != KeyNone) {
			t.Fatalf("frame %d: Keyframe=%v inconsistent with reason %q", i, d.Keyframe, want)
		}
		if d.Age != wantAges[i] {
			t.Fatalf("frame %d: age %d, want %d", i, d.Age, wantAges[i])
		}
		if !d.Keyframe && d.ChangedTiles != 0 {
			t.Fatalf("frame %d: static guidance changed %d tiles, want 0", i, d.ChangedTiles)
		}
	}
}

func TestKeyframeOnContinuityLoss(t *testing.T) {
	in := testInput(1)
	g := guidanceFor(in, 0, 0)
	c := NewFeatureCache()
	p := KeyframePolicy{Interval: 8}
	p.Decide(c, in, g) // guided keyframe
	d := p.Decide(c, in, nil)
	if !d.Keyframe || d.Reason != KeyContinuity {
		t.Fatalf("guidance loss: got %+v, want keyframe/continuity", d)
	}
	// An unguided cache tolerates unguided frames.
	d = p.Decide(c, in, nil)
	if d.Keyframe {
		t.Fatalf("unguided cache, unguided frame: got keyframe %q", d.Reason)
	}
}

func TestKeyframeOnResolutionChange(t *testing.T) {
	in := testInput(1)
	c := NewFeatureCache()
	p := KeyframePolicy{Interval: 8}
	p.Decide(c, in, nil)
	small := in
	small.Width, small.Height = 320, 240
	d := p.Decide(c, small, nil)
	if !d.Keyframe || d.Reason != KeyResolution {
		t.Fatalf("resolution change: got %+v, want keyframe/resolution", d)
	}
}

func TestKeyframeOnChurn(t *testing.T) {
	in := testInput(1)
	c := NewFeatureCache()
	p := KeyframePolicy{Interval: 8}
	p.Decide(c, in, guidanceFor(in, 0, 0))
	// Both contours jump far beyond MotionThreshold x their scale.
	d := p.Decide(c, in, guidanceFor(in, 150, 120))
	if !d.Keyframe || d.Reason != KeyChurn {
		t.Fatalf("large motion: got %+v, want keyframe/churn", d)
	}
}

func TestNonKeyframeCountsChangedTiles(t *testing.T) {
	in := testInput(1)
	c := NewFeatureCache()
	p := KeyframePolicy{Interval: 8}
	p.Decide(c, in, guidanceFor(in, 0, 0))
	// Move only the guidance slightly-beyond-threshold: with churn at the
	// 0.5 default limit (not above), the frame stays a non-keyframe but
	// the moved contour's tiles must be charged.
	g := guidanceFor(in, 0, 0)
	b := g.areas[0]
	shift := int(0.3*math.Sqrt(float64(b.Area()))) + 1
	g.areas[0] = mask.Box{MinX: b.MinX + shift, MinY: b.MinY, MaxX: b.MaxX + shift, MaxY: b.MaxY}
	d := p.Decide(c, in, g)
	if d.Keyframe {
		t.Fatalf("half-churn frame forced keyframe: %+v", d)
	}
	if d.ChangedTiles <= 0 {
		t.Fatal("moved contour should change tiles")
	}
	if d.TotalTiles != 80 { // 640x480 on a 64 px grid
		t.Fatalf("TotalTiles = %d, want 80", d.TotalTiles)
	}
	if d.ChangedTiles >= d.TotalTiles {
		t.Fatalf("one moved contour changed all %d tiles", d.ChangedTiles)
	}
}

func TestInvalidateForcesColdKeyframe(t *testing.T) {
	in := testInput(1)
	c := NewFeatureCache()
	p := KeyframePolicy{Interval: 8}
	p.Decide(c, in, nil)
	if !c.Valid() {
		t.Fatal("cache should be valid after a keyframe")
	}
	c.Invalidate()
	if c.Valid() {
		t.Fatal("Invalidate left the cache valid")
	}
	d := p.Decide(c, in, nil)
	if !d.Keyframe || d.Reason != KeyCold {
		t.Fatalf("after Invalidate: got %+v, want keyframe/cold", d)
	}
}

// TestMigrationForcesKeyframe pins the session-migration rule at the
// decision layer: when a session fails over to another replica, its warm
// feature cache stays behind on the dead edge — the adopting replica starts
// from a fresh cache, so the first post-migration frame must be a cold
// keyframe no matter where the session was in its interval. Warping against
// a pyramid the new replica never computed is exactly the lost-keyframe
// hazard Invalidate guards against.
func TestMigrationForcesKeyframe(t *testing.T) {
	in := testInput(1)
	g := guidanceFor(in, 0, 0)
	p := KeyframePolicy{Interval: 8}

	// The original replica's stream: keyframe then two warps — mid-interval,
	// nothing would force a keyframe for frames to come.
	old := NewFeatureCache()
	p.Decide(old, in, g)
	p.Decide(old, in, g)
	if d := p.Decide(old, in, g); d.Keyframe {
		t.Fatalf("pre-migration stream not mid-interval: %+v", d)
	}

	// Failover: the adopting replica has never seen this session. Its cache
	// is fresh, so the same next frame that would have warped is forced cold.
	adopted := NewFeatureCache()
	d := p.Decide(adopted, in, g)
	if !d.Keyframe || d.Reason != KeyCold || d.Age != 0 {
		t.Fatalf("first post-migration frame: got %+v, want keyframe/cold at age 0", d)
	}
	// And the forced keyframe re-primes the stream: the frame after it may
	// warp again, interval counting restarted from the migration point.
	if d := p.Decide(adopted, in, g); d.Keyframe {
		t.Fatalf("frame after the forced keyframe: got %+v, want non-keyframe", d)
	}
}

// TestKeyframeStream pins the per-stream rules every owner shares: a
// disabled policy never creates a cache, only a lost keyframe invalidates,
// and Reset (session close, migration) forces the next frame cold.
func TestKeyframeStream(t *testing.T) {
	in := testInput(1)

	var off KeyframeStream
	if d := off.Decide(in, nil); !d.Keyframe || d.Reason != KeyDisabled || off.Valid() {
		t.Fatalf("disabled stream: decision %+v, valid %v", d, off.Valid())
	}
	off.Lost(KeyframeDecision{Keyframe: true, Reason: KeyCold}) // no cache: must not panic

	k := KeyframeStream{Policy: KeyframePolicy{Interval: 8}}
	if d := k.Decide(in, nil); d.Reason != KeyCold || !k.Valid() {
		t.Fatalf("first frame: %+v, valid %v, want cold keyframe priming the cache", d, k.Valid())
	}
	warped := k.Decide(in, nil)
	if warped.Keyframe {
		t.Fatalf("second frame: %+v, want non-keyframe", warped)
	}
	k.Lost(warped)
	if !k.Valid() {
		t.Fatal("a lost non-keyframe invalidated the cache")
	}
	resized := in
	resized.Width, resized.Height = in.Width/2, in.Height/2
	lost := k.Decide(resized, nil)
	if lost.Reason != KeyResolution {
		t.Fatalf("resized frame: %+v, want resolution keyframe", lost)
	}
	k.Lost(lost)
	if d := k.Decide(resized, nil); k.Valid() == false || d.Reason != KeyCold {
		t.Fatalf("after a lost keyframe: %+v, want cold keyframe", d)
	}
	k.Reset()
	if k.Valid() {
		t.Fatal("Reset kept the cache")
	}
	if d := k.Decide(resized, nil); d.Reason != KeyCold {
		t.Fatalf("after Reset: %+v, want cold keyframe", d)
	}
}

func TestRunWarpedKeyframeIdenticalToRun(t *testing.T) {
	for _, kind := range []Kind{MaskRCNN, YOLACT, YOLOv3} {
		in := testInput(7)
		a := New(kind).Run(in, nil)
		b := New(kind).RunWarped(in, nil, KeyframeDecision{Keyframe: true, Reason: KeyDisabled})
		if a.TotalMs() != b.TotalMs() || len(a.Detections) != len(b.Detections) {
			t.Fatalf("%v: keyframe RunWarped diverged from Run", kind)
		}
		for i := range a.Detections {
			if a.Detections[i].TrueIoU != b.Detections[i].TrueIoU ||
				a.Detections[i].Box != b.Detections[i].Box {
				t.Fatalf("%v: detection %d differs", kind, i)
			}
		}
		if b.Warped {
			t.Fatalf("%v: keyframe result marked Warped", kind)
		}
	}
}

func TestRunWarpedChargesPartialBackbone(t *testing.T) {
	m := New(MaskRCNN)
	in := testInput(3)
	d := KeyframeDecision{Age: 1, ChangedTiles: 4}
	res := m.RunWarped(in, nil, d)
	if !res.Warped {
		t.Fatal("non-keyframe result not marked Warped")
	}
	want := m.Profile.WarpMs + 4*m.Profile.TileRecomputeMs
	if res.BackboneMs != want {
		t.Fatalf("warped BackboneMs = %v, want %v", res.BackboneMs, want)
	}
	full := m.Run(in, nil)
	if res.BackboneMs >= full.BackboneMs {
		t.Fatalf("warp (%.1f ms) not cheaper than backbone (%.1f ms)", res.BackboneMs, full.BackboneMs)
	}
	// Everything outside the backbone is untouched.
	if res.RPNMs != full.RPNMs || res.SelectionMs != full.SelectionMs || res.HeadMs != full.HeadMs {
		t.Fatal("warp changed a non-backbone cost component")
	}
	if res.CacheAge != 1 || res.ChangedTiles != 4 {
		t.Fatalf("warp provenance %d/%d, want 1/4", res.CacheAge, res.ChangedTiles)
	}
}

func TestWarpCostClampsAtBackbone(t *testing.T) {
	p := DefaultProfile(MaskRCNN)
	if got := p.WarpCostMs(0); got != p.WarpMs {
		t.Errorf("WarpCostMs(0) = %v, want WarpMs %v", got, p.WarpMs)
	}
	if got := p.WarpCostMs(1 << 20); got != p.BackboneMs {
		t.Errorf("fully-changed frame: WarpCostMs = %v, want BackboneMs %v", got, p.BackboneMs)
	}
	bad := Profile{WarpMs: -5, BackboneMs: 36}
	if got := bad.WarpCostMs(0); got != 0 {
		t.Errorf("negative warp cost not clamped: %v", got)
	}
}

func TestWarpIoUScaleBounded(t *testing.T) {
	p := DefaultProfile(MaskRCNN)
	if s := p.WarpIoUScale(0); s != 1 {
		t.Errorf("age 0 scale = %v, want 1", s)
	}
	floor := 1 - p.WarpPenaltyMax
	for age := 0; age < 100; age++ {
		s := p.WarpIoUScale(age)
		if s < floor || s > 1 {
			t.Fatalf("age %d: scale %v outside [%v, 1]", age, s, floor)
		}
		if age > 0 && s > p.WarpIoUScale(age-1) {
			t.Fatalf("scale not monotone at age %d", age)
		}
	}
}

func TestWarpedIoUPenaltyMeasurable(t *testing.T) {
	mean := func(d KeyframeDecision) float64 {
		sum, n := 0.0, 0
		for seed := int64(0); seed < 30; seed++ {
			res := New(MaskRCNN).RunWarped(testInput(seed), nil, d)
			for _, det := range res.Detections {
				sum += det.TrueIoU
				n++
			}
		}
		if n == 0 {
			t.Fatal("no detections")
		}
		return sum / float64(n)
	}
	oracle := mean(KeyframeDecision{Keyframe: true})
	warped := mean(KeyframeDecision{Age: 3})
	if warped >= oracle {
		t.Errorf("warped IoU %.4f not below oracle %.4f", warped, oracle)
	}
	// Bounded: the realized penalty stays within the documented cap (plus
	// boundary-noise slack).
	floor := oracle * (1 - DefaultProfile(MaskRCNN).WarpPenaltyMax)
	if warped < floor-0.02 {
		t.Errorf("warped IoU %.4f fell below the bounded floor %.4f", warped, floor)
	}
}

func TestBatchMsClampsNegativeSolos(t *testing.T) {
	if got := BatchMs([]float64{-5}); got != 0 {
		t.Errorf("BatchMs({-5}) = %v, want 0", got)
	}
	// A negative member contributes nothing; it must not subtract.
	if got, want := BatchMs([]float64{10, -5}), 10.0; got != want {
		t.Errorf("BatchMs({10,-5}) = %v, want %v", got, want)
	}
	if got := BatchMs([]float64{-1, -2, -3}); got != 0 {
		t.Errorf("BatchMs(all negative) = %v, want 0", got)
	}
	// Sane inputs are unchanged: max + 0.5*(sum-max).
	if got, want := BatchMs([]float64{10, 6, 4}), 10+0.5*10; got != want {
		t.Errorf("BatchMs({10,6,4}) = %v, want %v", got, want)
	}
}

func TestRunBatchClampsNegativeCost(t *testing.T) {
	m := New(YOLACT)
	m.Profile.BackboneMs = -500 // deliberately miscalibrated
	ins := []Input{testInput(1), testInput(2)}
	_, launchMs := m.RunBatch(ins, []Guidance{nil, nil})
	if launchMs < 0 {
		t.Errorf("RunBatch launchMs = %v, want >= 0", launchMs)
	}
}

func TestRunBatchWarpedMatchesRunWarped(t *testing.T) {
	m := New(MaskRCNN)
	ins := []Input{testInput(1), testInput(2), testInput(3)}
	gs := []Guidance{nil, nil, nil}
	ds := []KeyframeDecision{
		{Keyframe: true, Reason: KeyInterval},
		{Age: 1, ChangedTiles: 2},
		{Age: 2, ChangedTiles: 0},
	}
	outs, launchMs := m.RunBatchWarped(ins, gs, ds)
	solos := make([]float64, len(ins))
	for i := range ins {
		want := m.Clone().RunWarped(ins[i], gs[i], ds[i])
		if outs[i].TotalMs() != want.TotalMs() || len(outs[i].Detections) != len(want.Detections) {
			t.Fatalf("frame %d: batched output differs from solo RunWarped", i)
		}
		if outs[i].Warped != want.Warped {
			t.Fatalf("frame %d: Warped flag differs", i)
		}
		solos[i] = want.TotalMs()
	}
	if launchMs != BatchMs(solos) {
		t.Errorf("launchMs = %v, want BatchMs %v", launchMs, BatchMs(solos))
	}
}
