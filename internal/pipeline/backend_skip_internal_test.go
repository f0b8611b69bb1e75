package pipeline

import (
	"testing"

	"edgeis/internal/geom"
	"edgeis/internal/netsim"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
)

// internalFrames renders a small clip without importing backendtest (which
// imports this package).
func internalFrames(seed int64, n int) []*scene.Frame {
	w := scene.StreetScene(scene.PresetConfig{Seed: seed, ObjectCount: 2})
	cam := geom.StandardCamera(160, 120)
	return w.RenderSequence(cam, scene.InspectionRoute(scene.WalkSpeed), n)
}

func internalRequest(i int) *OffloadRequest {
	return &OffloadRequest{
		FrameIndex:   i,
		PayloadBytes: 20_000,
		Quality:      func(x, y int) float64 { return 1 },
	}
}

// TestSimBackendDroppedKeyframeInvalidatesCache pins the overflow rule:
// latest-wins dropping a decided keyframe invalidates the feature cache
// (its pyramid will never be computed), while dropping a warped frame
// leaves the cached keyframe intact.
func TestSimBackendDroppedKeyframeInvalidatesCache(t *testing.T) {
	frames := internalFrames(5, 8)
	b := NewSimBackend(SimBackendConfig{
		Profile:  netsim.DefaultProfile(netsim.WiFi5),
		Seed:     5,
		Keyframe: segmodel.KeyframePolicy{Interval: 2},
	})
	// queueDepth 1: every queued submit displaces the previous one.
	b.Bind(frames, 1)

	// Frame 0 starts immediately (cold keyframe) and holds the accelerator;
	// everything below queues behind it within its service time.
	b.Submit(internalRequest(0), 0)
	if !b.keyframe.Valid() {
		t.Fatal("cache not primed by the first keyframe decision")
	}
	// Frame 1 (warp, age 1) queues; frame 2 hits the interval (keyframe) and
	// displaces frame 1 — a lost warp must keep the cache valid.
	b.Submit(internalRequest(1), 0)
	b.Submit(internalRequest(2), 0)
	if got := b.Stats().DroppedOffloads; got != 1 {
		t.Fatalf("drops after frame 2: %d, want 1", got)
	}
	if !b.keyframe.Valid() {
		t.Error("dropping a warped frame invalidated the cache")
	}
	// Frame 3 (warp against frame 2's refresh) displaces frame 2 — a lost
	// keyframe must invalidate.
	b.Submit(internalRequest(3), 0)
	if got := b.Stats().DroppedOffloads; got != 2 {
		t.Fatalf("drops after frame 3: %d, want 2", got)
	}
	if b.keyframe.Valid() {
		t.Error("dropping a decided keyframe left the cache valid")
	}
	// The next decision must therefore be a cold keyframe.
	b.Submit(internalRequest(4), 0)
	if n := len(b.waiting); n == 0 {
		t.Fatal("frame 4 did not queue")
	}
	last := b.waiting[len(b.waiting)-1]
	if !last.decision.Keyframe || last.decision.Reason != segmodel.KeyCold {
		t.Errorf("post-invalidation decision = %+v, want cold keyframe", last.decision)
	}
}

// TestLoopbackRejectedKeyframeInvalidatesCache pins the same rule on the
// loopback edge, whose overflow rejects the incoming offload: a rejected
// keyframe drops the cache, and the next admitted frame re-primes it.
func TestLoopbackRejectedKeyframeInvalidatesCache(t *testing.T) {
	frames := internalFrames(6, 12)
	b := NewLoopbackBackend(nil, 1, 6)
	b.SetKeyframePolicy(segmodel.KeyframePolicy{Interval: 8})
	b.Bind(frames, 1)

	// Frame 0 is served (cold keyframe) and pins the single in-flight slot.
	if got := len(b.Submit(internalRequest(0), 0)); got != 1 {
		t.Fatalf("frame 0 results = %d, want 1", got)
	}
	// Frames 1-7 are warp decisions rejected at the full queue: the cache
	// ages but stays valid.
	for i := 1; i < 8; i++ {
		if got := len(b.Submit(internalRequest(i), float64(i))); got != 0 {
			t.Fatalf("frame %d unexpectedly admitted", i)
		}
	}
	if !b.keyframe.Valid() {
		t.Fatal("rejected warp frames invalidated the cache")
	}
	// Frame 8 hits the forced-keyframe interval; its rejection must
	// invalidate the cache.
	b.Submit(internalRequest(8), 8)
	if b.keyframe.Valid() {
		t.Error("rejected keyframe left the cache valid")
	}
	// Free the slot; the next admitted frame is a cold keyframe and
	// re-primes the cache.
	b.NoteDelivered()
	if got := len(b.Submit(internalRequest(9), 9)); got != 1 {
		t.Fatalf("frame 9 results = %d, want 1", got)
	}
	if !b.keyframe.Valid() {
		t.Error("served cold keyframe did not re-prime the cache")
	}
	if st := b.Stats(); st.DroppedOffloads != 8 || st.Results != 2 {
		t.Errorf("stats = drops %d results %d, want 8 and 2", st.DroppedOffloads, st.Results)
	}
}
