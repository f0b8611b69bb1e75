// Package backendtest is a conformance harness for pipeline.EdgeBackend
// implementations. Every backend — simulated or live TCP — must satisfy the
// same observable contract: results surface in submit order, and every
// offload is either answered or counted dropped (no silent loss). A backend
// whose queue overflow can be forced must also be latest-wins. Each backend
// package registers a Target and runs the same subtests.
package backendtest

import (
	"testing"
	"time"

	"edgeis/internal/geom"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
)

// Target describes one backend under conformance test.
type Target struct {
	Name string
	// New builds a fresh backend already Bound to frames with queueDepth.
	New func(t *testing.T, frames []*scene.Frame, queueDepth int) pipeline.EdgeBackend
	// WallClock marks backends whose results arrive asynchronously in wall
	// time (TCP); the harness then polls Advance with short sleeps instead
	// of jumping the simulated clock once.
	WallClock bool
	// LatestWins runs the overflow subtest: a full queue must drop its
	// oldest waiting offload. False skips it — a socket-backed queue drains
	// in wall time, so overflow cannot be forced deterministically.
	LatestWins bool
}

// Frames renders a small ground-truth clip for backend tests.
func Frames(seed int64, n int) []*scene.Frame {
	w := scene.StreetScene(scene.PresetConfig{Seed: seed, ObjectCount: 2})
	cam := geom.StandardCamera(160, 120)
	return w.RenderSequence(cam, scene.InspectionRoute(scene.WalkSpeed), n)
}

// request builds a plain full-quality offload for frame i.
func request(i int) *pipeline.OffloadRequest {
	return &pipeline.OffloadRequest{
		FrameIndex:   i,
		PayloadBytes: 20_000,
		EncodeMs:     5,
		Quality:      func(x, y int) float64 { return 1 },
	}
}

// deliverer collects scheduled results the way the engine does.
type deliverer struct {
	backend pipeline.EdgeBackend
	got     []pipeline.ScheduledResult
}

func (d *deliverer) take(rs []pipeline.ScheduledResult) { d.got = append(d.got, rs...) }

// drain advances the backend until want results have surfaced. Simulated
// backends get one jump past any service time; wall-clock backends are
// polled until the results cross the socket.
func (d *deliverer) drain(t *testing.T, wall bool, want int) {
	t.Helper()
	if !wall {
		d.take(d.backend.Advance(1e12))
		return
	}
	deadline := time.Now().Add(10 * time.Second)
	now := 1e6
	for len(d.got) < want {
		if time.Now().After(deadline) {
			t.Fatalf("timed out draining results: got %d, want %d", len(d.got), want)
		}
		d.take(d.backend.Advance(now))
		now += pipeline.FrameBudgetMs
		time.Sleep(2 * time.Millisecond)
	}
}

// Conformance runs the shared backend contract against one target.
func Conformance(t *testing.T, tg Target) {
	frames := Frames(41, 8)

	t.Run("delivery-order", func(t *testing.T) {
		b := tg.New(t, frames, len(frames))
		defer func() { _ = b.Close() }()
		d := &deliverer{backend: b}
		const n = 6
		for i := 0; i < n; i++ {
			d.take(b.Submit(request(i), float64(i)*pipeline.FrameBudgetMs))
		}
		d.drain(t, tg.WallClock, n)
		if len(d.got) != n {
			t.Fatalf("results = %d, want %d", len(d.got), n)
		}
		lastAt := -1.0
		for i, r := range d.got {
			if r.Res.FrameIndex != i {
				t.Errorf("result %d is frame %d: deliveries must follow submit order", i, r.Res.FrameIndex)
			}
			if r.At < lastAt {
				t.Errorf("result %d due at %.3f before predecessor at %.3f", i, r.At, lastAt)
			}
			lastAt = r.At
			if r.Res.InferMs <= 0 {
				t.Errorf("result %d has no inference latency", i)
			}
		}
	})

	t.Run("conservation", func(t *testing.T) {
		b := tg.New(t, frames, len(frames))
		defer func() { _ = b.Close() }()
		d := &deliverer{backend: b}
		const n = 6
		for i := 0; i < n; i++ {
			d.take(b.Submit(request(i), 0))
		}
		st := b.Stats()
		want := st.Submitted // a wall-clock queue may legitimately shed
		d.drain(t, tg.WallClock, want)
		st = b.Stats()
		// The no-silent-loss law: every offload either produced a result or
		// was counted as dropped.
		if st.Results+st.DroppedOffloads < n {
			t.Errorf("results %d + dropped %d < %d offloads: silent loss", st.Results, st.DroppedOffloads, n)
		}
		if st.Results != len(d.got) {
			t.Errorf("stats.Results = %d, surfaced %d", st.Results, len(d.got))
		}
		if st.UplinkBytes != st.Submitted*20_000 {
			t.Errorf("uplink bytes = %d, want %d", st.UplinkBytes, st.Submitted*20_000)
		}
		if st.InferMsSum <= 0 {
			t.Error("no inference time accounted")
		}
		if out := b.Outstanding(); out != 0 {
			t.Errorf("outstanding = %d after full drain", out)
		}
		if st.DiscardedResults != 0 {
			t.Errorf("discarded = %d on a well-formed run", st.DiscardedResults)
		}
	})

	if !tg.LatestWins {
		return
	}
	t.Run("drop-policy", func(t *testing.T) {
		b := tg.New(t, frames, 1)
		defer func() { _ = b.Close() }()
		d := &deliverer{backend: b}
		const n = 4
		// All four offloads land while the edge is busy with the first, so
		// a depth-1 queue must shed two of the middle ones.
		for i := 0; i < n; i++ {
			d.take(b.Submit(request(i), 0))
		}
		d.take(b.Advance(1e12))
		st := b.Stats()
		if st.DroppedOffloads == 0 {
			t.Fatal("depth-1 queue never dropped under a 4-deep burst")
		}
		if st.Results+st.DroppedOffloads != n {
			t.Errorf("results %d + dropped %d != %d offloads", st.Results, st.DroppedOffloads, n)
		}
		survivors := make(map[int]bool)
		for _, r := range d.got {
			survivors[r.Res.FrameIndex] = true
		}
		if !survivors[0] {
			t.Error("the in-service offload (frame 0) must survive")
		}
		if !survivors[n-1] {
			t.Errorf("latest-wins must keep the newest offload; survivors %v", survivors)
		}
	})
}
