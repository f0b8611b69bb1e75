package edge

import (
	"sync"
	"testing"

	"edgeis/internal/segmodel"
)

// TestClassOfNeverCoBatchMatrix enumerates every batch-class pair across
// guided/vanilla x keyframe/non-keyframe (at a fixed resolution, plus a
// resolution axis) and asserts the never-co-batch matrix directly: two
// requests share a launch class iff they agree on resolution AND guidance
// class AND keyframe class.
func TestClassOfNeverCoBatchMatrix(t *testing.T) {
	small := segmodel.Input{Width: 64, Height: 48}
	large := segmodel.Input{Width: 128, Height: 96}
	g := &plan{}

	type variant struct {
		name     string
		in       segmodel.Input
		g        segmodel.Guidance
		keyframe bool
	}
	variants := []variant{
		{"vanilla/keyframe", small, nil, true},
		{"vanilla/warped", small, nil, false},
		{"guided/keyframe", small, g, true},
		{"guided/warped", small, g, false},
		{"vanilla/keyframe/large", large, nil, true},
	}
	for i, a := range variants {
		for j, b := range variants {
			ca := ClassOf(a.in, a.g, a.keyframe)
			cb := ClassOf(b.in, b.g, b.keyframe)
			want := i == j // every variant differs in at least one axis
			if got := ca == cb; got != want {
				t.Errorf("ClassOf(%s) vs ClassOf(%s): co-batchable=%v, want %v",
					a.name, b.name, got, want)
			}
		}
	}

	// The class fields mirror the request exactly.
	c := ClassOf(small, g, false)
	if c.Width != 64 || c.Height != 48 || !c.Guided || c.Keyframe {
		t.Errorf("ClassOf fields = %+v", c)
	}
	// Disabled skip-compute marks every request a keyframe, collapsing the
	// matrix back to the pre-cache resolution x guidance key.
	if ClassOf(small, nil, true) != (BatchClass{Width: 64, Height: 48, Keyframe: true}) {
		t.Error("keyframe class literal mismatch")
	}
}

// warpCountAccel counts full-backbone and warped launches and reports the
// matching cost shape (36 ms full, 6 ms warp).
type warpCountAccel struct {
	mu   sync.Mutex
	full int
	warp int
}

func (a *warpCountAccel) Run(in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64) {
	var outs [1]*segmodel.Result
	ms := a.Launch([]Job{{In: in, G: g, D: segmodel.KeyframeDecision{Keyframe: true}}}, outs[:])
	return outs[0], ms
}

func (a *warpCountAccel) Launch(jobs []Job, outs []*segmodel.Result) float64 {
	solos := make([]float64, len(jobs))
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, j := range jobs {
		if j.D.Keyframe {
			a.full++
			outs[i], solos[i] = &segmodel.Result{BackboneMs: 36}, 36
		} else {
			a.warp++
			outs[i], solos[i] = &segmodel.Result{BackboneMs: 6, Warped: true, CacheAge: j.D.Age}, 6
		}
	}
	return segmodel.BatchMs(solos)
}

func (a *warpCountAccel) counts() (full, warp int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.full, a.warp
}

func TestSchedulerSkipCompute(t *testing.T) {
	acc := &warpCountAccel{}
	s := NewScheduler(Config{Workers: 1,
		Keyframe:       segmodel.KeyframePolicy{Interval: 4},
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()
	sess := s.NewSession("c")
	defer sess.Close()

	in := segmodel.Input{Width: 640, Height: 480}
	var warpSum, fullSum float64
	for i := 0; i < 8; i++ {
		in.Seed = int64(i)
		out, inferMs, err := sess.Infer(in, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if out.Warped {
			warpSum += inferMs
		} else {
			fullSum += inferMs
		}
	}

	// Interval 4 on a static scene: cold keyframe, 3 warps, interval
	// keyframe, 3 warps.
	full, warp := acc.counts()
	if full != 2 || warp != 6 {
		t.Fatalf("accelerator saw %d full / %d warped launches, want 2/6", full, warp)
	}
	st := s.Stats()
	if st.KeyframesServed != 2 || st.WarpedServed != 6 {
		t.Fatalf("stats keyframes=%d warped=%d, want 2/6", st.KeyframesServed, st.WarpedServed)
	}
	if st.KeyframesServed+st.WarpedServed != st.Served {
		t.Fatalf("keyframes+warped=%d != served=%d",
			st.KeyframesServed+st.WarpedServed, st.Served)
	}
	if warpSum >= fullSum {
		t.Errorf("6 warped frames (%.0f ms) should cost less than 2 keyframes (%.0f ms)", warpSum, fullSum)
	}
}

func TestSchedulerSkipComputeDisabledKeepsCountersZero(t *testing.T) {
	acc := &warpCountAccel{}
	s := NewScheduler(Config{Workers: 1,
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()
	sess := s.NewSession("c")
	defer sess.Close()

	in := segmodel.Input{Width: 640, Height: 480}
	for i := 0; i < 5; i++ {
		in.Seed = int64(i)
		if _, _, err := sess.Infer(in, nil); err != nil {
			t.Fatal(err)
		}
	}
	full, warp := acc.counts()
	if full != 5 || warp != 0 {
		t.Fatalf("disabled policy: %d full / %d warped, want 5/0", full, warp)
	}
	st := s.Stats()
	if st.KeyframesServed != 0 || st.WarpedServed != 0 {
		t.Fatalf("disabled policy must keep counters zero, got %d/%d",
			st.KeyframesServed, st.WarpedServed)
	}
}

// TestSchedulerSkipComputeWithoutWarpAccelerator: an accelerator that
// cannot warp still serves non-keyframe decisions (at full cost) and the
// served partition stays consistent.
func TestSchedulerSkipComputeWithoutWarpAccelerator(t *testing.T) {
	s := NewScheduler(Config{Workers: 1,
		Keyframe:       segmodel.KeyframePolicy{Interval: 4},
		NewAccelerator: func(int) Accelerator { return sleepAccel{0} }})
	defer func() { _ = s.Close() }()
	sess := s.NewSession("c")
	defer sess.Close()

	in := segmodel.Input{Width: 640, Height: 480}
	for i := 0; i < 4; i++ {
		in.Seed = int64(i)
		if _, _, err := sess.Infer(in, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.KeyframesServed != 1 || st.WarpedServed != 3 {
		t.Fatalf("keyframes=%d warped=%d, want 1/3 (decisions still counted)",
			st.KeyframesServed, st.WarpedServed)
	}
	if st.KeyframesServed+st.WarpedServed != st.Served {
		t.Fatal("served partition broken under fallback accelerator")
	}
}

// TestLostKeyframeInvalidatesCache: a decided keyframe that never reaches
// an accelerator (rejected, shed, or raced with close) must invalidate the
// cache so no later frame warps from a pyramid that was never computed.
func TestLostKeyframeInvalidatesCache(t *testing.T) {
	s := NewScheduler(Config{Workers: 1,
		Keyframe:       segmodel.KeyframePolicy{Interval: 8},
		NewAccelerator: func(int) Accelerator { return sleepAccel{0} }})
	defer func() { _ = s.Close() }()
	sess := s.NewSession("c")
	defer sess.Close()

	in := segmodel.Input{Width: 640, Height: 480}
	d := sess.decide(in, nil)
	if !d.Keyframe || d.Reason != segmodel.KeyCold {
		t.Fatalf("first decision %+v, want cold keyframe", d)
	}
	// Next frame would warp...
	if d2 := sess.decide(in, nil); d2.Keyframe {
		t.Fatalf("warm cache produced keyframe %q", d2.Reason)
	}
	// ...but if a keyframe decision is lost, the cache must go cold again.
	d3 := sess.decide(segmodel.Input{Width: 320, Height: 240}, nil) // resolution keyframe
	sess.lost(d3, ErrClosed)
	if d4 := sess.decide(segmodel.Input{Width: 320, Height: 240}, nil); !d4.Keyframe || d4.Reason != segmodel.KeyCold {
		t.Fatalf("after lost keyframe: %+v, want cold keyframe", d4)
	}
	// A lost non-keyframe leaves the cached pyramid usable.
	d5 := sess.decide(segmodel.Input{Width: 320, Height: 240}, nil)
	if d5.Keyframe {
		t.Fatalf("unexpected keyframe %q", d5.Reason)
	}
	sess.lost(d5, ErrClosed)
	if d6 := sess.decide(segmodel.Input{Width: 320, Height: 240}, nil); d6.Keyframe {
		t.Fatalf("lost non-keyframe invalidated the cache: %+v", d6)
	}
}

// TestSessionCloseEvictsCache: the cache dies with its session.
func TestSessionCloseEvictsCache(t *testing.T) {
	s := NewScheduler(Config{Workers: 1,
		Keyframe:       segmodel.KeyframePolicy{Interval: 4},
		NewAccelerator: func(int) Accelerator { return sleepAccel{0} }})
	defer func() { _ = s.Close() }()
	sess := s.NewSession("c")

	in := segmodel.Input{Width: 640, Height: 480}
	if _, _, err := sess.Infer(in, nil); err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	hadCache := sess.keyframes.Valid()
	sess.mu.Unlock()
	if !hadCache {
		t.Fatal("enabled policy should have created the session cache")
	}
	sess.Close()
	sess.mu.Lock()
	gone := !sess.keyframes.Valid()
	sess.mu.Unlock()
	if !gone {
		t.Fatal("Close did not evict the feature cache")
	}
}

// TestBatchKeyframeClassesNeverCoBatch: end-to-end version of the matrix —
// a keyframe job and a warped job of the same resolution and guidance
// class must not ride one launch.
func TestBatchKeyframeClassesNeverCoBatch(t *testing.T) {
	acc := &batchGateAccel{gate: make(chan struct{}, 16)}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 16,
		Keyframe:       segmodel.KeyframePolicy{Interval: 100},
		Dequeue:        GatherBatch{Max: 4},
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()

	// Session a is warmed (its second frame is a non-keyframe); session b
	// is cold (its first frame is a keyframe).
	a := s.NewSession("a")
	defer a.Close()
	b := s.NewSession("b")
	defer b.Close()
	in := segmodel.Input{Width: 64, Height: 48}

	submit := func(ss *Session, seed int64) <-chan error {
		frame := in
		frame.Seed = seed
		errc := make(chan error, 1)
		go func() {
			_, _, err := ss.Infer(frame, nil)
			errc <- err
		}()
		return errc
	}

	// Warm a's cache with a served keyframe.
	acc.gate <- struct{}{}
	in.Seed = 1
	if _, _, err := a.Infer(in, nil); err != nil {
		t.Fatal(err)
	}

	// Occupy the worker with a's first non-keyframe so the next two frames
	// queue behind it.
	e1 := submit(a, 2)
	waitFor(t, "head launch", func() bool { return len(acc.seen()) == 2 })
	e2 := submit(a, 3) // a's next non-keyframe, queued
	waitFor(t, "warp job queued", func() bool { return s.Stats().Queued == 1 })
	e3 := submit(b, 4) // b's cold keyframe, queued
	waitFor(t, "keyframe job queued", func() bool { return s.Stats().Queued == 2 })

	for i := 0; i < 3; i++ {
		acc.gate <- struct{}{}
	}
	for _, w := range []<-chan error{e1, e2, e3} {
		if err := <-w; err != nil {
			t.Fatal(err)
		}
	}
	launches := acc.seen()
	// Launches after the warm-up: head (seed 2), then seeds 3 and 4 —
	// which must NOT share a launch despite equal resolution and guidance.
	for i, launch := range launches[1:] {
		if len(launch) != 1 {
			t.Errorf("launch %d = %v: keyframe and warped jobs co-batched", i+1, launch)
		}
	}
}
