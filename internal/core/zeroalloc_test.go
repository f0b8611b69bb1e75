package core_test

import (
	"runtime"
	"strings"
	"testing"

	"edgeis/internal/core"
	"edgeis/internal/dataset"
	"edgeis/internal/device"
	"edgeis/internal/feature"
	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
)

// allocProbe wraps the edgeIS system and records how many mask backing
// arrays each ProcessFrame call allocates.
type allocProbe struct {
	inner  *core.System
	deltas []uint64
}

func (p *allocProbe) Name() string { return p.inner.Name() }

func (p *allocProbe) ProcessFrame(f *scene.Frame, feats []feature.Feature, nowMs float64) pipeline.FrameOutput {
	before := mask.Allocs()
	out := p.inner.ProcessFrame(f, feats, nowMs)
	p.deltas = append(p.deltas, mask.Allocs()-before)
	return out
}

func (p *allocProbe) HandleEdgeResult(res pipeline.EdgeResult, f *scene.Frame, nowMs float64) {
	p.inner.HandleEdgeResult(res, f, nowMs)
}

func (p *allocProbe) AwaitingEdgeResult() bool { return p.inner.AwaitingEdgeResult() }

// TestSteadyStateTrackingAllocatesNoMasks pins the pooling tentpole: once
// the system is warm (pool filled to the working-set high-water mark, cache
// eviction horizons reached), per-frame processing on the tracking path
// performs zero mask allocations. Mask allocations are counted
// process-globally, so the probe snapshots around each ProcessFrame;
// edge-result handling (decode, VO annotation) is allowed to allocate — it
// runs per offload, not per frame.
func TestSteadyStateTrackingAllocatesNoMasks(t *testing.T) {
	cfg := pipeline.Config{
		World:       scene.StreetScene(scene.PresetConfig{Seed: 17, ObjectCount: 3}),
		Camera:      geom.StandardCamera(320, 240),
		Trajectory:  scene.InspectionRoute(scene.WalkSpeed),
		Frames:      400,
		CameraSpeed: scene.WalkSpeed,
		Medium:      netsim.WiFi5,
		Seed:        17,
	}
	probe := &allocProbe{inner: core.NewSystem(core.Config{
		Camera: cfg.Camera, Device: device.IPhone11, Seed: cfg.Seed,
	})}
	pipeline.NewEngine(cfg, probe).Run()

	if len(probe.deltas) != cfg.Frames {
		t.Fatalf("probe saw %d frames, want %d", len(probe.deltas), cfg.Frames)
	}
	// Warmup covers initialization and the offload-heavy early phase, during
	// which the pool grows to the working-set high-water mark (last observed
	// allocation is around frame 61; per-frame cache compaction keeps the
	// chained working set bounded after that).
	const warmup = 120
	total := uint64(0)
	for i := warmup; i < len(probe.deltas); i++ {
		if probe.deltas[i] != 0 {
			t.Errorf("frame %d allocated %d masks", i, probe.deltas[i])
		}
		total += probe.deltas[i]
	}
	if total != 0 {
		t.Fatalf("steady-state frames allocated %d masks, want 0", total)
	}
}

// mallocTap wraps the edgeIS system and, when the engine enters frame mark,
// snapshots the process's malloc count and the allocation profile.
type mallocTap struct {
	inner   *core.System
	mark    int
	mallocs uint64
	profile []runtime.MemProfileRecord
}

func (p *mallocTap) Name() string { return p.inner.Name() }

func (p *mallocTap) ProcessFrame(f *scene.Frame, feats []feature.Feature, nowMs float64) pipeline.FrameOutput {
	if f.Index == p.mark {
		p.mallocs, p.profile = mallocSnapshot()
	}
	return p.inner.ProcessFrame(f, feats, nowMs)
}

func (p *mallocTap) HandleEdgeResult(res pipeline.EdgeResult, f *scene.Frame, nowMs float64) {
	p.inner.HandleEdgeResult(res, f, nowMs)
}

func (p *mallocTap) AwaitingEdgeResult() bool { return p.inner.AwaitingEdgeResult() }

// mallocSnapshot returns the cumulative malloc count and the allocation
// profile. The GC publishes every allocation so far to the profile.
func mallocSnapshot() (uint64, []runtime.MemProfileRecord) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	recs := make([]runtime.MemProfileRecord, 4096)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			return ms.Mallocs, recs[:n]
		}
		recs = make([]runtime.MemProfileRecord, 2*n)
	}
}

// allocsUnder counts the objects allocated between two profiles whose stack
// passes through a function of the package with the given import path. A
// record holds the 32 innermost frames of its stack, so records are summed
// per truncated stack before they are compared.
func allocsUnder(pkg string, before, after []runtime.MemProfileRecord) int64 {
	type key = [32]uintptr
	delta := make(map[key]int64, len(after))
	for _, r := range after {
		delta[r.Stack0] += r.AllocObjects
	}
	for _, r := range before {
		delta[r.Stack0] -= r.AllocObjects
	}
	var n int64
	for stk, d := range delta {
		if d == 0 {
			continue
		}
		r := runtime.MemProfileRecord{Stack0: stk}
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if strings.HasPrefix(fr.Function, pkg+".") {
				n += d
				break
			}
			if !more {
				break
			}
		}
	}
	return n
}

// TestOrbitFrameAllocationCeiling guards the mobile frame's allocation
// budget: it runs the 200-frame orbit clip (the one mobile-orbit benchmarks)
// through the engine and the edgeIS system and counts heap allocations over
// the second half, per frame, for the whole frame and for the part made
// under vo.System. Each ceiling is about twice the measured mean: a hot loop
// that goes back to allocating per observation or per contour pixel costs
// thousands of allocations per frame and trips it, ordinary drift does not.
func TestOrbitFrameAllocationCeiling(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("allocation counts are only meaningful in a full, uninstrumented run")
	}
	const (
		frames       = 200
		frameCeiling = 200 // measured mean: 98.4 per frame
		voCeiling    = 75  // measured mean: 36.1 per frame
	)
	// Record every allocation's stack, so the profile attributes each one.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1

	clip := dataset.DAVIS(42, frames)[0]
	cam := geom.StandardCamera(320, 240)
	cfg := pipeline.Config{
		World:       clip.World,
		Camera:      cam,
		Trajectory:  clip.Traj,
		Frames:      clip.Frames,
		CameraSpeed: clip.CameraSpeed,
		Medium:      netsim.WiFi5,
		Seed:        42,
	}
	tap := &mallocTap{
		inner: core.NewSystem(core.Config{Camera: cam, Device: device.IPhone11, Seed: 42}),
		mark:  frames / 2,
	}
	pipeline.NewEngine(cfg, tap).Run()
	mallocs, profile := mallocSnapshot()
	if tap.profile == nil {
		t.Fatalf("the engine never entered frame %d", tap.mark)
	}

	n := float64(frames - tap.mark)
	perFrame := float64(mallocs-tap.mallocs) / n
	voPerFrame := float64(allocsUnder("edgeis/internal/vo", tap.profile, profile)) / n
	t.Logf("frames %d-%d: %.1f allocations per frame, %.1f of them under vo", tap.mark, frames-1, perFrame, voPerFrame)
	if perFrame > frameCeiling {
		t.Errorf("%.1f allocations per frame, ceiling %d", perFrame, frameCeiling)
	}
	if voPerFrame > voCeiling {
		t.Errorf("%.1f allocations per frame under vo, ceiling %d", voPerFrame, voCeiling)
	}
}
