package pipeline_test

import (
	"testing"

	"edgeis/internal/baseline"
	"edgeis/internal/core"
	"edgeis/internal/device"
	"edgeis/internal/geom"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
)

// testScenario builds a standard static street scenario.
func testScenario(seed int64, frames int) pipeline.Config {
	w := scene.StreetScene(scene.PresetConfig{Seed: seed, ObjectCount: 3})
	cam := geom.StandardCamera(320, 240)
	return pipeline.Config{
		World:       w,
		Camera:      cam,
		Trajectory:  scene.InspectionRoute(scene.WalkSpeed),
		Frames:      frames,
		CameraSpeed: scene.WalkSpeed,
		Medium:      netsim.WiFi5,
		Seed:        seed,
	}
}

// warmupFrames excludes the VO initialization window shared by all
// variants (see EvaluateFrom).
const warmupFrames = 60

func runSystem(t *testing.T, cfg pipeline.Config, s pipeline.Strategy) (*metrics.Accumulator, pipeline.RunStats) {
	t.Helper()
	engine := pipeline.NewEngine(cfg, s)
	evals, stats := engine.Run()
	return pipeline.EvaluateFrom(s.Name(), evals, warmupFrames), stats
}

func newEdgeIS(cfg pipeline.Config) *core.System {
	return core.NewSystem(core.Config{Camera: cfg.Camera, Device: device.IPhone11, Seed: cfg.Seed})
}

func TestEdgeISRunsRealTime(t *testing.T) {
	cfg := testScenario(3, 210)
	acc, stats := runSystem(t, cfg, newEdgeIS(cfg))
	if acc.Samples() == 0 {
		t.Fatal("no object samples")
	}
	// Real-time: mean mobile latency within the 33ms budget, few drops.
	if acc.MeanLatencyMs() > pipeline.FrameBudgetMs+5 {
		t.Errorf("mean latency %.1f ms exceeds budget", acc.MeanLatencyMs())
	}
	if float64(stats.DroppedFrames)/float64(stats.Frames) > 0.25 {
		t.Errorf("dropped %d/%d frames", stats.DroppedFrames, stats.Frames)
	}
	if stats.Offloads == 0 {
		t.Error("edgeIS never offloaded")
	}
	// Headline accuracy after the shared init window.
	if acc.MeanIoU() < 0.65 {
		t.Errorf("mean IoU %.3f too low", acc.MeanIoU())
	}
}

func TestSystemOrderingFig9(t *testing.T) {
	// The core comparative claim (Fig. 9): edgeIS < EAAR < EdgeDuet <
	// best-effort < mobile-only on false rate, and edgeIS highest IoU.
	if testing.Short() {
		t.Skip("long integration test")
	}
	cfg := testScenario(11, 240)

	systems := []pipeline.Strategy{
		newEdgeIS(cfg),
		baseline.NewEAAR(cfg.Camera, device.IPhone11),
		baseline.NewEdgeDuet(cfg.Camera, device.IPhone11),
		baseline.NewBestEffort(cfg.Camera, device.IPhone11),
		baseline.NewMobileOnly(cfg.Camera, device.IPhone11, cfg.Seed),
	}
	accs := make([]*metrics.Accumulator, 0, len(systems))
	for _, s := range systems {
		acc, _ := runSystem(t, cfg, s)
		accs = append(accs, acc)
	}
	for _, acc := range accs {
		t.Log(acc.Row())
	}

	edgeIS, eaar, duet, best, mobile := accs[0], accs[1], accs[2], accs[3], accs[4]
	fr := func(a *metrics.Accumulator) float64 { return a.FalseRate(metrics.StrictThreshold) }

	if !(fr(edgeIS) < fr(eaar)) {
		t.Errorf("edgeIS false rate %.3f !< EAAR %.3f", fr(edgeIS), fr(eaar))
	}
	if !(fr(eaar) < fr(best)) {
		t.Errorf("EAAR false rate %.3f !< best-effort %.3f", fr(eaar), fr(best))
	}
	if !(fr(duet) < fr(best)) {
		t.Errorf("EdgeDuet false rate %.3f !< best-effort %.3f", fr(duet), fr(best))
	}
	if !(fr(best) < fr(mobile)) {
		t.Errorf("best-effort false rate %.3f !< mobile-only %.3f", fr(best), fr(mobile))
	}
	if !(edgeIS.MeanIoU() > eaar.MeanIoU() && edgeIS.MeanIoU() > duet.MeanIoU()) {
		t.Errorf("edgeIS IoU %.3f not best (EAAR %.3f, EdgeDuet %.3f)",
			edgeIS.MeanIoU(), eaar.MeanIoU(), duet.MeanIoU())
	}
}

func TestMobileOnlyStale(t *testing.T) {
	cfg := testScenario(5, 90)
	acc, stats := runSystem(t, cfg, baseline.NewMobileOnly(cfg.Camera, device.IPhone11, cfg.Seed))
	// Local inference takes dozens of frame intervals: most frames drop.
	if float64(stats.DroppedFrames)/float64(stats.Frames) < 0.8 {
		t.Errorf("dropped only %d/%d frames", stats.DroppedFrames, stats.Frames)
	}
	if stats.Offloads != 0 {
		t.Error("mobile-only offloaded")
	}
	_ = acc
}

func TestBestEffortSaturatesUplink(t *testing.T) {
	cfg := testScenario(7, 90)
	_, statsBest := runSystem(t, cfg, baseline.NewBestEffort(cfg.Camera, device.IPhone11))
	cfgE := testScenario(7, 90)
	_, statsEdge := runSystem(t, cfgE, newEdgeIS(cfgE))
	if statsBest.UplinkBytes <= 2*statsEdge.UplinkBytes {
		t.Errorf("best-effort uplink %d should dwarf edgeIS %d",
			statsBest.UplinkBytes, statsEdge.UplinkBytes)
	}
}

func TestNetworkSensitivity(t *testing.T) {
	// Fig. 10 shape: every system degrades (or stays equal) moving from
	// WiFi5 to WiFi2.4, and edgeIS degrades gracefully.
	run := func(m netsim.Medium) float64 {
		cfg := testScenario(13, 150)
		cfg.Medium = m
		acc, _ := runSystem(t, cfg, newEdgeIS(cfg))
		return acc.FalseRate(metrics.StrictThreshold)
	}
	w5 := run(netsim.WiFi5)
	w24 := run(netsim.WiFi24)
	if w24 < w5-0.05 {
		t.Errorf("false rate improved on the slower link: w5=%.3f w24=%.3f", w5, w24)
	}
}

func TestEngineDeterministic(t *testing.T) {
	cfg := testScenario(17, 60)
	a, _ := runSystem(t, cfg, newEdgeIS(cfg))
	cfg2 := testScenario(17, 60)
	b, _ := runSystem(t, cfg2, newEdgeIS(cfg2))
	if a.MeanIoU() != b.MeanIoU() || a.Samples() != b.Samples() {
		t.Errorf("nondeterministic: %.5f/%d vs %.5f/%d",
			a.MeanIoU(), a.Samples(), b.MeanIoU(), b.Samples())
	}
}

func TestEvaluateAggregation(t *testing.T) {
	evals := []pipeline.FrameEval{
		{IoUs: []float64{0.9, 0.8}, LatencyMs: 20},
		{IoUs: []float64{0.4}, LatencyMs: 30},
	}
	acc := pipeline.EvaluateFrom("x", evals, 0)
	if acc.Samples() != 3 {
		t.Errorf("samples = %d", acc.Samples())
	}
	if acc.FalseRate(0.5) < 0.3 || acc.FalseRate(0.5) > 0.34 {
		t.Errorf("false rate = %v", acc.FalseRate(0.5))
	}
}
