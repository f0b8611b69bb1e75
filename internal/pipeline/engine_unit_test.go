package pipeline_test

import (
	"testing"

	"edgeis/internal/feature"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
)

// stubStrategy offloads every frame at a configurable payload and records
// the results it receives.
type stubStrategy struct {
	payload   int
	queuePref int
	computeMs float64
	received  []int
}

func (s *stubStrategy) Name() string { return "stub" }

func (s *stubStrategy) ProcessFrame(f *scene.Frame, _ []feature.Feature, _ float64) pipeline.FrameOutput {
	return pipeline.FrameOutput{
		ComputeMs: s.computeMs,
		Offloads: []*pipeline.OffloadRequest{{
			FrameIndex:   f.Index,
			PayloadBytes: s.payload,
		}},
	}
}

func (s *stubStrategy) HandleEdgeResult(res pipeline.EdgeResult, _ *scene.Frame, _ float64) {
	s.received = append(s.received, res.FrameIndex)
}

func (s *stubStrategy) PreferredQueueDepth() int { return s.queuePref }

func stubConfig(frames int) pipeline.Config {
	return testScenario(21, frames)
}

func TestEngineLatestWinsDropsStaleFrames(t *testing.T) {
	// Offloading every 33 ms against a ~400 ms inference: a depth-1 queue
	// must serve far fewer frames than were submitted, and the served
	// frames must be recent relative to their service time.
	s := &stubStrategy{payload: 10_000, queuePref: 1, computeMs: 5}
	engine := pipeline.NewEngine(stubConfig(90), s)
	_, stats := engine.Run()
	if stats.Offloads != 90 {
		t.Fatalf("offloads = %d", stats.Offloads)
	}
	// ~3 s of video at ~400 ms inference: at most ~9 results.
	if stats.EdgeResultCount > 12 {
		t.Errorf("edge served %d frames; latest-wins should drop most", stats.EdgeResultCount)
	}
	if stats.EdgeResultCount < 4 {
		t.Errorf("edge served only %d frames", stats.EdgeResultCount)
	}
}

func TestEngineDeepQueueServesStaleFrames(t *testing.T) {
	// With a deep queue the edge serves the same number of inferences, but
	// the ones it serves lag far behind the submission frontier.
	shallow := &stubStrategy{payload: 10_000, queuePref: 1, computeMs: 5}
	pipeline.NewEngine(stubConfig(90), shallow).Run()
	deep := &stubStrategy{payload: 10_000, queuePref: 24, computeMs: 5}
	pipeline.NewEngine(stubConfig(90), deep).Run()

	if len(shallow.received) == 0 || len(deep.received) == 0 {
		t.Fatal("no results received")
	}
	// Compare the index of the LAST served frame: latest-wins serves a
	// recent frame; the deep queue is still working through the backlog.
	lastShallow := shallow.received[len(shallow.received)-1]
	lastDeep := deep.received[len(deep.received)-1]
	if lastDeep >= lastShallow {
		t.Errorf("deep queue served frame %d, shallow %d: deep should lag",
			lastDeep, lastShallow)
	}
}

func TestEngineDropsFramesWhenMobileSlow(t *testing.T) {
	s := &stubStrategy{payload: 100, queuePref: 1, computeMs: 100} // 3x budget
	engine := pipeline.NewEngine(stubConfig(60), s)
	_, stats := engine.Run()
	if stats.DroppedFrames < 30 {
		t.Errorf("dropped %d frames; a 100 ms pipeline must drop ~2/3", stats.DroppedFrames)
	}
}

func TestEngineUplinkAccounting(t *testing.T) {
	s := &stubStrategy{payload: 5_000, queuePref: 1, computeMs: 5}
	engine := pipeline.NewEngine(stubConfig(30), s)
	_, stats := engine.Run()
	if stats.UplinkBytes != 30*5_000 {
		t.Errorf("uplink = %d, want %d", stats.UplinkBytes, 30*5_000)
	}
	if stats.DownlinkBytes <= 0 {
		t.Error("downlink not accounted")
	}
}

func TestEvaluateFromSkipsWarmup(t *testing.T) {
	evals := []pipeline.FrameEval{
		{Index: 0, IoUs: []float64{0}, LatencyMs: 1},
		{Index: 1, IoUs: []float64{0}, LatencyMs: 1},
		{Index: 2, IoUs: []float64{1}, LatencyMs: 1},
	}
	acc := pipeline.EvaluateFrom("x", evals, 2)
	if acc.Samples() != 1 || acc.MeanIoU() != 1 {
		t.Errorf("warmup not skipped: n=%d iou=%v", acc.Samples(), acc.MeanIoU())
	}
	_ = metrics.LooseThreshold
}

func TestEngineDegradedNetworkHurtsButDoesNotCrash(t *testing.T) {
	// Failure injection: a starved, lossy link. The system must still run
	// to completion, with clearly fewer edge results than on a clean link.
	clean := testScenario(23, 120)
	sClean := newEdgeIS(clean)
	_, cleanStats := pipeline.NewEngine(clean, sClean).Run()

	bad := testScenario(23, 120)
	profile := netsim.DefaultProfile(netsim.WiFi24)
	profile.GoodputMbps = 0.7 // ~starved
	profile.LossRate = 0.3
	profile.BaseRTTMs = 120
	bad.Backend = pipeline.NewSimBackend(pipeline.SimBackendConfig{Profile: profile, Seed: bad.Seed})
	sBad := newEdgeIS(bad)
	_, badStats := pipeline.NewEngine(bad, sBad).Run()

	if badStats.EdgeResultCount >= cleanStats.EdgeResultCount {
		t.Errorf("degraded link served %d results vs clean %d",
			badStats.EdgeResultCount, cleanStats.EdgeResultCount)
	}
}
