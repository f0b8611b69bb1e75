package pipeline_test

import (
	"testing"

	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/pipeline/backendtest"
	"edgeis/internal/segmodel"
)

// skipRequest builds a plain full-quality offload for frame i.
func skipRequest(i int) *pipeline.OffloadRequest {
	return &pipeline.OffloadRequest{
		FrameIndex:   i,
		PayloadBytes: 20_000,
		Quality:      func(x, y int) float64 { return 1 },
	}
}

// TestSimBackendSkipComputeReducesInferCost pins the simulated skip-compute
// path: under an enabled keyframe policy a steady stream answers every
// offload but charges materially less accelerator time than the all-keyframe
// edge, and an explicitly disabled policy (Interval 1) reproduces the
// zero-config schedule byte-for-byte.
func TestSimBackendSkipComputeReducesInferCost(t *testing.T) {
	frames := backendtest.Frames(7, 10)
	run := func(p segmodel.KeyframePolicy) (deliveries []float64, inferSum float64, results int) {
		// YOLACT's cost is backbone-dominated, so the skip path's saving is
		// visible even on small unguided frames (vanilla Mask R-CNN spends
		// most of its time on RoIs, which warping does not touch).
		b := pipeline.NewSimBackend(pipeline.SimBackendConfig{
			Model:    segmodel.New(segmodel.YOLACT),
			Profile:  netsim.DefaultProfile(netsim.WiFi5),
			Seed:     7,
			Keyframe: p,
		})
		b.Bind(frames, 4)
		var out []pipeline.ScheduledResult
		// Wide spacing: each offload is served before the next is sent, so
		// no queueing delay muddies the cost comparison.
		for i := 0; i < len(frames); i++ {
			out = append(out, b.Submit(skipRequest(i), float64(i)*500)...)
		}
		out = append(out, b.Advance(1e12)...)
		for _, r := range out {
			deliveries = append(deliveries, r.At)
		}
		st := b.Stats()
		if st.DroppedOffloads != 0 {
			t.Fatalf("unexpected drops %d", st.DroppedOffloads)
		}
		return deliveries, st.InferMsSum, st.Results
	}

	zeroD, zeroSum, zeroN := run(segmodel.KeyframePolicy{})
	offD, offSum, _ := run(segmodel.KeyframePolicy{Interval: 1})
	skipD, skipSum, skipN := run(segmodel.KeyframePolicy{Interval: 4})

	if len(offD) != len(zeroD) || offSum != zeroSum {
		t.Fatalf("Interval 1 diverged from zero policy: sum %.6f vs %.6f", offSum, zeroSum)
	}
	for i := range zeroD {
		if offD[i] != zeroD[i] {
			t.Errorf("delivery %d moved under Interval 1: %.6f vs %.6f", i, offD[i], zeroD[i])
		}
	}
	if skipN != zeroN {
		t.Fatalf("skip-compute lost results: %d vs %d", skipN, zeroN)
	}
	// 10 frames at Interval 4 serve 3 keyframes and 7 warps; the warp path
	// drops the backbone term, so the accelerator-time saving is large.
	if skipSum >= zeroSum*0.85 {
		t.Errorf("skip-compute saved too little accelerator time: %.1f ms vs %.1f ms all-keyframe",
			skipSum, zeroSum)
	}
	// Every delivery must arrive no later than its all-keyframe counterpart:
	// cheaper inference can only pull completions earlier.
	for i := range zeroD {
		if skipD[i] > zeroD[i] {
			t.Errorf("delivery %d later under skip-compute: %.3f vs %.3f", i, skipD[i], zeroD[i])
		}
	}
}

// TestEngineEdgeKeyframeSkipCompute runs the full edgeIS system with the
// simulated edge's feature cache enabled: the run must spend less edge
// accelerator time than the all-keyframe baseline while holding accuracy
// within the documented warp penalty.
func TestEngineEdgeKeyframeSkipCompute(t *testing.T) {
	cfg := testScenario(17, 180)
	accFull, statsFull := runSystem(t, cfg, newEdgeIS(cfg))

	cfgSkip := testScenario(17, 180)
	cfgSkip.EdgeKeyframe = segmodel.KeyframePolicy{Interval: 4}
	accSkip, statsSkip := runSystem(t, cfgSkip, newEdgeIS(cfgSkip))

	if statsSkip.EdgeResultCount == 0 {
		t.Fatal("skip-compute run produced no edge results")
	}
	if statsSkip.EdgeInferMsSum >= statsFull.EdgeInferMsSum {
		t.Errorf("skip-compute did not reduce edge accelerator time: %.1f ms vs %.1f ms",
			statsSkip.EdgeInferMsSum, statsFull.EdgeInferMsSum)
	}
	// The bounded warp penalty must not cost more than a few IoU points.
	if accSkip.MeanIoU() < accFull.MeanIoU()-0.05 {
		t.Errorf("skip-compute IoU %.3f fell more than 0.05 below all-keyframe %.3f",
			accSkip.MeanIoU(), accFull.MeanIoU())
	}
}
