package pipeline_test

import (
	"reflect"
	"testing"

	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/pipeline/backendtest"
)

// serveAtOnce submits n offloads at t=0 to a fresh simulated edge bound with
// the given queue depth, drains it, and fails unless every offload is
// served, none is dropped and results arrive in submission order.
func serveAtOnce(t *testing.T, seed int64, n, depth int) []pipeline.ScheduledResult {
	t.Helper()
	b := pipeline.NewSimBackend(pipeline.SimBackendConfig{
		Profile: netsim.DefaultProfile(netsim.WiFi5),
		Seed:    seed,
	})
	b.Bind(backendtest.Frames(seed, 6), depth)
	var out []pipeline.ScheduledResult
	for i := 0; i < n; i++ {
		req := &pipeline.OffloadRequest{
			FrameIndex:   i,
			PayloadBytes: 20_000,
			Quality:      func(x, y int) float64 { return 1 },
		}
		out = append(out, b.Submit(req, 0)...)
	}
	out = append(out, b.Advance(1e12)...)
	if st := b.Stats(); st.DroppedOffloads != 0 || st.Results != n || len(out) != n {
		t.Fatalf("%d offloads behind depth %d: %d results (%d delivered), %d dropped",
			n, depth, st.Results, len(out), st.DroppedOffloads)
	}
	for i, r := range out {
		if r.Res.FrameIndex != i {
			t.Fatalf("result %d is frame %d: the backlog must be served FIFO", i, r.Res.FrameIndex)
		}
	}
	return out
}

// TestSimBackendMultiAccelerator pins the edge's single accelerator: two
// offloads submitted together complete one inference apart, because the
// second starts when the first finishes. The two downlinks differ only by
// jitter, far below an inference.
func TestSimBackendMultiAccelerator(t *testing.T) {
	pair := serveAtOnce(t, 7, 2, 4)
	if gap := pair[1].At - pair[0].At; gap < 0.9*pair[1].Res.InferMs || gap > 1.1*pair[1].Res.InferMs {
		t.Errorf("second delivery %.3f ms after the first, want about one inference (%.3f ms)",
			gap, pair[1].Res.InferMs)
	}
}

// TestSimBackendBatchFormer pins one offload per launch on a backlog: five
// offloads behind a queue of depth 8 are all served without a drop, and the
// schedule is a pure function of the seed.
func TestSimBackendBatchFormer(t *testing.T) {
	backlog := serveAtOnce(t, 9, 5, 8)
	if again := serveAtOnce(t, 9, 5, 8); !reflect.DeepEqual(backlog, again) {
		t.Error("identical runs scheduled the backlog differently")
	}
}

// TestSimBackendServesBacklogSerially pins that a backlog never overlaps on
// the one accelerator: each delivery trails the one before it by about its
// own inference.
func TestSimBackendServesBacklogSerially(t *testing.T) {
	backlog := serveAtOnce(t, 9, 5, 8)
	for i := 1; i < len(backlog); i++ {
		if gap := backlog[i].At - backlog[i-1].At; gap < 0.9*backlog[i].Res.InferMs {
			t.Errorf("delivery %d %.3f ms after delivery %d, want at least about one inference (%.3f ms)",
				i, gap, i-1, backlog[i].Res.InferMs)
		}
	}
}
