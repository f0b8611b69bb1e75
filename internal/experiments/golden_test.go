package experiments

import (
	"os"
	"strings"
	"testing"
)

// checkGolden renders the full experiment report (seed 11, 66 frames — past
// WarmupFrames, so accuracy lines are live) on a pool of the given size and
// requires it to equal the committed golden byte-for-byte. Skipped under
// -short and under the race detector purely for runtime; the mechanism is
// covered there by TestRunClipsParallelMatchesSerial.
func checkGolden(t *testing.T, workers int) {
	if testing.Short() {
		t.Skip("renders the full experiment suite")
	}
	if raceEnabled {
		t.Skip("full-suite replay exceeds the race-detector budget")
	}
	var b strings.Builder
	withWorkers(t, workers, func() {
		for _, res := range All(11, 66) {
			b.WriteString(res.Render())
		}
	})
	want, err := os.ReadFile("testdata/golden_all_seed11_frames66.txt")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("experiment report at %d workers diverged from golden; regenerate only if the change is intended", workers)
	}
}

// TestAllGoldenReport pins the full experiment report byte-for-byte on a
// forced serial run. The suite's claim to determinism — same seeds, same
// event ordering, any worker count — is only credible if the rendered output
// never moves; this catches both scheduler regressions in the engine and
// map-iteration nondeterminism anywhere under it.
func TestAllGoldenReport(t *testing.T) { checkGolden(t, 1) }

// TestAllParallelDeterministic is the headline guarantee: the same sweep
// through an 8-worker pool renders the same golden, hence byte-identical
// reports to the serial run above.
func TestAllParallelDeterministic(t *testing.T) { checkGolden(t, 8) }
