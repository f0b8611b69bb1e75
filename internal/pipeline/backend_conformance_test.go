package pipeline_test

import (
	"testing"

	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/pipeline/backendtest"
	"edgeis/internal/scene"
)

// TestBackendConformance runs the shared EdgeBackend contract against the
// simulated backend. The TCP backend runs the same harness from package
// live, where a real server is available.
func TestBackendConformance(t *testing.T) {
	tg := backendtest.Target{
		Name: "sim",
		New: func(t *testing.T, frames []*scene.Frame, queueDepth int) pipeline.EdgeBackend {
			b := pipeline.NewSimBackend(pipeline.SimBackendConfig{
				Profile: netsim.DefaultProfile(netsim.WiFi5),
				Seed:    5,
			})
			b.Bind(frames, queueDepth)
			return b
		},
		LatestWins: true,
	}
	t.Run(tg.Name, func(t *testing.T) { backendtest.Conformance(t, tg) })
}
