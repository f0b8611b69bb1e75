package live

import (
	"testing"
	"time"

	"edgeis/internal/codec"
	"edgeis/internal/core"
	"edgeis/internal/dataset"
	"edgeis/internal/device"
	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/pipeline/backendtest"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// startServer spins up an in-process edge server and a connected client.
func startServer(t *testing.T, opts ...transport.ServerOption) (*transport.Server, *transport.Client) {
	t.Helper()
	srv := transport.NewServer(segmodel.New(segmodel.MaskRCNN), opts...)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := transport.Dial(addr.String(), time.Second)
	if err != nil {
		_ = srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = srv.Close()
	})
	return srv, client
}

func TestDriverEndToEndOverTCP(t *testing.T) {
	srv, client := startServer(t)
	cam := geom.StandardCamera(320, 240)
	clip := dataset.SelfRecorded(3, 150)[0]
	clip.Frames = 150

	sys := core.NewSystem(core.Config{Camera: cam, Device: device.IPhone11, Seed: 3})
	d := NewDriver(sys, client, clip, cam, 3)

	progressed := 0
	d.Progress = func(frame int, iou float64) { progressed++ }

	out, err := d.Run()
	if err != nil {
		t.Fatal(err)
	}
	if out.Acc.Samples() == 0 {
		t.Fatal("no samples")
	}
	// The live path should reach a useful accuracy on this easy clip.
	if out.Acc.MeanIoU() < 0.4 {
		t.Errorf("live mean IoU = %.3f", out.Acc.MeanIoU())
	}
	if out.Session.InitAttempts == 0 {
		t.Error("never initialized")
	}
	if out.Sent == 0 {
		t.Error("nothing sent over the socket")
	}
	if progressed == 0 {
		t.Error("progress callback never fired")
	}
	st := srv.Stats()
	if st.Served == 0 || st.MeanInferMs <= 0 {
		t.Errorf("server stats: served=%d mean=%.1f", st.Served, st.MeanInferMs)
	}
}

func TestToFrameMsgConversion(t *testing.T) {
	cam := geom.StandardCamera(320, 240)
	clip := dataset.KITTI(1, 5)[0]
	frames := clip.World.RenderSequence(cam, clip.Traj, 3)
	grid := codec.NewGrid(cam.Width, cam.Height)

	qualities := map[int]float64{}
	off := &pipeline.OffloadRequest{
		FrameIndex:   2,
		PayloadBytes: 9999,
		Quality: func(x, y int) float64 {
			q := 0.5
			if x < 64 {
				q = 1.0
			}
			qualities[grid.TileAt(x, y)] = q
			return q
		},
	}
	msg := ToFrameMsg(off, frames[2], grid, 7)
	if msg.FrameIndex != 2 || msg.PaddingBytes != 9999 {
		t.Error("header mismatch")
	}
	if len(msg.Objects) != len(frames[2].Objects) {
		t.Error("objects mismatch")
	}
	if len(msg.QualityLevels) != grid.Tiles() {
		t.Fatalf("quality levels = %d", len(msg.QualityLevels))
	}
	if msg.QualityLevels[0] != 1.0 {
		t.Errorf("left tile quality = %v, want 1.0", msg.QualityLevels[0])
	}
	// A tile well right of x=64.
	farTile := grid.TileAt(300, 100)
	if msg.QualityLevels[farTile] != 0.5 {
		t.Errorf("right tile quality = %v, want 0.5", msg.QualityLevels[farTile])
	}
}

func TestToEdgeResultConversion(t *testing.T) {
	m := mask.New(64, 64)
	for y := 10; y < 40; y++ {
		for x := 10; x < 40; x++ {
			m.Set(x, y)
		}
	}
	wire := &transport.ResultMsg{
		FrameIndex: 5,
		InferMs:    120,
		Detections: []transport.WireDetection{
			transport.FromDetection(segmodel.Detection{
				ObjectID: 1, Label: 3, Score: 0.8, Mask: m, Box: m.BoundingBox(),
			}, 64),
		},
	}
	res := ToEdgeResult(wire)
	if res.FrameIndex != 5 || res.InferMs != 120 || len(res.Detections) != 1 {
		t.Fatal("conversion mismatch")
	}
	if res.Detections[0].Mask == nil {
		t.Fatal("mask missing")
	}
	if iou := mask.IoU(res.Detections[0].Mask, m); iou < 0.85 {
		t.Errorf("mask round trip IoU = %.3f", iou)
	}
}

// TestTCPBackendConformance runs the shared EdgeBackend contract against a
// real server over a socket. Queue overflow cannot be forced
// deterministically through a wall-clock socket, so the latest-wins
// subtest is skipped; the sim backend covers it.
func TestTCPBackendConformance(t *testing.T) {
	backendtest.Conformance(t, backendtest.Target{
		Name:      "tcp",
		WallClock: true,
		New: func(t *testing.T, frames []*scene.Frame, queueDepth int) pipeline.EdgeBackend {
			_, client := startServer(t)
			b := NewTCPBackend(client, 41)
			b.Bind(frames, queueDepth)
			return b
		},
	})
}

// TestPooledTCPBackendConformance runs the same EdgeBackend contract against
// a server with a 4-worker accelerator pool. A single connection is served
// synchronously, so delivery order must hold even with concurrent workers.
func TestPooledTCPBackendConformance(t *testing.T) {
	backendtest.Conformance(t, backendtest.Target{
		Name:      "tcp-pooled",
		WallClock: true,
		New: func(t *testing.T, frames []*scene.Frame, queueDepth int) pipeline.EdgeBackend {
			_, client := startServer(t, transport.WithAccelerators(4))
			b := NewTCPBackend(client, 41)
			b.Bind(frames, queueDepth)
			return b
		},
	})
}

// TestServerRejectsBecomeDroppedOffloads pins the reject accounting path:
// when the server sheds a frame at admission (TypeReject), the TCP backend
// must fold it into DroppedOffloads and release the outstanding slot —
// the engine's no-silent-loss law over a real socket.
func TestServerRejectsBecomeDroppedOffloads(t *testing.T) {
	srv, victim := startServer(t,
		transport.WithAccelerators(1),
		transport.WithQueueDepth(1),
		// Hold the single accelerator for ~2x the simulated latency so the
		// worker and queue slot stay occupied while the victim frame lands.
		transport.WithWallOccupancy(2),
	)
	frames := backendtest.Frames(41, 4)

	// Two occupier connections: the first frame takes the accelerator, the
	// second fills the depth-1 queue.
	occupiers := make([]*TCPBackend, 2)
	for i := range occupiers {
		client, err := transport.Dial(srv.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b := NewTCPBackend(client, 41)
		b.Bind(frames, 4)
		t.Cleanup(func() { _ = b.Close() })
		occupiers[i] = b
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	req := func(i int) *pipeline.OffloadRequest {
		return &pipeline.OffloadRequest{
			FrameIndex:   i,
			PayloadBytes: 1000,
			Quality:      func(x, y int) float64 { return 1 },
		}
	}
	// One at a time: a second frame landing before the worker has dequeued
	// the first would find the depth-1 queue full and be rejected itself.
	occupiers[0].Submit(req(0), 0)
	waitFor("worker occupied", func() bool {
		s := srv.Stats().Scheduler
		return s.InFlight == 1 && s.Queued == 0
	})
	occupiers[1].Submit(req(1), 0)
	waitFor("worker and queue occupied", func() bool {
		s := srv.Stats().Scheduler
		return s.InFlight == 1 && s.Queued == 1
	})

	vb := NewTCPBackend(victim, 41)
	vb.Bind(frames, 4)
	vb.Submit(req(2), 0)
	if got := vb.Stats().Submitted; got != 1 {
		t.Fatalf("submitted = %d, want 1", got)
	}
	waitFor("reject reconciled into DroppedOffloads", func() bool {
		vb.Advance(0)
		return vb.Stats().DroppedOffloads == 1
	})
	st := vb.Stats()
	if st.Results != 0 {
		t.Errorf("victim got %d results, want 0", st.Results)
	}
	if out := vb.Outstanding(); out != 0 {
		t.Errorf("outstanding = %d after reject, want 0", out)
	}
	if srv.Stats().Rejected == 0 {
		t.Error("server never counted the shed frame")
	}
}

// TestSimAndTCPBackendsAgree is the tentpole's acceptance check: ONE engine
// runs the same clip against the simulated backend and against a real TCP
// server, and the steady-state accuracy agrees closely. The backends differ
// only in where results come from and when they land, so past the VO
// warmup the displayed masks should be nearly identical.
func TestSimAndTCPBackendsAgree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector skews wall-clock result arrival vs the simulated clock")
	}
	cam := geom.StandardCamera(320, 240)
	clip := dataset.SelfRecorded(3, 150)[0]
	clip.Frames = 150
	const warmup = 60

	run := func(backend pipeline.EdgeBackend) *metrics.Accumulator {
		sys := core.NewSystem(core.Config{Camera: cam, Device: device.IPhone11, Seed: 3})
		evals, _ := pipeline.NewEngine(pipeline.Config{
			World:       clip.World,
			Camera:      cam,
			Trajectory:  clip.Traj,
			Frames:      clip.Frames,
			CameraSpeed: clip.CameraSpeed,
			Medium:      netsim.WiFi5,
			Seed:        3,
			Backend:     backend,
		}, sys).Run()
		return pipeline.EvaluateFrom("run", evals, warmup)
	}

	simAcc := run(nil) // nil Backend builds the default simulated edge
	simIoU := simAcc.MeanIoU()
	if simIoU <= 0 {
		t.Fatalf("degenerate sim accuracy: %.4f", simIoU)
	}

	// The TCP arm rides the wall clock: host scheduling jitter can land a
	// burst of edge results late and dent one run's steady-state IoU. Skew
	// is transient, so retry the arm a few times; a systematic sim/TCP
	// divergence keeps failing every attempt.
	const attempts = 3
	var tcpIoU float64
	for i := 1; i <= attempts; i++ {
		_, client := startServer(t)
		tcpIoU = run(NewTCPBackend(client, 3)).MeanIoU()
		t.Logf("attempt %d: steady-state mean IoU: sim=%.4f tcp=%.4f", i, simIoU, tcpIoU)
		if tcpIoU <= 0 {
			t.Fatalf("degenerate tcp accuracy: %.4f", tcpIoU)
		}
		if diff := simIoU - tcpIoU; diff <= 0.02 && diff >= -0.02 {
			return
		}
	}
	t.Errorf("sim and TCP backends disagree after %d attempts: sim=%.4f tcp=%.4f (|diff| > 0.02)", attempts, simIoU, tcpIoU)
}
