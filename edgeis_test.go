package edgeis

import (
	"testing"
	"time"
)

// TestPublicAPIQuickstart exercises the documented quick-start path.
func TestPublicAPIQuickstart(t *testing.T) {
	cam := StandardCamera(320, 240)
	sys := NewSystem(SystemConfig{Camera: cam, Device: IPhone11, Seed: 1})
	engine := NewEngine(EngineConfig{
		World:       StreetScene(ScenePreset{Seed: 1, ObjectCount: 3}),
		Camera:      cam,
		Trajectory:  InspectionRoute(WalkSpeed),
		Frames:      120,
		CameraSpeed: WalkSpeed,
		Medium:      WiFi5,
		Seed:        1,
	}, sys)
	evals, stats := engine.Run()
	if stats.Frames != 120 {
		t.Fatalf("frames = %d", stats.Frames)
	}
	acc := Evaluate("edgeIS", evals, 60)
	if acc.Samples() == 0 {
		t.Fatal("no samples")
	}
	if sys.Name() != "edgeIS" {
		t.Errorf("name = %q", sys.Name())
	}
}

// TestPublicAPITransport exercises the exported TCP server/client pair.
func TestPublicAPITransport(t *testing.T) {
	srv := NewEdgeServer(NewModel(MaskRCNN))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	client, err := DialEdge(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPublicAPIModels checks the exported model kinds and their calibrated
// latency ordering.
func TestPublicAPIModels(t *testing.T) {
	for _, k := range []ModelKind{MaskRCNN, YOLACT, YOLOv3} {
		if NewModel(k) == nil {
			t.Fatalf("no model for %v", k)
		}
	}
	speeds := []float64{WalkSpeed, StrideSpeed, JogSpeed}
	for i := 1; i < len(speeds); i++ {
		if speeds[i] <= speeds[i-1] {
			t.Error("gait speeds not increasing")
		}
	}
}
