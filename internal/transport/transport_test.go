package transport

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"

	"edgeis/internal/accel"
	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/segmodel"
)

func rectMask(w, h, x0, y0, x1, y1 int) *mask.Bitmask {
	m := mask.New(w, h)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			m.Set(x, y)
		}
	}
	return m
}

func sampleFrame() *FrameMsg {
	m := rectMask(320, 240, 60, 50, 180, 150)
	return &FrameMsg{
		FrameIndex: 42,
		Width:      320,
		Height:     240,
		Seed:       7,
		Objects: []segmodel.ObjectTruth{
			{ObjectID: 1, Label: 2, Visible: m, Box: m.BoundingBox()},
		},
		TileCols:      10,
		QualityLevels: []float32{1, 0.5, 0.25},
		Areas: []accel.Area{
			{Box: mask.Box{MinX: 40, MinY: 40, MaxX: 200, MaxY: 170}, Label: 2, Known: true},
		},
		PaddingBytes: 128,
	}
}

func TestFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	b := MarshalFrame(f)
	got, err := UnmarshalFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameIndex != f.FrameIndex || got.Width != f.Width || got.Seed != f.Seed {
		t.Error("header mismatch")
	}
	if len(got.Objects) != 1 || got.Objects[0].Label != 2 {
		t.Fatal("objects mismatch")
	}
	if mask.IoU(got.Objects[0].Visible, f.Objects[0].Visible) != 1 {
		t.Error("mask did not survive RLE round trip")
	}
	if len(got.QualityLevels) != 3 || got.QualityLevels[1] != 0.5 {
		t.Error("quality levels mismatch")
	}
	if len(got.Areas) != 1 || !got.Areas[0].Known || got.Areas[0].Label != 2 {
		t.Error("areas mismatch")
	}
	if got.PaddingBytes != 128 {
		t.Error("padding mismatch")
	}
}

func TestResultRoundTrip(t *testing.T) {
	m := rectMask(320, 240, 100, 80, 220, 200)
	det := segmodel.Detection{ObjectID: 3, Label: 5, Score: 0.87, Mask: m, Box: m.BoundingBox()}
	msg := &ResultMsg{
		FrameIndex: 9,
		InferMs:    123.5,
		Detections: []WireDetection{FromDetection(det, 160)},
	}
	b := MarshalResult(msg)
	got, err := UnmarshalResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameIndex != 9 || got.InferMs != 123.5 || len(got.Detections) != 1 {
		t.Fatal("header mismatch")
	}
	rec := got.Detections[0].ToDetection()
	if rec.Label != 5 || rec.ObjectID != 3 {
		t.Error("detection fields mismatch")
	}
	if rec.Mask == nil {
		t.Fatal("mask not reconstructed")
	}
	if iou := mask.IoU(rec.Mask, m); iou < 0.9 {
		t.Errorf("contour round-trip IoU = %.3f", iou)
	}
}

func TestMaskRLERoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := mask.New(48, 40)
		for i := 0; i < 48*40; i++ {
			if r.Float64() < 0.3 {
				m.Set(i%48, i/48)
			}
		}
		b := appendMask(nil, m)
		got, err := decodeMask(b)
		if err != nil {
			return false
		}
		return mask.IoU(m, got) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},
		{99, 1, 0, 0},
		bytes.Repeat([]byte{0xff}, 64),
		MarshalFrame(sampleFrame())[:10], // truncated
	}
	for i, b := range cases {
		if _, err := UnmarshalFrame(b); err == nil {
			t.Errorf("case %d: frame decode accepted garbage", i)
		}
		if _, err := UnmarshalResult(b); err == nil {
			t.Errorf("case %d: result decode accepted garbage", i)
		}
	}
}

func TestWriteReadMessage(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello edge")
	if err := WriteMessage(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("payload mismatch")
	}
	// Oversized writes rejected.
	if err := WriteMessage(&buf, make([]byte, MaxMessageBytes+1)); err == nil {
		t.Error("oversize accepted")
	}
}

func TestClientServerEndToEnd(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.MaskRCNN))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
	}()

	client, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := client.Close(); err != nil {
			t.Errorf("client close: %v", err)
		}
	}()

	if !client.Send(sampleFrame()) {
		t.Fatal("send rejected")
	}
	select {
	case res := <-client.Results():
		if res.FrameIndex != 42 {
			t.Errorf("frame index = %d", res.FrameIndex)
		}
		if res.InferMs <= 0 {
			t.Error("no inference latency reported")
		}
		if len(res.Detections) == 0 {
			t.Error("no detections for a large clean object")
		} else {
			d := res.Detections[0].ToDetection()
			if d.Mask == nil || d.Label != 2 {
				t.Errorf("bad detection: label=%d", d.Label)
			}
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout waiting for result")
	}

	st := srv.Stats()
	if st.Served != 1 || st.MeanInferMs <= 0 {
		t.Errorf("server stats: served=%d mean=%.1f", st.Served, st.MeanInferMs)
	}
}

func TestMultipleClientsConcurrent(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.MaskRCNN))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	const clients = 4
	const framesPer = 3
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(id int) {
			c, err := Dial(addr.String(), time.Second)
			if err != nil {
				errc <- err
				return
			}
			defer func() { _ = c.Close() }()
			for j := 0; j < framesPer; j++ {
				f := sampleFrame()
				f.FrameIndex = int32(id*100 + j)
				f.Seed = int64(id*100 + j)
				if !c.Send(f) {
					errc <- err
					return
				}
			}
			for j := 0; j < framesPer; j++ {
				select {
				case res, ok := <-c.Results():
					if !ok {
						errc <- c.Err()
						return
					}
					if int(res.FrameIndex)/100 != id {
						errc <- ErrBadMessage
						return
					}
				case <-time.After(10 * time.Second):
					errc <- timeoutErr{}
					return
				}
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.Served != clients*framesPer {
		t.Errorf("served = %d, want %d", st.Served, clients*framesPer)
	}
	if st.PeakConns < 1 {
		t.Errorf("peak conns = %d, want >= 1", st.PeakConns)
	}
}

type timeoutErr struct{}

func (timeoutErr) Error() string { return "timeout" }

func TestClientSendAfterClose(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.MaskRCNN))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Send(sampleFrame()) {
		t.Error("send after close accepted")
	}
	// Double close is a no-op.
	if err := c.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestGuidedInferenceOverWire(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.MaskRCNN))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Guided (areas present) should report lower latency than vanilla.
	guided := sampleFrame()
	vanilla := sampleFrame()
	vanilla.Areas = nil
	vanilla.FrameIndex = 43

	if !c.Send(guided) || !c.Send(vanilla) {
		t.Fatal("send failed")
	}
	latency := map[int32]float64{}
	for i := 0; i < 2; i++ {
		select {
		case res := <-c.Results():
			latency[res.FrameIndex] = res.InferMs
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
	if latency[42] >= latency[43] {
		t.Errorf("guided %.1f ms !< vanilla %.1f ms", latency[42], latency[43])
	}
}

func TestPaddingInflatesWireSize(t *testing.T) {
	small := sampleFrame()
	small.PaddingBytes = 0
	big := sampleFrame()
	big.PaddingBytes = 10_000
	if len(MarshalFrame(big)) < len(MarshalFrame(small))+10_000 {
		t.Error("padding not applied")
	}
}

func TestFromDetectionBoxOnly(t *testing.T) {
	d := segmodel.Detection{ObjectID: 1, Label: 4, Score: 0.5,
		Box: mask.Box{MinX: 1, MinY: 2, MaxX: 30, MaxY: 40}}
	w := FromDetection(d, 64)
	if len(w.Contour) != 0 {
		t.Error("box-only detection should have no contour")
	}
	back := w.ToDetection()
	if back.Mask != nil || back.Box != d.Box {
		t.Error("box-only round trip failed")
	}
	_ = geom.Vec2{}
}

func TestErrorMessageRoundTrip(t *testing.T) {
	b := MarshalError("bad frame")
	if typ, err := MessageType(b); err != nil || typ != TypeError {
		t.Fatalf("type = %d, err = %v", typ, err)
	}
	msg, err := UnmarshalError(b)
	if err != nil || msg != "bad frame" {
		t.Fatalf("msg = %q, err = %v", msg, err)
	}
	if _, err := UnmarshalError([]byte{1, TypeResult}); err == nil {
		t.Error("wrong type accepted")
	}
	if _, err := MessageType([]byte{9}); err == nil {
		t.Error("short/garbled payload accepted")
	}
}

func TestServerReportsDecodeErrorToClient(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.MaskRCNN))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// Write a framed-but-garbled payload directly through the send queue:
	// craft a FrameMsg whose marshaled bytes we then corrupt is hard via
	// the client API, so dial a raw connection instead.
	raw, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = raw.Close() }()
	// Send garbage through the raw socket path by abusing Send with a
	// valid message, then verify the error path with a direct conn.
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := WriteMessage(conn, []byte{9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	payload, err := ReadMessage(conn)
	if err != nil {
		t.Fatalf("no error report: %v", err)
	}
	typ, err := MessageType(payload)
	if err != nil || typ != TypeError {
		t.Fatalf("expected TypeError reply, got type %d err %v", typ, err)
	}
	msg, err := UnmarshalError(payload)
	if err != nil || msg == "" {
		t.Fatalf("bad error body: %q, %v", msg, err)
	}
}
