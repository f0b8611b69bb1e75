package fleet

import (
	"testing"
	"time"

	"edgeis/internal/accel"
	"edgeis/internal/mask"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

func testFrame(i int) *transport.FrameMsg {
	m := mask.New(320, 240)
	for y := 50; y < 150; y++ {
		for x := 60; x < 180; x++ {
			m.Set(x, y)
		}
	}
	return &transport.FrameMsg{
		FrameIndex: int32(i),
		Width:      320,
		Height:     240,
		Seed:       int64(i),
		Objects: []segmodel.ObjectTruth{
			{ObjectID: 1, Label: 2, Visible: m, Box: m.BoundingBox()},
		},
		Areas: []accel.Area{
			{Box: mask.Box{MinX: 40, MinY: 40, MaxX: 200, MaxY: 170}, Label: 2, Known: true},
		},
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendUntilAccepted retries Send until the fleet client accepts the frame,
// absorbing the refusal window while a failover is in progress.
func sendUntilAccepted(t *testing.T, fc *FleetClient, f *transport.FrameMsg) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !fc.Send(f) {
		if time.Now().After(deadline) {
			t.Fatalf("frame %d never accepted", f.FrameIndex)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetClientFailover kills the serving replica mid-session over real
// sockets and checks the full migration story: the client fails over to
// the survivor, the survivor adopts the session under its key and forces a
// keyframe (cold cache), results keep flowing, and the conservation law
// closes with every frame in exactly one bucket — no silent loss.
func TestFleetClientFailover(t *testing.T) {
	const key = "fleet-e2e-1"
	// Two live servers under a long keyframe interval so warp vs keyframe
	// behaviour is attributable to migration, not the interval.
	newSrv := func() *transport.Server {
		return transport.NewServer(segmodel.New(segmodel.MaskRCNN),
			transport.WithKeyframePolicy(segmodel.KeyframePolicy{Interval: 1000}))
	}
	srvA, srvB := newSrv(), newSrv()
	addrA, err := srvA.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srvA.Close() }()
	addrB, err := srvB.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srvB.Close() }()

	addrs := []string{addrA.String(), addrB.String()}
	byAddr := map[string]*transport.Server{addrs[0]: srvA, addrs[1]: srvB}
	firstAddr := Rendezvous{}.Pick(key, addrs)
	first := byAddr[firstAddr]
	var second *transport.Server
	for a, s := range byAddr {
		if a != firstAddr {
			second = s
		}
	}

	fc, err := DialFleet(Config{Addrs: addrs, SessionKey: key,
		DialAttempts: 5, DialBackoff: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fc.Close() }()
	if got := fc.Stats().Replica; got != firstAddr {
		t.Fatalf("placed on %s, want %s", got, firstAddr)
	}

	recv := 0
	recvFrame := func() {
		t.Helper()
		select {
		case _, ok := <-fc.Results():
			if !ok {
				t.Fatalf("results closed after %d frames", recv)
			}
			recv++
		case <-time.After(10 * time.Second):
			t.Fatalf("timeout waiting for result %d", recv)
		}
	}

	const before = 3
	for i := 0; i < before; i++ {
		sendUntilAccepted(t, fc, testFrame(i))
		recvFrame()
	}
	if st := first.Stats(); st.Served != before {
		t.Fatalf("first replica served %d, want %d", st.Served, before)
	}

	// Kill the serving replica. The client must notice, write it off, and
	// adopt the session on the survivor.
	_ = first.Close()
	waitFor(t, "failover to the survivor", func() bool {
		st := fc.Stats()
		return st.Failovers == 1 && st.Replica != firstAddr
	})

	const after = 3
	for i := before; i < before+after; i++ {
		sendUntilAccepted(t, fc, testFrame(i))
		recvFrame()
	}

	st2 := second.Stats()
	if st2.Served != after {
		t.Fatalf("survivor served %d, want %d", st2.Served, after)
	}
	if st2.Scheduler.ResumedSessions != 1 {
		t.Errorf("survivor ResumedSessions = %d, want 1", st2.Scheduler.ResumedSessions)
	}
	// The migrated session's cache died with the first replica: the first
	// frame on the survivor must be a forced keyframe, the rest warps.
	if st2.Scheduler.KeyframesServed != 1 || st2.Scheduler.WarpedServed != after-1 {
		t.Errorf("survivor keyframes/warped = %d/%d, want 1/%d",
			st2.Scheduler.KeyframesServed, st2.Scheduler.WarpedServed, after-1)
	}
	found := false
	for _, row := range second.SessionStats() {
		if row.Key == key {
			found = true
		}
	}
	if !found {
		t.Error("session key missing from survivor's session table")
	}

	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	fst := fc.Stats()
	if fst.Sent != before+after || fst.Delivered != before+after {
		t.Errorf("sent/delivered = %d/%d, want %d/%d", fst.Sent, fst.Delivered,
			before+after, before+after)
	}
	if err := fc.Ledger().Check(0); err != nil {
		t.Error(err)
	}
	if fst.Down != 1 || fst.Failovers != 1 {
		t.Errorf("down/failovers = %d/%d, want 1/1", fst.Down, fst.Failovers)
	}
}

// TestFleetClientInFlightLossAccounted parks frames on a replica that will
// never answer them, kills it, and checks the in-flight frames land in the
// Migrated bucket — the conservation law's answer to "a replica died with
// my frames queued".
func TestFleetClientInFlightLossAccounted(t *testing.T) {
	const key = "fleet-e2e-2"
	// The doomed replica accepts frames but serves them slowly enough
	// (full wall occupancy: each inference holds the accelerator for its
	// modelled latency) that a burst is still in flight when it dies.
	slow := transport.NewServer(segmodel.New(segmodel.MaskRCNN),
		transport.WithWallOccupancy(1))
	addrSlow, err := slow.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = slow.Close() }()
	healthy := transport.NewServer(segmodel.New(segmodel.MaskRCNN))
	addrOK, err := healthy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = healthy.Close() }()

	// Steer initial placement onto the slow replica regardless of the
	// hash: the healthy one reports as loaded.
	p := LoadAware{Probe: func(addr string) (int, bool) {
		if addr == addrOK.String() {
			return 100, true
		}
		return 0, true
	}}
	fc, err := DialFleet(Config{
		Addrs:        []string{addrSlow.String(), addrOK.String()},
		SessionKey:   key,
		Policy:       p,
		DialAttempts: 5,
		DialBackoff:  20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fc.Close() }()
	if got := fc.Stats().Replica; got != addrSlow.String() {
		t.Fatalf("placed on %s, want the slow replica %s", got, addrSlow.String())
	}

	const burst = 4
	for i := 0; i < burst; i++ {
		sendUntilAccepted(t, fc, testFrame(i))
	}
	waitFor(t, "frames in flight on the doomed replica", func() bool {
		st := slow.Stats().Scheduler
		return st.Queued+st.InFlight > 0 || fc.Stats().Delivered > 0
	})
	_ = slow.Close()
	waitFor(t, "failover", func() bool { return fc.Stats().Failovers == 1 })

	// The session keeps serving on the survivor.
	sendUntilAccepted(t, fc, testFrame(burst))
	waitFor(t, "post-migration delivery", func() bool {
		return healthy.Stats().Served >= 1
	})

	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	st := fc.Stats()
	if err := fc.Ledger().Check(0); err != nil {
		t.Error(err)
	}
	if st.Delivered+st.Migrated+st.ConnLost != burst+1 || st.Migrated == 0 {
		t.Errorf("delivered/migrated/connLost = %d/%d/%d over %d frames; want some migrated and all accounted",
			st.Delivered, st.Migrated, st.ConnLost, burst+1)
	}
}

// TestFleetDeliveredMeansHandedOver is transport's hand-over test one hop up:
// with nobody reading, the fleet's 16-slot results channel fills, the pump
// holds the 17th result and the connection's own channel buffers the rest.
// Close drops all of those; Delivered must be what a consumer can still
// drain, and the others ConnLost.
func TestFleetDeliveredMeansHandedOver(t *testing.T) {
	srv := transport.NewServer(segmodel.New(segmodel.YOLACT), transport.WithConnPipeline(8))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	fc, err := DialFleet(Config{
		Addrs:         []string{addr.String()},
		SessionKey:    "fleet-handover",
		ClientOptions: []transport.ClientOption{transport.WithSendQueue(64)},
	})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 24
	for i := 0; i < frames; i++ {
		if !fc.Send(testFrame(i)) {
			t.Fatalf("Send(%d) refused", i)
		}
	}
	waitFor(t, "a result held mid-hand-over", func() bool {
		return fc.Stats().Delivered >= cap(fc.results)+1
	})
	if err := fc.Close(); err != nil {
		t.Fatal(err)
	}
	received := 0
	for range fc.Results() {
		received++
	}
	st := fc.Stats()
	if received != st.Delivered {
		t.Errorf("consumer received %d results, Delivered = %d", received, st.Delivered)
	}
	if err := fc.Ledger().Check(0); err != nil {
		t.Error(err)
	}
	if st.Sent != frames || st.ConnLost != frames-received {
		t.Errorf("sent %d frames, consumer received %d: %+v", frames, received, st)
	}
}

// TestDialFleetAllDown: a fleet with no reachable replica fails cleanly.
func TestDialFleetAllDown(t *testing.T) {
	_, err := DialFleet(Config{
		Addrs:        []string{"127.0.0.1:1", "127.0.0.1:2"},
		SessionKey:   "nobody-home",
		DialTimeout:  200 * time.Millisecond,
		DialAttempts: 1,
		DialBackoff:  time.Millisecond,
	})
	if err == nil {
		t.Fatal("DialFleet succeeded against a dead fleet")
	}
}
