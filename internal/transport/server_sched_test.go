package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"edgeis/internal/edge"
	"edgeis/internal/segmodel"
)

func TestRejectMessageRoundTrip(t *testing.T) {
	b := MarshalReject(77)
	if typ, err := MessageType(b); err != nil || typ != TypeReject {
		t.Fatalf("type = %d, err = %v", typ, err)
	}
	idx, err := UnmarshalReject(b)
	if err != nil || idx != 77 {
		t.Fatalf("idx = %d, err = %v", idx, err)
	}
	if _, err := UnmarshalReject(MarshalError("x")); err == nil {
		t.Error("wrong type accepted")
	}
	if _, err := UnmarshalReject(append(MarshalReject(1), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestServerThroughputScalesWithAccelerators is the multi-client scaling
// acceptance check over real sockets: with inference occupying wall time on
// its accelerator, 4 workers must serve a 4-client load at least twice the
// frames/s of 1 worker. Occupancy-bound work keeps the ratio robust under
// the race detector, so this runs in make check's race pass.
func TestServerThroughputScalesWithAccelerators(t *testing.T) {
	const clients = 4
	const framesPer = 6
	// YOLACT reports ~120 simulated ms; full occupancy holds the
	// accelerator ~120ms wall per frame. The sleep must dwarf per-frame CPU
	// cost even when -race inflates it ~10x on a single-core box — sleeps
	// overlap across workers regardless of core count, CPU does not.
	run := func(accelerators int) time.Duration {
		srv := NewServer(segmodel.New(segmodel.YOLACT),
			WithAccelerators(accelerators),
			WithWallOccupancy(1),
		)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = srv.Close() }()

		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cl, err := Dial(addr.String(), time.Second, WithSendQueue(framesPer))
				if err != nil {
					t.Errorf("client %d: %v", id, err)
					return
				}
				defer func() { _ = cl.Close() }()
				for j := 0; j < framesPer; j++ {
					f := sampleFrame()
					f.FrameIndex = int32(id*1000 + j)
					if !cl.Send(f) {
						t.Errorf("client %d: send %d rejected", id, j)
						return
					}
				}
				for j := 0; j < framesPer; j++ {
					select {
					case _, ok := <-cl.Results():
						if !ok {
							t.Errorf("client %d: connection lost: %v", id, cl.Err())
							return
						}
					case <-time.After(30 * time.Second):
						t.Errorf("client %d: timeout", id)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		elapsed := time.Since(start)
		if st := srv.Stats(); st.Served != clients*framesPer {
			t.Fatalf("%d accelerators: served %d, want %d", accelerators, st.Served, clients*framesPer)
		}
		return elapsed
	}

	serial := run(1)
	pooled := run(4)
	t.Logf("1 accelerator: %v, 4 accelerators: %v (%.1fx)", serial, pooled, float64(serial)/float64(pooled))
	if pooled*2 > serial {
		t.Errorf("4 accelerators not >=2x served-frames/s: 1w=%v 4w=%v", serial, pooled)
	}
}

// TestServerRejectsSurfaceToClients forces admission-queue overflow through
// real sockets: one accelerator held busy, depth-1 queue, three clients
// firing at once. At least one frame must come back as TypeReject, the
// connection must keep serving afterwards, and server/client accounting
// must agree.
func TestServerRejectsSurfaceToClients(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.YOLACT),
		WithAccelerators(1),
		WithQueueDepth(1),
		// ~120 simulated ms * 2 => each inference holds the accelerator
		// ~240ms wall, so three simultaneous arrivals overflow the queue.
		WithWallOccupancy(2),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	const clients = 3
	cls := make([]*Client, clients)
	for i := range cls {
		cl, err := Dial(addr.String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = cl.Close() }()
		cls[i] = cl
	}
	// Dial returns on TCP connect, which can race the server's accept loop
	// registering the session; poll briefly before asserting.
	connDeadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.ActiveConns == clients && st.PeakConns == clients {
			break
		}
		if time.Now().After(connDeadline) {
			t.Errorf("conns: active=%d peak=%d, want %d/%d", st.ActiveConns, st.PeakConns, clients, clients)
			break
		}
		time.Sleep(2 * time.Millisecond)
	}

	for i, cl := range cls {
		f := sampleFrame()
		f.FrameIndex = int32(i)
		if !cl.Send(f) {
			t.Fatalf("client %d: send rejected locally", i)
		}
	}

	// Every frame is answered: served + rejected must reach 3.
	deadline := time.Now().Add(20 * time.Second)
	for {
		st := srv.Stats()
		if st.Served+st.Rejected >= clients {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("frames unaccounted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := srv.Stats()
	if st.Rejected == 0 {
		t.Fatal("depth-1 queue never rejected under a 3-client burst")
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// The client-side reject counters must account for every shed frame.
	waitFor("client reject counters", func() bool {
		total := 0
		for _, cl := range cls {
			total += cl.Rejected()
		}
		return total == st.Rejected
	})

	// A rejected connection keeps serving: find a client that was shed and
	// push another frame through once the burst has drained.
	var shed *Client
	for _, cl := range cls {
		if cl.Rejected() > 0 {
			shed = cl
		}
	}
	waitFor("burst drain", func() bool { s := srv.Stats().Scheduler; return s.Queued == 0 && s.InFlight == 0 })
	f := sampleFrame()
	f.FrameIndex = 99
	if !shed.Send(f) {
		t.Fatal("post-reject send failed")
	}
	select {
	case res, ok := <-shed.Results():
		if !ok {
			t.Fatalf("connection died after reject: %v", shed.Err())
		}
		if res.FrameIndex != 99 {
			t.Errorf("frame index = %d, want 99", res.FrameIndex)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("timeout waiting for post-reject result")
	}

	if rows := srv.SessionStats(); len(rows) != clients {
		t.Errorf("session rows = %d, want %d", len(rows), clients)
	} else {
		served, rejected := 0, 0
		for _, r := range rows {
			served += r.Served
			rejected += r.Rejected
		}
		final := srv.Stats()
		if served != final.Served || rejected != final.Rejected {
			t.Errorf("per-session served/rejected %d/%d != server %d/%d",
				served, rejected, final.Served, final.Rejected)
		}
	}
}

// TestServerGracefulShutdown closes the server while inferences are in
// flight: Close must drain them (no deadlock), reject late submissions and
// leave the scheduler empty. Runs under -race via make check.
func TestServerGracefulShutdown(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.YOLACT),
		WithAccelerators(2),
		WithWallOccupancy(0.5), // ~60ms wall per inference
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const clients = 3
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := Dial(addr.String(), time.Second)
			if err != nil {
				return // raced with Close; fine
			}
			defer func() { _ = cl.Close() }()
			for j := 0; j < 50; j++ {
				f := sampleFrame()
				f.FrameIndex = int32(id*100 + j)
				cl.Send(f)
				select {
				case _, ok := <-cl.Results():
					if !ok {
						return // server closed the connection
					}
				case <-time.After(10 * time.Second):
					return
				}
			}
		}(c)
	}

	// Let inferences get in flight, then shut down under load.
	time.Sleep(100 * time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Close deadlocked with inferences in flight")
	}
	wg.Wait()

	st := srv.Stats()
	if st.Scheduler.Queued != 0 || st.Scheduler.InFlight != 0 {
		t.Errorf("drain left queued=%d inflight=%d", st.Scheduler.Queued, st.Scheduler.InFlight)
	}
	if st.ActiveConns != 0 {
		t.Errorf("connections leaked: %d", st.ActiveConns)
	}
	// Submissions through the drained scheduler fail explicitly.
	sess := srv.Scheduler().NewSession("late")
	if _, _, err := sess.Infer(segmodel.Input{}, nil); !errors.Is(err, edge.ErrClosed) {
		t.Errorf("post-close infer: err = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := srv.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestDialRetryAbsorbsLateServer verifies the bounded-backoff dial: the
// server binds its listener only after the client's first attempts fail,
// and the connection still comes up.
func TestDialRetryAbsorbsLateServer(t *testing.T) {
	// Reserve an address, then free it so the first dial attempts are
	// refused; the server rebinds it shortly after.
	tmp := NewServer(segmodel.New(segmodel.YOLACT))
	addr, err := tmp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(segmodel.New(segmodel.YOLACT))
	defer func() { _ = srv.Close() }()
	bound := make(chan error, 1)
	go func() {
		time.Sleep(120 * time.Millisecond)
		_, err := srv.Listen(addr.String())
		bound <- err
	}()

	cl, err := DialRetry(addr.String(), time.Second, 6, 40*time.Millisecond)
	if err != nil {
		t.Fatalf("DialRetry never connected (rebind err: %v): %v", <-bound, err)
	}
	defer func() { _ = cl.Close() }()
	if !cl.Send(sampleFrame()) {
		t.Fatal("send failed")
	}
	select {
	case res, ok := <-cl.Results():
		if !ok || res == nil {
			t.Fatalf("no result: %v", cl.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
}

func TestDialRetryBoundedFailure(t *testing.T) {
	// Grab a port and hold it closed so every attempt is refused.
	tmp := NewServer(segmodel.New(segmodel.YOLACT))
	addr, err := tmp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := DialRetry(addr.String(), 100*time.Millisecond, 3, 10*time.Millisecond); err == nil {
		t.Fatal("DialRetry succeeded against a dead address")
	}
	// Two backoffs: 10ms + 20ms; the attempts themselves are near-instant
	// connection refusals.
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("backoff too short: %v", elapsed)
	}
}

// TestDialRetryFlappingListener drives DialRetry against a replica that
// flaps: the listener accepts a connection and immediately hangs up
// (killing the resume handshake mid-flight), dies, rebinds, dies again,
// and only then comes up healthy. Every failure mode — refused connection,
// accepted-then-reset handshake — must be absorbed by the retry budget,
// and the eventual connection must complete the resume handshake against
// the healthy listener.
func TestDialRetryFlappingListener(t *testing.T) {
	// Reserve an address, then free it so ownership can flap on it.
	tmp := NewServer(segmodel.New(segmodel.YOLACT))
	addr, err := tmp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := tmp.Close(); err != nil {
		t.Fatal(err)
	}

	srv := NewServer(segmodel.New(segmodel.YOLACT),
		WithFleetPeers([]string{addr.String()}))
	defer func() { _ = srv.Close() }()
	bound := make(chan error, 1)
	go func() {
		// Flap twice: bind, slam the door on whoever connects, unbind.
		// Between flaps the port is closed, so the dialer sees both
		// connection refusals and mid-handshake resets.
		for i := 0; i < 2; i++ {
			ln, err := net.Listen("tcp", addr.String())
			if err != nil {
				bound <- err
				return
			}
			slam := make(chan struct{})
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						close(slam)
						return
					}
					_ = c.Close()
				}
			}()
			time.Sleep(40 * time.Millisecond)
			_ = ln.Close()
			<-slam
			time.Sleep(40 * time.Millisecond)
		}
		_, err := srv.Listen(addr.String())
		bound <- err
	}()

	cl, err := DialRetry(addr.String(), time.Second, 12, 20*time.Millisecond,
		WithResume("flap-sess", -1))
	if err != nil {
		t.Fatalf("DialRetry never survived the flapping (bind err: %v): %v", <-bound, err)
	}
	defer func() { _ = cl.Close() }()
	ack := cl.ResumeAck()
	if ack == nil || !ack.Adopted || ack.SessionKey != "flap-sess" {
		t.Fatalf("resume ack after flapping = %+v", ack)
	}
	if !cl.Send(sampleFrame()) {
		t.Fatal("send failed")
	}
	select {
	case res, ok := <-cl.Results():
		if !ok || res == nil {
			t.Fatalf("no result: %v", cl.Err())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timeout")
	}
	if got := srv.Stats().Scheduler.ResumedSessions; got != 1 {
		t.Errorf("ResumedSessions = %d, want 1", got)
	}
}

func TestShedMessageRoundTrip(t *testing.T) {
	b := MarshalShed(42, ShedStaleReplaced)
	if typ, err := MessageType(b); err != nil || typ != TypeShed {
		t.Fatalf("type = %d, err = %v", typ, err)
	}
	idx, reason, err := UnmarshalShed(b)
	if err != nil || idx != 42 || reason != ShedStaleReplaced {
		t.Fatalf("idx = %d, reason = %d, err = %v", idx, reason, err)
	}
	if _, _, err := UnmarshalShed(MarshalReject(1)); err == nil {
		t.Error("wrong type accepted")
	}
	if _, _, err := UnmarshalShed(append(MarshalShed(1, 1), 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestServerShedsSurfaceToClients runs latest-wins over real sockets: a
// pipelined client bursting faster than the accelerator drains must see its
// stale frames come back as TypeShed (not TypeReject, not silence), and the
// no-silent-loss law sent == results + rejected + shed must reconcile
// between client counters and server stats.
func TestServerShedsSurfaceToClients(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.YOLACT),
		WithAccelerators(1),
		WithQueueDepth(1),
		// ~120 simulated ms * 2 => each inference holds the accelerator
		// ~240ms wall, so a burst of 6 far outruns the drain.
		WithWallOccupancy(2),
		WithAdmissionPolicy(edge.LatestWins{}),
		WithConnPipeline(8),
	)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	cl, err := Dial(addr.String(), time.Second, WithSendQueue(8))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	const burst = 6
	for i := 0; i < burst; i++ {
		f := sampleFrame()
		f.FrameIndex = int32(i)
		if !cl.Send(f) {
			t.Fatalf("send %d rejected locally", i)
		}
		// Space sends just enough that each frame reaches admission before
		// the next: the pipelined server resolves frames on independent
		// goroutines, so a zero-gap burst can reach the scheduler out of
		// order and "latest" would no longer mean the last sent. 20ms is
		// far below the ~240ms accelerator hold, so the queue still floods.
		time.Sleep(20 * time.Millisecond)
	}

	// Drain until every frame is accounted: a result, a reject, or a shed.
	results := 0
	gotLast := false
	deadline := time.After(30 * time.Second)
	for results+cl.Rejected()+cl.Shed() < burst {
		select {
		case res, ok := <-cl.Results():
			if !ok {
				t.Fatalf("connection lost: %v", cl.Err())
			}
			results++
			if res.FrameIndex == burst-1 {
				gotLast = true
			}
		case <-deadline:
			t.Fatalf("unaccounted frames: results=%d rejected=%d shed=%d of %d",
				results, cl.Rejected(), cl.Shed(), burst)
		}
	}

	if cl.Shed() == 0 {
		t.Fatal("burst through a depth-1 queue under latest-wins produced no sheds")
	}
	// Latest-wins keeps the newest frame: the last of the burst must have
	// been served, not shed.
	if !gotLast {
		t.Errorf("freshest frame of the burst was not served (results=%d shed=%d)",
			results, cl.Shed())
	}
	st := srv.Stats()
	if st.Served != results || st.Rejected != cl.Rejected() || st.Shed != cl.Shed() {
		t.Errorf("server served/rejected/shed %d/%d/%d, client saw %d/%d/%d",
			st.Served, st.Rejected, st.Shed, results, cl.Rejected(), cl.Shed())
	}
	if rows := srv.SessionStats(); len(rows) != 1 {
		t.Errorf("session rows = %d, want 1", len(rows))
	} else if rows[0].Shed != cl.Shed() {
		t.Errorf("session shed %d, client saw %d", rows[0].Shed, cl.Shed())
	}
}

// TestKeyframeClassFollowsArrivalOrder pipelines frames through one
// connection under a keyframe interval of 4 and reads each frame's class
// from its result's simulated latency: a keyframe pays the full backbone, a
// warped frame the smaller warp cost. The connection's read loop decides
// each frame's class as the frame arrives, so frame i is a keyframe exactly
// when i%4 == 0, however the frames' goroutines are then scheduled.
func TestKeyframeClassFollowsArrivalOrder(t *testing.T) {
	const frames, interval = 12, 4
	srv := NewServer(segmodel.New(segmodel.MaskRCNN),
		WithAccelerators(2),
		WithKeyframePolicy(segmodel.KeyframePolicy{Interval: interval}),
		WithConnPipeline(4))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	cl, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()

	for i := 0; i < frames; i++ {
		f := sampleFrame()
		f.FrameIndex = int32(i)
		if !cl.Send(f) {
			t.Fatalf("send %d rejected locally", i)
		}
	}
	inferMs := make([]float64, frames)
	deadline := time.After(10 * time.Second)
	for got := 0; got < frames; got++ {
		select {
		case res, ok := <-cl.Results():
			if !ok {
				t.Fatalf("connection lost after %d results: %v", got, cl.Err())
			}
			inferMs[res.FrameIndex] = res.InferMs
		case <-deadline:
			t.Fatalf("%d of %d results", got, frames)
		}
	}

	lo, hi := inferMs[0], inferMs[0]
	for _, ms := range inferMs {
		lo, hi = min(lo, ms), max(hi, ms)
	}
	if lo == hi {
		t.Fatalf("every frame cost %.3f ms: no warped frame to tell apart", lo)
	}
	for i, ms := range inferMs {
		if keyframe, want := ms > (lo+hi)/2, i%interval == 0; keyframe != want {
			t.Fatalf("frame %d keyframe = %v, want %v (infer ms by frame: %v)", i, keyframe, want, inferMs)
		}
	}
}
