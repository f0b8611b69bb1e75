package transport

import (
	"net"
	"testing"
	"time"

	"edgeis/internal/segmodel"
)

// TestClientConnLostAccounting: a connection dying with frames outstanding
// used to leave them in no accounting bucket at all — neither dropped nor
// rejected. They are now classified ConnLost, and the client-side
// conservation law sent == delivered + rejected + shed + connLost closes
// exactly.
func TestClientConnLostAccounting(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const frames = 5
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Answer the first frame, swallow the rest, then hang up with four
		// frames unresolved.
		payload, err := ReadMessage(conn)
		if err != nil {
			conn.Close()
			return
		}
		f, err := UnmarshalFrame(payload)
		if err != nil {
			conn.Close()
			return
		}
		WriteMessage(conn, MarshalResult(&ResultMsg{FrameIndex: f.FrameIndex}))
		for i := 1; i < frames; i++ {
			if _, err := ReadMessage(conn); err != nil {
				break
			}
		}
		conn.Close()
	}()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < frames; i++ {
		f := sampleFrame()
		f.FrameIndex = int32(i)
		if !c.Send(f) {
			t.Fatalf("Send(%d) refused", i)
		}
	}
	if c.ConnLost() != 0 {
		t.Error("ConnLost settled before the connection ended")
	}

	// Drain results until the channel closes: that is the moment the read
	// loop exited and the loss bucket settled.
	got := 0
	for range c.Results() {
		got++
	}
	if got != 1 {
		t.Fatalf("delivered %d results, want 1", got)
	}
	if c.Sent() != frames || c.Delivered() != 1 || c.Rejected() != 0 || c.Shed() != 0 {
		t.Fatalf("sent/delivered/rejected/shed = %d/%d/%d/%d",
			c.Sent(), c.Delivered(), c.Rejected(), c.Shed())
	}
	if c.ConnLost() != frames-1 {
		t.Errorf("ConnLost = %d, want %d", c.ConnLost(), frames-1)
	}
	if c.Sent() != c.Delivered()+c.Rejected()+c.Shed()+c.ConnLost() {
		t.Error("client conservation law violated after connection loss")
	}
	// Settled means settled: no frame can slip in behind the tally.
	if c.Send(sampleFrame()) {
		t.Error("Send accepted a frame after the loss bucket settled")
	}
	if c.Sent() != frames {
		t.Errorf("sent moved after settlement: %d", c.Sent())
	}
}

// TestClientConnLostZeroOnCleanRun: a fully-served exchange settles with an
// empty loss bucket.
func TestClientConnLostZeroOnCleanRun(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const frames = 3
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for i := 0; i < frames; i++ {
			payload, err := ReadMessage(conn)
			if err != nil {
				return
			}
			f, err := UnmarshalFrame(payload)
			if err != nil {
				return
			}
			WriteMessage(conn, MarshalResult(&ResultMsg{FrameIndex: f.FrameIndex}))
		}
	}()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		f := sampleFrame()
		f.FrameIndex = int32(i)
		if !c.Send(f) {
			t.Fatalf("Send(%d) refused", i)
		}
	}
	for i := 0; i < frames; i++ {
		select {
		case _, ok := <-c.Results():
			if !ok {
				t.Fatalf("results closed after %d of %d", i, frames)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("timed out waiting for result %d", i)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.ConnLost() != 0 {
		t.Errorf("clean run ConnLost = %d, want 0", c.ConnLost())
	}
	if c.Sent() != c.Delivered() {
		t.Errorf("sent %d != delivered %d on clean run", c.Sent(), c.Delivered())
	}
}

// TestClientDeliveredMeansHandedOver: a result the read loop decoded but
// could not hand to the consumer before Close is ConnLost, not Delivered.
// With nobody reading, the 16-slot results channel fills and the 17th
// result is caught mid-hand-over when Close fires; what a consumer can
// still drain from the channel must be exactly what Delivered reports.
func TestClientDeliveredMeansHandedOver(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.YOLACT), WithConnPipeline(8))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(addr.String(), time.Second, WithSendQueue(64))
	if err != nil {
		t.Fatal(err)
	}
	const frames = 24
	for i := 0; i < frames; i++ {
		f := sampleFrame()
		f.FrameIndex = int32(i)
		if !c.Send(f) {
			t.Fatalf("Send(%d) refused", i)
		}
	}
	// Live, Delivered counts the hand-over in progress: never behind what
	// a consumer could hold.
	deadline := time.Now().Add(10 * time.Second)
	for c.Delivered() < cap(c.results)+1 {
		if time.Now().After(deadline) {
			t.Fatalf("read loop stalled at %d delivered", c.Delivered())
		}
		time.Sleep(time.Millisecond)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	received := 0
	for range c.Results() {
		received++
	}
	if received != c.Delivered() {
		t.Errorf("consumer received %d results, Delivered() = %d", received, c.Delivered())
	}
	if err := c.Ledger().Check(0); err != nil || c.Sent() != frames {
		t.Errorf("sent %d of %d, ledger: %v", c.Sent(), frames, err)
	}
}
