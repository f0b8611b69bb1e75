package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"edgeis/internal/metrics"
)

// Client is the mobile side of the wire protocol. Offloads are
// asynchronous: Send queues a frame, results arrive on the Results channel
// in server order. A dedicated writer goroutine keeps the camera loop from
// blocking on the socket; when the uplink stalls the bounded send queue
// fills and Send sheds frames instead of blocking — the backpressure
// behaviour a real-time client needs.
type Client struct {
	conn         net.Conn
	results      chan *ResultMsg
	sendq        chan *FrameMsg
	done         chan struct{}
	wg           sync.WaitGroup
	writeTimeout time.Duration
	resume       *ResumeMsg
	ack          *ResumeAckMsg

	closeOnce sync.Once
	closeErr  error

	mu      sync.Mutex
	lastErr error
	// led is the connection's frame accounting: sent frames are offered,
	// results handed to the consumer served, TypeReject and TypeShed replies
	// rejected and shed, and whatever is unresolved when the read loop
	// exits is settled as dropped (ConnLost). Send refuses frames once
	// settled, so nothing is admitted past the settlement.
	led     metrics.Ledger
	settled bool
}

// ClientOption customizes a client connection.
type ClientOption func(*Client)

// WithSendQueue bounds the number of frames waiting for the socket
// (default 16). When the queue is full Send rejects the frame.
func WithSendQueue(depth int) ClientOption {
	return func(c *Client) {
		if depth > 0 {
			c.sendq = make(chan *FrameMsg, depth)
		}
	}
}

// WithWriteTimeout bounds each frame write on the socket. A stalled server
// then surfaces as a deadline error via Err instead of a silently wedged
// writer goroutine (default: no deadline; Close still unblocks the writer).
func WithWriteTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.writeTimeout = d }
}

// WithResume opens the connection with a session-resume handshake: Dial
// sends TypeResume carrying the session key and the last keyframe epoch
// the client holds, then blocks until the server's TypeResumeAck (bounded
// by the dial timeout). The ack — adoption verdict plus the server's fleet
// peer list — is available via ResumeAck. A fleet client migrating a
// session to a new replica dials with this option so the target adopts the
// session identity before any frame flows.
func WithResume(sessionKey string, lastKeyframeEpoch int64) ClientOption {
	return func(c *Client) {
		c.resume = &ResumeMsg{SessionKey: sessionKey, LastKeyframeEpoch: lastKeyframeEpoch}
	}
}

// Dial connects to an edge server.
func Dial(addr string, timeout time.Duration, opts ...ClientOption) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	c := &Client{
		conn:    conn,
		results: make(chan *ResultMsg, 16),
		sendq:   make(chan *FrameMsg, 16),
		done:    make(chan struct{}),
	}
	for _, o := range opts {
		o(c)
	}
	if c.resume != nil {
		if err := c.handshake(timeout); err != nil {
			conn.Close()
			return nil, err
		}
	}
	c.wg.Add(2)
	go c.writeLoop()
	go c.readLoop()
	return c, nil
}

// handshake runs the synchronous resume exchange before the read/write
// loops exist, so no frame can interleave with it. The dial timeout bounds
// both halves; deadlines are cleared afterwards.
func (c *Client) handshake(timeout time.Duration) error {
	if timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return fmt.Errorf("transport: resume handshake: %w", err)
		}
	}
	if err := WriteMessage(c.conn, MarshalResume(c.resume)); err != nil {
		return fmt.Errorf("transport: resume handshake: %w", err)
	}
	payload, err := ReadMessage(c.conn)
	if err != nil {
		return fmt.Errorf("transport: resume handshake: %w", err)
	}
	ack, err := UnmarshalResumeAck(payload)
	if err != nil {
		return fmt.Errorf("transport: resume handshake: %w", err)
	}
	if ack.SessionKey != c.resume.SessionKey {
		return fmt.Errorf("transport: resume handshake: server echoed session %q, want %q",
			ack.SessionKey, c.resume.SessionKey)
	}
	if timeout > 0 {
		if err := c.conn.SetDeadline(time.Time{}); err != nil {
			return fmt.Errorf("transport: resume handshake: %w", err)
		}
	}
	c.ack = ack
	return nil
}

// ResumeAck returns the server's resume acknowledgement, or nil when the
// connection was not opened with WithResume. Immutable once Dial returns.
func (c *Client) ResumeAck() *ResumeAckMsg { return c.ack }

// DialRetry dials an edge server with bounded exponential backoff: up to
// attempts tries, sleeping backoff, 2*backoff, ... between them. Transient
// connection refusals while the server is still binding its listener — the
// normal race at client startup — are absorbed instead of killing the run;
// a server that never appears still fails after the last attempt.
func DialRetry(addr string, timeout time.Duration, attempts int, backoff time.Duration, opts ...ClientOption) (*Client, error) {
	if attempts < 1 {
		attempts = 1
	}
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		c, err := Dial(addr, timeout, opts...)
		if err == nil {
			return c, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: dial %s: gave up after %d attempts: %w", addr, attempts, lastErr)
}

// Results delivers inference results; the channel closes when the
// connection ends.
func (c *Client) Results() <-chan *ResultMsg { return c.results }

// Send queues a frame for offload. It returns false when the queue is full
// (the uplink is saturated) — the frame is skipped, which is exactly what a
// real-time client must do rather than blocking its camera loop.
func (c *Client) Send(f *FrameMsg) bool {
	select {
	case <-c.done:
		return false // closed connections never accept frames
	default:
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.settled {
		return false
	}
	select {
	case c.sendq <- f:
		c.led.Offer(1)
		return true
	default:
		return false
	}
}

// Ledger snapshots the connection's frame accounting; a fleet client rolls
// its connections up with Ledger.Add. The getters below name its buckets.
func (c *Client) Ledger() metrics.Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.led
}

// Sent returns the number of frames accepted for sending.
func (c *Client) Sent() int { return c.Ledger().Offered() }

// Rejected returns the number of frames the edge shed at admission
// (TypeReject replies). Rejections are per-frame and non-fatal; callers
// account them as dropped offloads.
func (c *Client) Rejected() int { return c.Ledger().Rejected() }

// Shed returns the number of this client's frames the edge displaced in
// favour of its own fresher frames (TypeShed replies under the latest-wins
// admission policy). Like rejections they are per-frame and non-fatal, and
// callers account them as dropped offloads.
func (c *Client) Shed() int { return c.Ledger().Shed() }

// Delivered returns the number of results handed to the consumer of
// Results. While the connection is live it may run one ahead of the
// consumer (a result is counted as the hand-over starts), never behind;
// once closed it is exactly what a consumer ranging over Results received.
func (c *Client) Delivered() int { return c.Ledger().Served() }

// ConnLost returns the number of frames accepted for sending that were
// never resolved — no result handed over, no reject or shed reply — by the
// time the connection ended, whether it died under the client or was closed
// by it. Zero until the read loop exits (the moment no further replies can
// arrive); after that the connection's Ledger passes Check(0).
func (c *Client) ConnLost() int { return c.Ledger().Dropped() }

// settle classifies everything sent but unresolved as ConnLost, exactly
// once, when the read loop exits and no further replies can arrive.
func (c *Client) settle() {
	c.mu.Lock()
	c.settled = true
	c.led.Settle()
	c.mu.Unlock()
}

// Err returns the terminal connection error, if any.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}

func (c *Client) setErr(err error) {
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return
	}
	c.mu.Lock()
	if c.lastErr == nil {
		c.lastErr = err
	}
	c.mu.Unlock()
}

func (c *Client) writeLoop() {
	defer c.wg.Done()
	for {
		select {
		case f := <-c.sendq:
			if c.writeTimeout > 0 {
				if err := c.conn.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
					c.setErr(err)
					return
				}
			}
			if err := WriteMessage(c.conn, MarshalFrame(f)); err != nil {
				c.setErr(err)
				return
			}
		case <-c.done:
			return
		}
	}
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	defer close(c.results)
	defer c.settle()
	for {
		payload, err := ReadMessage(c.conn)
		if err != nil {
			c.setErr(err)
			return
		}
		switch t, terr := MessageType(payload); {
		case terr == nil && t == TypeError:
			if msg, merr := UnmarshalError(payload); merr == nil {
				c.setErr(fmt.Errorf("transport: server error: %s", msg))
			} else {
				c.setErr(merr)
			}
			return
		case terr == nil && t == TypeReject:
			if _, rerr := UnmarshalReject(payload); rerr != nil {
				c.setErr(rerr)
				return
			}
			c.mu.Lock()
			c.led.Reject(1)
			c.mu.Unlock()
			continue
		case terr == nil && t == TypeShed:
			if _, _, serr := UnmarshalShed(payload); serr != nil {
				c.setErr(serr)
				return
			}
			c.mu.Lock()
			c.led.ShedStale(1)
			c.mu.Unlock()
			continue
		}
		res, err := UnmarshalResult(payload)
		if err != nil {
			c.setErr(err)
			return
		}
		// Count the hand-over before it starts, so Delivered is never behind
		// what the consumer holds, and take it back if the consumer is gone:
		// the frame then settles as ConnLost.
		c.mu.Lock()
		c.led.Serve(1)
		c.mu.Unlock()
		select {
		case c.results <- res:
		case <-c.done:
			c.mu.Lock()
			c.led.Unserve(1)
			c.mu.Unlock()
			return
		}
	}
}

// Close shuts the connection down and waits for the loops to exit. Closing
// the socket unblocks a writer stuck on a stalled peer, so Close never
// deadlocks; repeated and concurrent calls are safe and return the first
// call's error.
func (c *Client) Close() error {
	c.closeOnce.Do(func() {
		close(c.done)
		c.closeErr = c.conn.Close()
		c.wg.Wait()
	})
	return c.closeErr
}

// timeoutError reports whether err is a network timeout (deadline
// exceeded), which callers may treat as retryable.
func timeoutError(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout() || errors.Is(err, os.ErrDeadlineExceeded)
}
