package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"edgeis/internal/accel"
	"edgeis/internal/edge"
	"edgeis/internal/segmodel"
)

// Server is the edge node's transport layer: it accepts mobile connections,
// decodes offloaded frames and streams results back. Everything between
// decode and encode — admission control, per-client session state, the
// accelerator pool — lives in package edge; this type owns only framing and
// socket IO. One goroutine per connection reads frames; each frame in
// flight submits to the shared edge.Scheduler and relays the outcome: a
// result, or a per-frame reject or shed notice.
type Server struct {
	model *segmodel.Model
	// InferScale multiplies simulated inference latency (device profile).
	inferScale float64
	// MaxContourVertices bounds result mask payloads.
	maxContour int
	// accelerators and queueDepth shape the edge.Scheduler. One accelerator
	// is the deterministic mode: inference serializes exactly like the old
	// single GPU mutex.
	accelerators int
	queueDepth   int
	// wallOccupancy > 0 makes each inference hold its accelerator for
	// inferMs*wallOccupancy of wall time, modelling a real accelerator that
	// stays busy for the latency it reports. Zero replies as fast as the
	// host CPU allows (the historical behaviour).
	wallOccupancy float64
	// continuity enables per-session CIIA guidance reuse (edge.Session.Guide).
	continuity bool
	// admission and dequeue are the scheduler policies; nil means the
	// historical reject-when-full / single-dequeue defaults.
	admission edge.AdmissionPolicy
	dequeue   edge.DequeuePolicy
	// keyframe enables temporal-redundancy skip-compute per session; the
	// zero policy (the default) is byte-identical to no cache at all.
	keyframe segmodel.KeyframePolicy
	// connPipeline bounds a connection's outstanding frames. 1 (the
	// default) serves one frame at a time: read, infer, write, repeat.
	// Higher values let a connection keep several frames in flight, which
	// both overlaps uplink with inference and gives the latest-wins
	// admission policy stale queued frames to displace.
	connPipeline int
	// Per-message socket deadlines; zero means none.
	readTimeout  time.Duration
	writeTimeout time.Duration
	// fleetPeers is the replica set this server advertises in TypeResumeAck
	// replies, so a client that dialed one address learns where it can fail
	// over to. Empty outside a fleet deployment.
	fleetPeers []string

	sched *edge.Scheduler

	ln        net.Listener
	wg        sync.WaitGroup
	mu        sync.Mutex
	closed    bool
	conns     map[net.Conn]struct{}
	peakConns int
	logf      func(format string, args ...any)
}

// ServerOption customizes a server.
type ServerOption func(*Server)

// WithInferScale sets the device latency multiplier.
func WithInferScale(scale float64) ServerOption {
	return func(s *Server) { s.inferScale = scale }
}

// WithLogger routes server logs.
func WithLogger(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithAccelerators sets the inference worker pool size (default 1). Each
// worker owns a clone of the model, so N accelerators serve N clients'
// frames concurrently; 1 keeps the deterministic serialized mode.
func WithAccelerators(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.accelerators = n
		}
	}
}

// WithQueueDepth bounds the scheduler's admission queue (default
// edge.DefaultQueueDepth). A full queue rejects frames explicitly with
// TypeReject instead of queueing without bound.
func WithQueueDepth(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.queueDepth = n
		}
	}
}

// WithWallOccupancy makes each inference occupy its accelerator for
// inferMs*frac of wall-clock time, so serving throughput is bounded by the
// accelerator pool the way a real edge device is. Zero (the default)
// replies as fast as the host allows.
func WithWallOccupancy(frac float64) ServerOption {
	return func(s *Server) {
		if frac > 0 {
			s.wallOccupancy = frac
		}
	}
}

// WithGuidanceContinuity keeps each session's last CIIA plan alive and
// applies it to guidance-less frames (see edge.Session.Guide). Off by
// default: reuse changes inference output, which the single-client
// equivalence tests pin.
func WithGuidanceContinuity() ServerOption {
	return func(s *Server) { s.continuity = true }
}

// WithAdmissionPolicy selects the scheduler's admission discipline (default
// edge.RejectWhenFull). With edge.LatestWins a full queue sheds the arriving
// session's own stale queued frame (reported as TypeShed) instead of
// rejecting the fresh one.
func WithAdmissionPolicy(p edge.AdmissionPolicy) ServerOption {
	return func(s *Server) { s.admission = p }
}

// WithDequeuePolicy selects the scheduler's dequeue discipline (default
// edge.SingleDequeue). With edge.GatherBatch workers gather cross-session
// batches of compatible frames and serve them in one amortized launch.
func WithDequeuePolicy(p edge.DequeuePolicy) ServerOption {
	return func(s *Server) { s.dequeue = p }
}

// WithKeyframePolicy enables temporal-redundancy skip-compute: each session
// keeps a feature cache of its last keyframe and non-keyframe frames are
// served at the partial warp cost instead of the full backbone (see
// segmodel.KeyframePolicy). The zero policy disables it.
func WithKeyframePolicy(p segmodel.KeyframePolicy) ServerOption {
	return func(s *Server) { s.keyframe = p }
}

// WithConnPipeline lets each connection keep up to n frames in flight
// instead of one. Values below 2 leave the default: one frame, or four
// under a shedding admission policy. Latest-wins shedding over TCP needs
// n >= 2: a one-frame connection never has a stale frame queued to
// displace.
func WithConnPipeline(n int) ServerOption {
	return func(s *Server) {
		if n > 1 {
			s.connPipeline = n
		}
	}
}

// WithFleetPeers advertises the fleet's replica addresses (this server's
// own address included, by convention first) in every resume
// acknowledgement, so fleet clients discover the failover set from
// whichever replica they reach first. Order is preserved — placement
// policies hash over it, so every replica should be configured with the
// same list.
func WithFleetPeers(addrs []string) ServerOption {
	return func(s *Server) {
		if len(addrs) > 0 {
			s.fleetPeers = append([]string(nil), addrs...)
		}
	}
}

// WithConnReadTimeout drops connections that stay idle longer than d
// between frames, so abandoned mobiles cannot pin server goroutines forever.
func WithConnReadTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.readTimeout = d }
}

// WithConnWriteTimeout bounds each result write, so a mobile that stops
// draining its socket cannot wedge the serving goroutine.
func WithConnWriteTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.writeTimeout = d }
}

// modelAccelerator adapts one model clone to the scheduler's edge.Launcher
// contract, applying the device latency scale and optional wall occupancy.
type modelAccelerator struct {
	model     *segmodel.Model
	scale     float64
	occupancy float64
	solos     []float64 // Launch scratch; one worker owns the accelerator
}

// Run serves one keyframe job.
func (a *modelAccelerator) Run(in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64) {
	var outs [1]*segmodel.Result
	ms := a.Launch([]edge.Job{{In: in, G: g, D: segmodel.KeyframeDecision{Keyframe: true}}}, outs[:])
	return outs[0], ms
}

// Launch serves a launch of one or more jobs: each job's output is what a
// solo RunWarped under its decision produces, and the launch latency is
// segmodel.BatchMs over the scaled solo latencies (exactly the solo latency
// for one job). With wall occupancy the accelerator is held once for the
// whole launch, for the warp cost where the decision skips the backbone —
// that is where batching and skip-compute buy serving throughput.
func (a *modelAccelerator) Launch(jobs []edge.Job, outs []*segmodel.Result) float64 {
	a.solos = a.solos[:0]
	for i, j := range jobs {
		outs[i] = a.model.RunWarped(j.In, j.G, j.D)
		a.solos = append(a.solos, outs[i].TotalMs()*a.scale)
	}
	launchMs := segmodel.BatchMs(a.solos)
	if a.occupancy > 0 {
		time.Sleep(time.Duration(launchMs * a.occupancy * float64(time.Millisecond)))
	}
	return launchMs
}

// NewServer builds an edge server around the given model. The model is a
// prototype: each accelerator runs its own Clone, so the server never runs
// it and the caller may keep using it.
func NewServer(model *segmodel.Model, opts ...ServerOption) *Server {
	s := &Server{
		model:        model,
		inferScale:   1,
		maxContour:   160,
		accelerators: 1,
		conns:        make(map[net.Conn]struct{}),
		logf:         func(string, ...any) {},
	}
	for _, o := range opts {
		o(s)
	}
	if s.connPipeline == 0 {
		// Latest-wins needs stale frames queued per session to have anything
		// to displace; a one-frame connection never queues more than one.
		// Give shedding servers a working pipeline unless the caller chose
		// one.
		s.connPipeline = 1
		if s.admission != nil && s.admission.Name() != "reject" {
			s.connPipeline = 4
		}
	}
	s.sched = edge.NewScheduler(edge.Config{
		Workers:            s.accelerators,
		QueueDepth:         s.queueDepth,
		GuidanceContinuity: s.continuity,
		Admission:          s.admission,
		Dequeue:            s.dequeue,
		Keyframe:           s.keyframe,
		NewAccelerator: func(int) edge.Accelerator {
			return &modelAccelerator{
				model:     model.Clone(),
				scale:     s.inferScale,
				occupancy: s.wallOccupancy,
			}
		},
	})
	return s
}

// Scheduler exposes the serving layer for stats and tests.
func (s *Server) Scheduler() *edge.Scheduler { return s.sched }

// Addr returns the bound listen address, or nil before Listen.
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Listen binds the server to an address ("127.0.0.1:0" for an ephemeral
// port) and starts accepting connections in the background.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr(), nil
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || errors.Is(err, net.ErrClosed) {
				return
			}
			// A transient accept failure (EMFILE pressure, an aborted
			// handshake) must not stop the edge admitting the whole fleet:
			// log, back off briefly, and keep accepting. Only Close (or the
			// listener dying underneath us) ends the loop.
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			s.logf("accept: %v (retrying in %v)", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		if !s.track(conn) {
			// Raced with Close: drop the connection instead of serving it.
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			s.serveConn(conn)
		}()
	}
}

// track registers a live connection so Close can force it shut; it reports
// false when the server is already closing.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	if len(s.conns) > s.peakConns {
		s.peakConns = len(s.conns)
	}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// serveConn handles one mobile client until EOF: framing in, session and
// scheduler in the middle, framing out. Up to connPipeline frames are in
// flight at once. The read loop takes a slot before it reads each message,
// decodes the frame, and resolves its guidance and decides its keyframe
// class in arrival order (the CIIA context and the keyframe stream are
// order-sensitive), then hands the decided job to a goroutine that blocks
// in the scheduler and writes the outcome under the connection's write
// lock. Outcomes may interleave out of frame order — the client
// correlates by FrameIndex. At depth 1 this is read, infer, write, repeat:
// the read deadline only runs while nothing is in flight, and nothing is
// queued when the peer hangs up. When the read loop exits, closing the
// session unblocks queued frames (ErrClosed, nothing written) so the drain
// cannot hang on a dead peer.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		if err := conn.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			s.logf("close conn: %v", err)
		}
	}()
	first, sess, ok := s.openSession(conn)
	if !ok {
		return
	}
	c := &serverConn{srv: s, conn: conn, sess: sess, slots: make(chan struct{}, s.connPipeline)}
	defer c.inflight.Wait()
	defer sess.Close()
	for {
		c.slots <- struct{}{}
		// first, when non-nil, is a payload openSession already read.
		payload := first
		first = nil
		if payload == nil {
			if payload, ok = s.read(conn); !ok {
				return
			}
		}
		frame, err := UnmarshalFrame(payload)
		if err != nil {
			// Report the failure to the peer before dropping it: a mobile
			// client stuck sending garbage should learn why.
			s.logf("decode: %v", err)
			if werr := c.write(MarshalError(err.Error())); werr != nil {
				s.logf("write error report: %v", werr)
			}
			return
		}
		in, guidance := frameInput(frame)
		r := sess.Decide(in, sess.Guide(guidance))
		c.inflight.Add(1)
		go c.serveFrame(frame.FrameIndex, r)
	}
}

// serverConn is one connection's serving state, shared by its read loop and
// its in-flight frames.
type serverConn struct {
	srv      *Server
	conn     net.Conn
	sess     *edge.Session
	slots    chan struct{} // one token per frame in flight
	inflight sync.WaitGroup
	wmu      sync.Mutex
}

// write sends one whole message; wmu keeps concurrent frames' messages
// from interleaving on the socket.
func (c *serverConn) write(payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	//edgeis:lockheld wmu exists to serialize conn writes; Server.write is deadline-bounded
	return c.srv.write(c.conn, payload)
}

// serveFrame runs one decided frame through the scheduler, writes its
// outcome — a result, or a per-frame reject or shed notice — and frees its
// slot.
func (c *serverConn) serveFrame(idx int32, r edge.Decided) {
	defer c.inflight.Done()
	defer func() { <-c.slots }()
	out, inferMs, err := c.sess.Submit(r)
	var payload []byte
	switch {
	case errors.Is(err, edge.ErrQueueFull):
		payload = MarshalReject(idx)
	case errors.Is(err, edge.ErrShed):
		payload = MarshalShed(idx, ShedStaleReplaced)
	case err != nil:
		// Session or scheduler closed; the connection is going away.
		return
	default:
		res := &ResultMsg{FrameIndex: idx, InferMs: inferMs}
		for _, d := range out.Detections {
			res.Detections = append(res.Detections, FromDetection(d, c.srv.maxContour))
		}
		payload = MarshalResult(res)
	}
	if err := c.write(payload); err != nil {
		c.srv.logf("write: %v", err)
		// Kill the socket so the read loop notices and winds down.
		c.conn.Close()
	}
}

// openSession reads the connection's first message and resolves its
// session identity. A TypeResume handshake adopts the carried session key
// (the session's feature cache and guidance plan start empty — they died
// with whichever replica held them — so the first frame is a forced
// keyframe) and answers with TypeResumeAck carrying the fleet peer list;
// no payload remains for the serve loop. Any other message opens a plain
// session exactly as before the handshake existed, and the message itself
// is returned as the loop's first payload.
func (s *Server) openSession(conn net.Conn) (first []byte, sess *edge.Session, ok bool) {
	payload, ok := s.read(conn)
	if !ok {
		return nil, nil, false
	}
	if t, terr := MessageType(payload); terr == nil && t == TypeResume {
		resume, rerr := UnmarshalResume(payload)
		if rerr != nil {
			s.logf("decode resume: %v", rerr)
			if werr := s.write(conn, MarshalError(rerr.Error())); werr != nil {
				s.logf("write error report: %v", werr)
			}
			return nil, nil, false
		}
		sess = s.sched.ResumeSession(resume.SessionKey, conn.RemoteAddr().String())
		ack := &ResumeAckMsg{SessionKey: resume.SessionKey, Adopted: true, Peers: s.fleetPeers}
		if werr := s.write(conn, MarshalResumeAck(ack)); werr != nil {
			s.logf("write resume ack: %v", werr)
			sess.Close()
			return nil, nil, false
		}
		return nil, sess, true
	}
	return payload, s.sched.NewSession(conn.RemoteAddr().String()), true
}

// read receives one framed message under the configured idle deadline;
// false means the connection is done, logged unless the peer hung up.
func (s *Server) read(conn net.Conn) ([]byte, bool) {
	if s.readTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(s.readTimeout)); err != nil {
			s.logf("set read deadline: %v", err)
			return nil, false
		}
	}
	payload, err := ReadMessage(conn)
	if err != nil {
		if timeoutError(err) {
			s.logf("idle connection dropped: %v", err)
		} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
			s.logf("read: %v", err)
		}
		return nil, false
	}
	return payload, true
}

// write sends one framed message, honouring the configured write deadline.
func (s *Server) write(conn net.Conn, payload []byte) error {
	if s.writeTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(s.writeTimeout)); err != nil {
			return err
		}
	}
	return WriteMessage(conn, payload)
}

// frameInput converts a decoded wire frame into the model input and the
// guidance it carried.
func frameInput(frame *FrameMsg) (segmodel.Input, segmodel.Guidance) {
	in := segmodel.Input{
		Width:   int(frame.Width),
		Height:  int(frame.Height),
		Objects: frame.Objects,
		Seed:    frame.Seed,
	}
	if len(frame.QualityLevels) > 0 && frame.TileCols > 0 {
		levels := frame.QualityLevels
		cols := int(frame.TileCols)
		in.Quality = func(x, y int) float64 {
			c := x / 32
			r := y / 32
			idx := r*cols + c
			if idx < 0 || idx >= len(levels) {
				return 1
			}
			return float64(levels[idx])
		}
	}
	var g segmodel.Guidance
	if len(frame.Areas) > 0 {
		g = &accel.Plan{Areas: frame.Areas}
	}
	return in, g
}

// ServerStats summarizes the server: transport-level connection peaks plus
// the scheduler's serving accounting.
type ServerStats struct {
	// Served counts answered frames; MeanInferMs their mean simulated
	// inference latency.
	Served      int
	MeanInferMs float64
	// ActiveConns and PeakConns track concurrent connections.
	ActiveConns int
	PeakConns   int
	// Rejected counts frames refused at admission (sent back as
	// TypeReject); Shed counts stale frames displaced by fresher ones under
	// latest-wins (sent back as TypeShed).
	Rejected int
	Shed     int
	// Scheduler is the full serving-layer snapshot (queue depth, wait
	// times, session population).
	Scheduler edge.Stats
}

// Stats snapshots the server.
func (s *Server) Stats() ServerStats {
	sched := s.sched.Stats()
	s.mu.Lock()
	active, peak := len(s.conns), s.peakConns
	s.mu.Unlock()
	return ServerStats{
		Served:      sched.Served,
		MeanInferMs: sched.MeanInferMs,
		ActiveConns: active,
		PeakConns:   peak,
		Rejected:    sched.Rejected,
		Shed:        sched.Shed,
		Scheduler:   sched,
	}
}

// SessionStats snapshots every active session, ordered by session ID.
func (s *Server) SessionStats() []edge.SessionStats {
	return s.sched.Sessions()
}

// Close stops accepting, force-closes every live connection, drains the
// scheduler and waits for the serving goroutines. Closing the sockets
// unblocks goroutines parked in ReadMessage on idle clients, and the
// scheduler drain answers every in-flight inference, so Close returns
// promptly instead of deadlocking; it is safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	var err error
	if s.ln != nil && !alreadyClosed {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Drain before waiting: conn goroutines blocked in sess.Infer are
	// answered by the drain, then exit on their dead sockets.
	_ = s.sched.Close()
	s.wg.Wait()
	return err
}
