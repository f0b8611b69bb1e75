package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"edgeis/internal/edge"
	"edgeis/internal/live"
	"edgeis/internal/mask"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// replyTimeout bounds one pass's wait for replies. A full-size pass takes a
// few seconds at most; a lost reply should fail the run long before the
// driver's own limit does.
const replyTimeout = 60 * time.Second

// recordOffloads runs the street clip once and returns the guided frames
// its mobile shipped to the edge, as the wire messages live.ToFrameMsg makes
// of them — what an edge server sees from one real session. The unguided
// initialization pair is left out.
func recordOffloads(frames int) ([]*transport.FrameMsg, error) {
	m := newMobile(streetClip, frames)
	if err := m.setup(); err != nil {
		return nil, err
	}
	if _, err := m.pass(nil, true); err != nil {
		return nil, err
	}
	var guided []*transport.FrameMsg
	for _, msg := range m.msgs {
		if len(msg.Areas) > 0 {
			guided = append(guided, msg)
		}
	}
	if len(guided) == 0 {
		return nil, fmt.Errorf("the %d-frame street clip offloaded no guided frame", frames)
	}
	return guided, nil
}

// sockOp is one frame of a socket workload.
type sockOp struct {
	msg *transport.FrameMsg
	up  int // marshalled uplink bytes
}

// makeOps draws n ops from the recorded frames, cycling through them, and
// gives every op its own edge-model noise seed, so that the n ops are n
// different frames to the server. The set of ops is the same for every
// -seed; what -seed decides is the order they are replayed in (and so which
// frames share a burst). FrameIndex becomes the op's position, which is how
// replies are matched to ops.
func makeOps(recorded []*transport.FrameMsg, n int, seed int64, stripGuidance bool) []sockOp {
	noise := rand.New(rand.NewSource(recordingSeed))
	ops := make([]sockOp, n)
	for k := range ops {
		msg := *recorded[k%len(recorded)]
		msg.Seed = noise.Int63()
		if stripGuidance {
			msg.Areas = nil
		}
		ops[k].msg = &msg
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for k := range ops {
		ops[k].msg.FrameIndex = int32(k)
		ops[k].up = len(transport.MarshalFrame(ops[k].msg))
	}
	return ops
}

// verify checks one reply against the frame that asked for it: every
// detection must name an object the frame carried and have the shape the
// model kind produces. dets are the rasterised detections of a mask model,
// nil for a box-only one. It returns the IoU of each detection against the
// object it names.
func (op *sockOp) verify(res *transport.ResultMsg, dets []segmodel.Detection) (ious []float64, err error) {
	if res.FrameIndex != op.msg.FrameIndex {
		return nil, fmt.Errorf("reply echoes frame %d, want %d", res.FrameIndex, op.msg.FrameIndex)
	}
	for i, wd := range res.Detections {
		var obj *segmodel.ObjectTruth
		for j := range op.msg.Objects {
			if op.msg.Objects[j].ObjectID == int(wd.ObjectID) {
				obj = &op.msg.Objects[j]
			}
		}
		if obj == nil {
			return nil, fmt.Errorf("frame %d: detection names object %d, which the frame did not carry", res.FrameIndex, wd.ObjectID)
		}
		if dets == nil {
			if len(wd.Contour) != 0 {
				return nil, fmt.Errorf("frame %d: box-only model returned a contour", res.FrameIndex)
			}
			ious = append(ious, wd.Box.IoU(obj.Box))
			continue
		}
		m := dets[i].Mask
		if m == nil {
			// A sliver of an object can simplify to fewer than three
			// vertices, which rasterises to nothing: a poor detection, not a
			// malformed reply.
			ious = append(ious, 0)
			continue
		}
		if m.Width != obj.Visible.Width || m.Height != obj.Visible.Height {
			return nil, fmt.Errorf("frame %d: mask of object %d is %dx%d, the frame %dx%d",
				res.FrameIndex, wd.ObjectID, m.Width, m.Height, obj.Visible.Width, obj.Visible.Height)
		}
		ious = append(ious, mask.IoU(m, obj.Visible))
	}
	return ious, nil
}

func digestResult(d *digest, res *transport.ResultMsg, geometry bool) {
	d.i(int(res.FrameIndex))
	d.i(len(res.Detections))
	for _, wd := range res.Detections {
		d.i(int(wd.ObjectID))
		d.i(int(wd.Label))
		d.f(wd.Score)
		if !geometry {
			continue
		}
		d.i(wd.Box.MinX)
		d.i(wd.Box.MinY)
		d.i(wd.Box.MaxX)
		d.i(wd.Box.MaxY)
		d.i(len(wd.Contour))
		for _, p := range wd.Contour {
			d.f(p.X)
			d.f(p.Y)
		}
	}
}

// edgeLink is a running edge server and the connections dialled to it.
type edgeLink struct {
	srv     *transport.Server
	clients []*transport.Client
}

func dialEdge(kind segmodel.Kind, conns int, opts ...transport.ServerOption) (*edgeLink, error) {
	l := &edgeLink{srv: transport.NewServer(segmodel.New(kind), opts...)}
	addr, err := l.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for i := 0; i < conns; i++ {
		c, err := transport.Dial(addr.String(), 5*time.Second)
		if err != nil {
			return nil, errors.Join(err, l.close())
		}
		l.clients = append(l.clients, c)
	}
	return l, nil
}

func (l *edgeLink) close() error {
	if l == nil {
		return nil // set-up never got as far as the server
	}
	var errs []error
	for _, c := range l.clients {
		errs = append(errs, c.Close())
	}
	return errors.Join(append(errs, l.srv.Close())...)
}

// conserved applies the two serving laws after offered frames were sent:
// nothing is lost silently on either side of the socket, and every frame was
// in fact served.
func (l *edgeLink) conserved(offered int) (edge.Stats, error) {
	sent := 0
	for i, c := range l.clients {
		s := c.Sent()
		if s != c.Delivered()+c.Rejected()+c.Shed()+c.ConnLost() {
			return edge.Stats{}, fmt.Errorf("conservation, connection %d: sent %d != delivered %d + rejected %d + shed %d + lost %d",
				i, s, c.Delivered(), c.Rejected(), c.Shed(), c.ConnLost())
		}
		sent += s
	}
	st := l.srv.Scheduler().Stats()
	if sent != offered || st.Served+st.Rejected+st.Shed+st.Cancelled != offered || st.Queued+st.InFlight != 0 {
		return st, fmt.Errorf("conservation: offered %d, clients sent %d, scheduler served %d + rejected %d + shed %d + cancelled %d with %d still queued",
			offered, sent, st.Served, st.Rejected, st.Shed, st.Cancelled, st.Queued+st.InFlight)
	}
	if st.Served != offered {
		return st, fmt.Errorf("scheduler served %d of %d offered frames", st.Served, offered)
	}
	return st, nil
}

func schedulerLayers(st edge.Stats, keyframing bool) map[string]float64 {
	share := 1.0 // with the policy off every frame pays the full backbone
	if keyframing && st.Served > 0 {
		share = float64(st.KeyframesServed) / float64(st.Served)
	}
	return map[string]float64{
		"edge.wait_ms_mean":     st.MeanWaitMs,
		"edge.queue_depth_mean": st.MeanQueueDepth,
		"edge.queue_depth_peak": float64(st.PeakQueueDepth),
		"edge.batches":          float64(st.Batches),
		"edge.batch_size_mean":  st.MeanBatchSize,
		"edge.keyframe_share":   share,
		"edge.rejected":         float64(st.Rejected),
		"edge.shed":             float64(st.Shed),
	}
}

func recorded(ops []sockOp) []*transport.FrameMsg {
	msgs := make([]*transport.FrameMsg, len(ops))
	for i := range ops {
		msgs[i] = ops[i].msg
	}
	return msgs
}

// rtt is the offload-rtt workload: a default edge server, one connection,
// one guided Mask R-CNN frame in flight. An item is Client.Send, the wait
// for the reply and live.ToEdgeResult — one offloaded frame as the mobile
// runtime pays for it.
type rtt struct {
	seed int64
	sz   sizing
	ops  []sockOp
	link *edgeLink
	t    tally
}

func newRTT(seed int64, sz sizing) *rtt { return &rtt{seed: seed, sz: sz} }

func (w *rtt) setup() error {
	frames, err := recordOffloads(w.sz.streetFrames)
	if err != nil {
		return err
	}
	w.ops = makeOps(frames, w.sz.rttOps, w.seed, false)
	w.link, err = dialEdge(segmodel.MaskRCNN, 1)
	return err
}

func (w *rtt) pass(tr *tracer, verify bool) (*passOut, error) {
	client := w.link.clients[0]
	timer := watchdog(replyTimeout)
	defer timer.Stop()
	out := &passOut{
		items:  make([]time.Duration, len(w.ops)),
		probes: make([]time.Duration, len(w.ops)),
		sum:    digestInit,
	}
	out.ops = out.items
	if verify {
		w.t = tally{attempted: len(w.ops)}
	}
	allocs := markAllocs()
	for i := range w.ops {
		op := &w.ops[i]
		out.probes[i] = speedProbe()
		item := tr.beginItem(i)
		t0 := clock()
		sp := tr.begin("transport.client_send")
		sent := client.Send(op.msg)
		tr.end(sp)
		if !sent {
			return nil, fmt.Errorf("op %d: send queue refused the frame (%v)", i, client.Err())
		}
		sp = tr.begin("transport.await_result")
		var res *transport.ResultMsg
		select {
		case res = <-client.Results():
		case <-timer.C:
			return nil, fmt.Errorf("op %d: no reply within %v", i, replyTimeout)
		}
		tr.end(sp)
		if res == nil {
			return nil, fmt.Errorf("op %d: connection ended (%v)", i, client.Err())
		}
		sp = tr.begin("live.to_edge_result")
		er := live.ToEdgeResult(res)
		tr.end(sp)
		out.items[i] = clock() - t0
		tr.end(item)

		digestResult(&out.sum, res, true)
		out.sum.f(res.InferMs)
		if !verify {
			continue
		}
		ious, err := op.verify(res, er.Detections)
		if err != nil {
			return nil, err
		}
		w.t.addReply(op.up, res, ious)
	}
	allocs.since(out)
	return out, nil
}

func (w *rtt) tally() tally { return w.t }

func (w *rtt) check(n int) (map[string]float64, error) {
	st, err := w.link.conserved(n * len(w.ops))
	if err != nil {
		return nil, err
	}
	return schedulerLayers(st, false), nil
}

func (w *rtt) probeInput() (segmodel.Kind, []*transport.FrameMsg) {
	return segmodel.MaskRCNN, recorded(w.ops)
}

func (w *rtt) close() error { return w.link.close() }

// Burst shape: every burst puts perConn frames on each of burstConns
// connections at once. perConn is two keyframe intervals, so within every
// burst each session serves exactly two keyframes and six warped frames
// whatever order its pipelined frames reach admission in.
const (
	burstConns       = 2
	perConn          = 8
	burstOps         = burstConns * perConn
	keyframeInterval = 4
)

// burst is the edge-burst workload: the recorded frames stripped of
// guidance and served box-only by YOLOv3 on two batching accelerators with
// keyframe skipping. An item is one burst's makespan; an op's latency runs
// from the burst's start to the moment a reply is read. Replies are matched
// to frames by FrameIndex for verification, but the order a burst's replies
// come back in is a race, so latencies are kept by arrival rank: op k of a
// burst is its k-th reply, which is the same thing in every pass, where "the
// reply to frame k" is served third in one pass and twelfth in the next.
type burst struct {
	seed int64
	sz   sizing
	ops  []sockOp
	link *edgeLink
	t    tally
	got  []*transport.ResultMsg
}

func newBurst(seed int64, sz sizing) *burst { return &burst{seed: seed, sz: sz} }

func (w *burst) setup() error {
	frames, err := recordOffloads(w.sz.streetFrames)
	if err != nil {
		return err
	}
	w.ops = makeOps(frames, w.sz.bursts*burstOps, w.seed, true)
	w.got = make([]*transport.ResultMsg, burstOps)
	w.link, err = dialEdge(segmodel.YOLOv3, burstConns,
		transport.WithAccelerators(2),
		transport.WithDequeuePolicy(edge.GatherBatch{Max: 4}),
		transport.WithKeyframePolicy(segmodel.KeyframePolicy{Interval: keyframeInterval}),
		transport.WithConnPipeline(perConn))
	return err
}

func (w *burst) pass(tr *tracer, verify bool) (*passOut, error) {
	timer := watchdog(replyTimeout)
	defer timer.Stop()
	out := &passOut{
		items:  make([]time.Duration, w.sz.bursts),
		probes: make([]time.Duration, w.sz.bursts),
		ops:    make([]time.Duration, len(w.ops)),
		sum:    digestInit,
	}
	if verify {
		w.t = tally{attempted: len(w.ops)}
	}
	allocs := markAllocs()
	for b := 0; b < w.sz.bursts; b++ {
		base := b * burstOps
		for i := range w.got {
			w.got[i] = nil
		}
		out.probes[b] = speedProbe()
		item := tr.beginItem(b)
		t0 := clock()
		for k := 0; k < perConn; k++ {
			for c, client := range w.link.clients {
				sp := tr.begin("transport.client_send")
				sent := client.Send(w.ops[base+k*burstConns+c].msg)
				tr.end(sp)
				if !sent {
					return nil, fmt.Errorf("burst %d: send queue of connection %d refused a frame (%v)", b, c, client.Err())
				}
			}
		}
		for n := 0; n < burstOps; n++ {
			sp := tr.begin("transport.await_result")
			var res *transport.ResultMsg
			select {
			case res = <-w.link.clients[0].Results():
			case res = <-w.link.clients[1].Results():
			case <-timer.C:
				return nil, fmt.Errorf("burst %d: %d of %d replies within %v", b, n, burstOps, replyTimeout)
			}
			tr.end(sp)
			if res == nil {
				return nil, fmt.Errorf("burst %d: a connection ended (%v, %v)", b, w.link.clients[0].Err(), w.link.clients[1].Err())
			}
			i := int(res.FrameIndex) - base
			if i < 0 || i >= burstOps || w.got[i] != nil {
				return nil, fmt.Errorf("burst %d: reply echoes frame %d, which is not an unanswered frame of this burst", b, res.FrameIndex)
			}
			w.got[i] = res
			out.ops[base+n] = clock() - t0
		}
		out.items[b] = clock() - t0
		tr.end(item)

		for i, res := range w.got {
			// Which of a session's frames are keyframes depends on the order
			// its pipelined frames reach admission, and a warped frame's box
			// is jittered more; what was detected, as what and how
			// confidently is the same in every pass.
			digestResult(&out.sum, res, false)
			if !verify {
				continue
			}
			op := &w.ops[base+i]
			ious, err := op.verify(res, nil)
			if err != nil {
				return nil, err
			}
			w.t.addReply(op.up, res, ious)
		}
	}
	allocs.since(out)
	return out, nil
}

func (w *burst) tally() tally { return w.t }

func (w *burst) check(n int) (map[string]float64, error) {
	st, err := w.link.conserved(n * len(w.ops))
	if err != nil {
		return nil, err
	}
	if st.KeyframesServed+st.WarpedServed != st.Served || st.WarpedServed != (keyframeInterval-1)*st.KeyframesServed {
		return nil, fmt.Errorf("keyframe partition: %d keyframes + %d warped of %d served, want exactly 1:%d",
			st.KeyframesServed, st.WarpedServed, st.Served, keyframeInterval-1)
	}
	return schedulerLayers(st, true), nil
}

func (w *burst) probeInput() (segmodel.Kind, []*transport.FrameMsg) {
	return segmodel.YOLOv3, recorded(w.ops)
}

func (w *burst) close() error { return w.link.close() }
