package live

import (
	"errors"
	"fmt"
	"time"

	"edgeis/internal/codec"
	"edgeis/internal/metrics"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
	"edgeis/internal/transport"
)

// TCPBackend adapts a transport.Client into a pipeline.EdgeBackend: the
// engine's simulated clock schedules frames and deadlines while offloads and
// results cross a real socket in wall time. Results are stamped with the
// simulated instant at which the engine observed them, so the same scheduler
// that drives the simulated backend drives a live edge server unchanged.
type TCPBackend struct {
	client *transport.Client
	seed   int64
	frames []*scene.Frame
	grid   codec.Grid

	// pending buffers results received by Wait so the next Advance hands
	// them to the engine in arrival order.
	pending     []*transport.ResultMsg
	outstanding int
	// seenRejects and seenSheds are how many server-side admission rejects
	// (TypeReject) and latest-wins sheds (TypeShed) have already been
	// folded into DroppedOffloads and outstanding.
	seenRejects int
	seenSheds   int
	led         metrics.Ledger
	stats       pipeline.BackendStats
	err         error

	// onResult is a test hook observing every received result message.
	onResult func(frameIdx int32)
}

var _ pipeline.EdgeBackend = (*TCPBackend)(nil)

// NewTCPBackend wraps a connected client. The seed must match the scenario
// seed so the server renders the same ground-truth frame the mobile saw.
func NewTCPBackend(client *transport.Client, seed int64) *TCPBackend {
	return &TCPBackend{client: client, seed: seed}
}

// Name identifies the backend in reports.
func (b *TCPBackend) Name() string { return "tcp" }

// Bind receives the rendered clip. The queue depth is fixed by the client's
// send queue at dial time, so the strategy's preference is ignored here.
func (b *TCPBackend) Bind(frames []*scene.Frame, queueDepth int) {
	b.frames = frames
	if len(frames) > 0 {
		cam := frames[0].Camera
		b.grid = codec.NewGrid(cam.Width, cam.Height)
	}
}

// Submit converts the offload to a wire message and sends it. A full send
// queue rejects the newcomer (the socket writer owns the queue) and the
// loss is accounted, never silent.
func (b *TCPBackend) Submit(req *pipeline.OffloadRequest, sendAt float64) []pipeline.ScheduledResult {
	msg := ToFrameMsg(req, b.frames[req.FrameIndex], b.grid, b.seed)
	b.led.Offer(1)
	if !b.client.Send(msg) {
		b.led.Drop(1)
		return nil
	}
	b.stats.Submitted++
	b.stats.UplinkBytes += req.PayloadBytes
	b.outstanding++
	return nil
}

// reconcileRejects folds server-side admission rejects (TypeReject replies)
// and latest-wins sheds (TypeShed replies) counted by the client into the
// backend accounting: each is a dropped offload whose result will never
// arrive, so nothing is lost silently.
func (b *TCPBackend) reconcileRejects() {
	rejects, sheds := b.client.Rejected(), b.client.Shed()
	fresh := (rejects - b.seenRejects) + (sheds - b.seenSheds)
	if fresh <= 0 {
		return
	}
	b.seenRejects, b.seenSheds = rejects, sheds
	b.led.Drop(fresh)
	b.outstanding -= fresh
	if b.outstanding < 0 {
		b.outstanding = 0
	}
}

// Advance drains every result the socket has delivered so far, without
// blocking, and schedules each at the current simulated instant.
func (b *TCPBackend) Advance(now float64) []pipeline.ScheduledResult {
	b.reconcileRejects()
	var out []pipeline.ScheduledResult
	for _, res := range b.pending {
		if sr, ok := b.take(res, now); ok {
			out = append(out, sr)
		}
	}
	b.pending = b.pending[:0]
	for {
		select {
		case res, ok := <-b.client.Results():
			if !ok {
				b.fail()
				return out
			}
			if sr, ok := b.take(res, now); ok {
				out = append(out, sr)
			}
		default:
			return out
		}
	}
}

// take consumes one wire result. Out-of-range frame indices are counted and
// discarded instead of panicking the engine on a misbehaving server.
func (b *TCPBackend) take(res *transport.ResultMsg, now float64) (pipeline.ScheduledResult, bool) {
	if b.onResult != nil {
		b.onResult(res.FrameIndex)
	}
	if b.outstanding > 0 {
		b.outstanding--
	}
	if int(res.FrameIndex) < 0 || int(res.FrameIndex) >= len(b.frames) {
		b.stats.DiscardedResults++
		return pipeline.ScheduledResult{}, false
	}
	b.led.Serve(1)
	b.stats.InferMsSum += res.InferMs
	return pipeline.ScheduledResult{At: now, Res: ToEdgeResult(res)}, true
}

// Outstanding reports submitted offloads whose results have not come back.
// Frames the server shed at admission are reconciled out first: their
// results will never arrive, so they must not pin the engine's drain loop.
func (b *TCPBackend) Outstanding() int {
	b.reconcileRejects()
	return b.outstanding
}

// Wait blocks up to d wall-clock time for one result, buffering it for the
// next Advance. This is the live counterpart of the legacy driver's blocking
// drain during the VO initialization window.
func (b *TCPBackend) Wait(d time.Duration) bool {
	if len(b.pending) > 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case res, ok := <-b.client.Results():
		if !ok {
			b.fail()
			return false
		}
		b.pending = append(b.pending, res)
		return true
	case <-t.C:
		return false
	}
}

// fail records the connection loss once; later calls keep the first cause.
func (b *TCPBackend) fail() {
	if b.err != nil {
		return
	}
	if cerr := b.client.Err(); cerr != nil {
		b.err = fmt.Errorf("live: connection lost: %w", cerr)
	} else {
		b.err = errors.New("live: connection closed by server")
	}
}

// Err reports a connection failure observed during the run, if any.
func (b *TCPBackend) Err() error { return b.err }

// Stats returns the backend accounting, including any rejects the server
// reported since the last call.
func (b *TCPBackend) Stats() pipeline.BackendStats {
	b.reconcileRejects()
	return b.stats.WithLedger(b.led)
}

// Close closes the underlying client.
func (b *TCPBackend) Close() error { return b.client.Close() }
