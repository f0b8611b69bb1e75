package main

import (
	"fmt"
	"time"

	"edgeis/internal/accel"
	"edgeis/internal/edge"
	"edgeis/internal/live"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// maxContour is the server's default bound on result contour vertices.
const maxContour = 160

// modelInput converts a wire frame into the model's input and guidance the
// way the server's connection loop does (32-pixel quality tiles, a plan made
// of the instructed areas).
func modelInput(f *transport.FrameMsg) (segmodel.Input, segmodel.Guidance) {
	in := segmodel.Input{Width: int(f.Width), Height: int(f.Height), Objects: f.Objects, Seed: f.Seed}
	if len(f.QualityLevels) > 0 && f.TileCols > 0 {
		levels, cols := f.QualityLevels, int(f.TileCols)
		in.Quality = func(x, y int) float64 {
			if i := (y/32)*cols + x/32; i >= 0 && i < len(levels) {
				return float64(levels[i])
			}
			return 1
		}
	}
	if len(f.Areas) > 0 {
		return in, &accel.Plan{Areas: f.Areas}
	}
	return in, nil
}

// timed runs fn and keeps its duration, scaled to the reference clock, in
// *floor if it is the smallest yet.
func timed(floor *time.Duration, first bool, scale float64, fn func()) {
	t0 := clock()
	fn()
	if d := time.Duration(float64(clock()-t0) * scale); first || d < *floor {
		*floor = d
	}
}

// Probe steps, in the order a frame meets them on its way to the edge and
// back.
const (
	stepMarshalFrame = iota
	stepUnmarshalFrame
	stepRun
	stepRunWarped
	stepFromDetection
	stepMarshalResult
	stepUnmarshalResult
	stepToDetection
	stepToEdgeResult
	steps
)

var stepMetric = [steps]string{
	"transport.marshal_frame_us",
	"transport.unmarshal_frame_us",
	"segmodel.run_us",
	"segmodel.run_warped_us",
	"transport.from_detection_us",
	"transport.marshal_result_us",
	"transport.unmarshal_result_us",
	"transport.to_detection_us",
	"live.to_edge_result_us",
}

// layerProbe replays the workload's wire frames single-threaded through
// every public function an offloaded frame crosses, and floor-times each step
// exactly the way items are timed: one probe pass replays every frame once,
// a speed probe before each, and every step is a series over the probe
// passes. Probe passes are interleaved with the workload's own passes, so
// that both see the same stretch of the machine's moods. Steps that handle
// one detection (FromDetection, ToDetection) are summed over the frame's
// detections, so every metric is per frame.
type layerProbe struct {
	model *segmodel.Model
	msgs  []*transport.FrameMsg
	steps [steps]series
}

func newLayerProbe(kind segmodel.Kind, msgs []*transport.FrameMsg) *layerProbe {
	return &layerProbe{model: segmodel.New(kind), msgs: msgs}
}

func (lp *layerProbe) pass() error {
	var dur [steps][]time.Duration
	for s := range dur {
		dur[s] = make([]time.Duration, len(lp.msgs))
	}
	probes := make([]time.Duration, len(lp.msgs))
	warped := segmodel.KeyframeDecision{Age: 1}
	for i, msg := range lp.msgs {
		probes[i] = speedProbe()
		last := clock()
		lap := func(step int) {
			now := clock()
			dur[step][i], last = now-last, now
		}
		wire := transport.MarshalFrame(msg)
		lap(stepMarshalFrame)
		frame, err := transport.UnmarshalFrame(wire)
		lap(stepUnmarshalFrame)
		if err != nil {
			return fmt.Errorf("probe: frame %d does not round-trip: %w", msg.FrameIndex, err)
		}
		in, g := modelInput(frame)
		last = clock()
		lp.model.RunWarped(in, g, warped)
		lap(stepRunWarped)
		out := lp.model.Run(in, g)
		lap(stepRun)
		res := &transport.ResultMsg{FrameIndex: frame.FrameIndex, InferMs: out.TotalMs()}
		last = clock()
		for _, d := range out.Detections {
			res.Detections = append(res.Detections, transport.FromDetection(d, maxContour))
		}
		lap(stepFromDetection)
		back := transport.MarshalResult(res)
		lap(stepMarshalResult)
		got, err := transport.UnmarshalResult(back)
		lap(stepUnmarshalResult)
		if err != nil {
			return fmt.Errorf("probe: result of frame %d does not round-trip: %w", msg.FrameIndex, err)
		}
		for j := range got.Detections {
			got.Detections[j].ToDetection()
		}
		lap(stepToDetection)
		live.ToEdgeResult(got)
		lap(stepToEdgeResult)
	}
	for s := range lp.steps {
		if err := lp.steps[s].add(dur[s], probes); err != nil {
			return err
		}
	}
	return nil
}

// report writes every step's mean floor per frame into m.
func (lp *layerProbe) report(m map[string]float64) {
	for s, name := range stepMetric {
		if lp.steps[s].passes > 0 && len(lp.msgs) > 0 {
			m[name] = micros(lp.steps[s].floor()) / float64(len(lp.msgs))
		}
	}
}

// Calls too short to time one by one are timed in batches; the metric is
// the smallest batch mean.
const probeBatch = 100

type noopAccelerator struct{ out segmodel.Result }

func (a *noopAccelerator) Run(segmodel.Input, segmodel.Guidance) (*segmodel.Result, float64) {
	return &a.out, 0
}

// probeInferOverhead is what the scheduler itself costs one request:
// Session.Infer (keyframe decision, admission, fair ring, worker hand-off,
// accounting) in front of an accelerator that does nothing.
func probeInferOverhead(reps int) (float64, error) {
	sched := edge.NewScheduler(edge.Config{
		NewAccelerator: func(int) edge.Accelerator { return &noopAccelerator{} },
	})
	defer sched.Close()
	sess := sched.NewSession("probe")
	defer sess.Close()
	in := segmodel.Input{Width: 320, Height: 240}
	var (
		floor time.Duration
		err   error
	)
	scale := probedScale()
	for r := 0; r < reps && err == nil; r++ {
		timed(&floor, r == 0, scale, func() {
			for i := 0; i < probeBatch && err == nil; i++ {
				_, _, err = sess.Infer(in, nil)
			}
		})
	}
	return micros(floor) / probeBatch, err
}

// probeEmptyRTT is the round trip of a frame with no objects, quality map,
// guidance or padding through a default server: sockets, framing and
// goroutine hand-offs with the payload work taken out.
func probeEmptyRTT(reps int) (float64, error) {
	link, err := dialEdge(segmodel.MaskRCNN, 1)
	if err != nil {
		return 0, err
	}
	defer link.close()
	client := link.clients[0]
	timer := watchdog(replyTimeout)
	defer timer.Stop()
	msg := &transport.FrameMsg{Width: 320, Height: 240}
	var floor time.Duration
	ok, scale := true, probedScale()
	for r := 0; r < reps && ok; r++ {
		timed(&floor, r == 0, scale, func() {
			for i := 0; i < probeBatch && ok; i++ {
				if ok = client.Send(msg); !ok {
					return
				}
				select {
				case res := <-client.Results():
					ok = res != nil
				case <-timer.C:
					ok = false
				}
			}
		})
	}
	if !ok {
		return 0, fmt.Errorf("a reply was lost (%v)", client.Err())
	}
	return micros(floor) / probeBatch, nil
}
