package main

import (
	"fmt"
	"time"

	"edgeis/internal/codec"
	"edgeis/internal/core"
	"edgeis/internal/dataset"
	"edgeis/internal/device"
	"edgeis/internal/feature"
	"edgeis/internal/geom"
	"edgeis/internal/live"
	"edgeis/internal/netsim"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// recordingSeed fixes the two camera recordings and the edge-model noise of
// the socket workloads' frames. None of it follows -seed: the tracker is a
// closed loop, and measured over ten seeds any change to what it sees —
// sensor noise, edge-model noise, link jitter — moves allocations by 6-10%,
// mask IoU by 6% and now and then loses tracking, while re-seeding the edge
// noise alone moves offload-rtt's allocations by 1.5%. The count metrics are
// held to 1% or less, so what is replayed is fixed and -seed only decides
// the order the socket workloads replay it in.
const recordingSeed = 42

func streetClip(frames int) dataset.Clip { return dataset.KITTI(recordingSeed, frames)[0] }
func orbitClip(frames int) dataset.Clip  { return dataset.DAVIS(recordingSeed, frames)[0] }

func benchCamera() geom.Camera { return geom.StandardCamera(320, 240) }

// mobile replays one camera clip through pipeline.Engine, core.System and
// the default simulated edge. An item is everything between two successive
// ProcessFrame entries: the frame's tracking, its offload, the display
// deadline's scoring, edge results delivered before the next frame, and
// that frame's feature extraction.
type mobile struct {
	build  func(frames int) dataset.Clip
	frames int

	clip dataset.Clip
	cam  geom.Camera

	t        tally
	stats    pipeline.RunStats
	session  core.SessionStats
	inFlight int
	msgs     []*transport.FrameMsg
}

func newMobile(build func(int) dataset.Clip, frames int) *mobile {
	return &mobile{build: build, frames: frames}
}

func (m *mobile) engineConfig() pipeline.Config {
	return pipeline.Config{
		World:       m.clip.World,
		Camera:      m.cam,
		Trajectory:  m.clip.Traj,
		Frames:      m.clip.Frames,
		CameraSpeed: m.clip.CameraSpeed,
		Medium:      netsim.WiFi5,
		Seed:        recordingSeed,
	}
}

func (m *mobile) newSystem() *core.System {
	return core.NewSystem(core.Config{Camera: m.cam, Device: device.IPhone11, Seed: recordingSeed})
}

// setup builds the world and the clip and proves an engine can be made from
// them (which renders every frame's ground truth).
func (m *mobile) setup() error {
	m.clip = m.build(m.frames)
	m.cam = benchCamera()
	if got := len(pipeline.NewEngine(m.engineConfig(), m.newSystem()).Frames()); got != m.frames {
		return fmt.Errorf("engine rendered %d frames, want %d", got, m.frames)
	}
	return nil
}

func (m *mobile) pass(tr *tracer, verify bool) (*passOut, error) {
	sys := m.newSystem()
	tap := &strategyTap{sys: sys, tr: tr, record: verify}
	cfg := m.engineConfig()
	if tr != nil {
		sys.SetStageObserver(tap)
		cfg.Backend = &backendTap{
			EdgeBackend: pipeline.NewSimBackend(pipeline.SimBackendConfig{
				Profile: netsim.DefaultProfile(cfg.Medium), Seed: cfg.Seed,
			}),
			tr: tr,
		}
	}
	eng := pipeline.NewEngine(cfg, tap)

	allocs := markAllocs()
	evals, stats := eng.Run()
	tap.finish()
	out := &passOut{items: tap.items, ops: tap.items, probes: tap.probes, sum: digestRun(evals, stats)}
	allocs.since(out)
	if !verify {
		return out, nil
	}

	if len(evals) != stats.Frames || len(out.items) != stats.Frames-stats.DroppedFrames {
		return nil, fmt.Errorf("%d frames gave %d evals and %d processed frames with %d dropped",
			stats.Frames, len(evals), len(out.items), stats.DroppedFrames)
	}
	// A frame the mobile had no time for is an op that failed; it has no
	// item of its own.
	m.t = tally{attempted: stats.Frames, ok: len(out.items), wireBytes: stats.UplinkBytes + stats.DownlinkBytes}
	for _, ev := range evals {
		for _, iou := range ev.IoUs {
			m.t.iouSum += iou
			m.t.iouN++
		}
	}
	m.stats, m.session, m.inFlight = stats, sys.Stats(), eng.Backend().Outstanding()
	grid := codec.NewGrid(m.cam.Width, m.cam.Height)
	m.msgs = m.msgs[:0]
	for _, off := range tap.offloads {
		m.msgs = append(m.msgs, live.ToFrameMsg(off, eng.Frames()[off.FrameIndex], grid, recordingSeed))
	}
	return out, nil
}

func (m *mobile) tally() tally { return m.t }

// check applies the no-silent-loss law to the engine's accounting: every
// offload was answered, dropped by the latest-wins edge queue, discarded, or
// is still waiting at the edge when the clip ends.
func (m *mobile) check(int) (map[string]float64, error) {
	s := m.stats
	if s.Offloads != s.EdgeResultCount+s.DroppedOffloads+s.MigratedOffloads+m.inFlight {
		return nil, fmt.Errorf("conservation: %d offloads != %d results + %d dropped + %d migrated + %d waiting",
			s.Offloads, s.EdgeResultCount, s.DroppedOffloads, s.MigratedOffloads, m.inFlight)
	}
	return map[string]float64{
		"core.lost_events":          float64(m.session.LostEvents),
		"core.init_attempts":        float64(m.session.InitAttempts),
		"pipeline.offload_share":    float64(s.Offloads) / float64(s.Frames),
		"pipeline.dropped_frames":   float64(s.DroppedFrames),
		"pipeline.dropped_offloads": float64(s.DroppedOffloads),
	}, nil
}

func (m *mobile) probeInput() (segmodel.Kind, []*transport.FrameMsg) {
	return segmodel.MaskRCNN, m.msgs
}

func (m *mobile) close() error { return nil }

// strategyTap wraps core.System as the engine's strategy. Every
// ProcessFrame entry is an item boundary: it closes the previous item,
// takes the next one's speed probe (which belongs to neither) and starts the
// next. On a traced pass it also records spans around the strategy calls
// and the observed stages.
type strategyTap struct {
	sys      *core.System
	tr       *tracer
	record   bool
	offloads []*pipeline.OffloadRequest

	items, probes []time.Duration
	start         time.Duration
	item          int // open item span of a traced pass
}

var (
	_ pipeline.Strategy      = (*strategyTap)(nil)
	_ pipeline.ResultAwaiter = (*strategyTap)(nil)
	_ core.StageObserver     = (*strategyTap)(nil)
)

func (s *strategyTap) Name() string { return s.sys.Name() }

func (s *strategyTap) AwaitingEdgeResult() bool { return s.sys.AwaitingEdgeResult() }

func (s *strategyTap) ProcessFrame(f *scene.Frame, feats []feature.Feature, nowMs float64) pipeline.FrameOutput {
	s.endItem()
	s.probes = append(s.probes, speedProbe())
	s.start = clock()
	s.item = s.tr.beginItem(f.Index)
	sp := s.tr.begin("core.process_frame")
	out := s.sys.ProcessFrame(f, feats, nowMs)
	s.tr.end(sp)
	if s.record {
		s.offloads = append(s.offloads, out.Offloads...)
	}
	return out
}

func (s *strategyTap) HandleEdgeResult(res pipeline.EdgeResult, f *scene.Frame, nowMs float64) {
	sp := s.tr.begin("core.handle_edge_result")
	s.sys.HandleEdgeResult(res, f, nowMs)
	s.tr.end(sp)
}

func (s *strategyTap) ObserveStage(_ int, stage string, elapsed time.Duration) {
	s.tr.closed("core."+stage, elapsed)
}

// endItem closes the open item, if any; finish closes the last one when the
// engine returns.
func (s *strategyTap) endItem() {
	if len(s.probes) == 0 {
		return
	}
	s.items = append(s.items, clock()-s.start)
	s.tr.end(s.item)
}

func (s *strategyTap) finish() { s.endItem() }

// backendTap is the simulated edge with spans around the two calls that do
// its work. It is only installed on traced passes.
type backendTap struct {
	pipeline.EdgeBackend
	tr *tracer
}

func (b *backendTap) Submit(req *pipeline.OffloadRequest, sendAt float64) []pipeline.ScheduledResult {
	sp := b.tr.begin("pipeline.backend_submit")
	defer b.tr.end(sp)
	return b.EdgeBackend.Submit(req, sendAt)
}

func (b *backendTap) Advance(now float64) []pipeline.ScheduledResult {
	sp := b.tr.begin("pipeline.backend_advance")
	defer b.tr.end(sp)
	return b.EdgeBackend.Advance(now)
}

func digestRun(evals []pipeline.FrameEval, s pipeline.RunStats) digest {
	d := digestInit
	for _, ev := range evals {
		d.i(ev.Index)
		d.i(len(ev.IoUs))
		for _, iou := range ev.IoUs {
			d.f(iou)
		}
		d.f(ev.LatencyMs)
		d.flag(ev.Dropped)
		d.flag(ev.Offloaded)
		d.f(ev.StalenessMs)
	}
	for _, v := range []int{s.Frames, s.Offloads, s.DroppedFrames, s.UplinkBytes, s.DownlinkBytes,
		s.EdgeResultCount, s.DroppedOffloads, s.DiscardedResults, s.MigratedOffloads} {
		d.i(v)
	}
	d.f(s.EdgeInferMsSum)
	d.f(s.MobileBusyMsSum)
	return d
}
