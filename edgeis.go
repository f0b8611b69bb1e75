// Package edgeis is a full reproduction of "Edge Assisted Real-time
// Instance Segmentation on Mobile Devices" (ICDCS 2022) as a Go library.
//
// The paper replaces the classical edge-assisted "track+detect" paradigm
// with "transfer+infer": the mobile device runs visual odometry to track
// its own pose and each object's pose, transfers cached segmentation masks
// to every camera frame by reprojecting mask contours through the estimated
// geometry, and in return instructs the edge server's Mask R-CNN with the
// transferred masks so the model skips anchors and RoIs it provably does
// not need.
//
// This package is the public facade. The three subsystems and every
// substrate (visual odometry, simulated DL backends, tile codec, network
// simulation, TCP transport, device models, datasets and the experiment
// harness) live in internal packages; the facade re-exports what the
// quick-starts and examples/ use.
//
// Quick start:
//
//	cam := edgeis.StandardCamera(320, 240)
//	sys := edgeis.NewSystem(edgeis.SystemConfig{Camera: cam, Device: edgeis.IPhone11})
//	engine := edgeis.NewEngine(edgeis.EngineConfig{
//		World:      edgeis.StreetScene(edgeis.ScenePreset{Seed: 1, ObjectCount: 3}),
//		Camera:     cam,
//		Trajectory: edgeis.InspectionRoute(edgeis.WalkSpeed),
//		Frames:     300,
//		Medium:     edgeis.WiFi5,
//	}, sys)
//	evals, stats := engine.Run()
//
// See examples/ for runnable programs and EXPERIMENTS.md for the
// reproduction results of every figure in the paper.
package edgeis

import (
	"edgeis/internal/core"
	"edgeis/internal/device"
	"edgeis/internal/geom"
	"edgeis/internal/live"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/parallel"
	"edgeis/internal/pipeline"
	"edgeis/internal/scene"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// SystemConfig assembles the edgeIS mobile runtime.
type SystemConfig = core.Config

// NewSystem builds the edgeIS mobile runtime (MAMT + CFRS + CIIA wiring).
func NewSystem(cfg SystemConfig) *core.System { return core.NewSystem(cfg) }

// StandardCamera returns a ~60 degree FOV camera at the given resolution.
func StandardCamera(w, h int) geom.Camera { return geom.StandardCamera(w, h) }

// ScenePreset parameterizes the procedural scene builders.
type ScenePreset = scene.PresetConfig

var (
	// StreetScene builds a KITTI-like outdoor scene.
	StreetScene = scene.StreetScene
	// InspectionRoute returns the standard camera route at a gait speed.
	InspectionRoute = scene.InspectionRoute
)

// Gait speeds (m/s) of the robustness study.
const (
	WalkSpeed   = scene.WalkSpeed
	StrideSpeed = scene.StrideSpeed
	JogSpeed    = scene.JogSpeed
)

// EngineConfig assembles a simulation run. Leave Backend nil for the
// simulated model+network edge, or set it to NewTCPBackend's result to run
// the same engine against a real edge server.
type EngineConfig = pipeline.Config

// NewEngine prepares a simulation run of a mobile-side strategy.
func NewEngine(cfg EngineConfig, s pipeline.Strategy) *pipeline.Engine {
	return pipeline.NewEngine(cfg, s)
}

// NewTCPBackend adapts a dialed EdgeClient into an engine backend, running
// the engine against a real edge server over the wire.
var NewTCPBackend = live.NewTCPBackend

// NewStageTimer returns an observer that aggregates per-stage wall-clock
// timings of the mobile tracking path (System.SetStageObserver).
var NewStageTimer = core.NewStageTimer

// Evaluate folds per-frame evals into an accumulator, skipping warmup.
func Evaluate(name string, evals []pipeline.FrameEval, warmup int) *metrics.Accumulator {
	return pipeline.EvaluateFrom(name, evals, warmup)
}

// Network media.
const (
	// WiFi24 is 2.4 GHz WiFi.
	WiFi24 = netsim.WiFi24
	// WiFi5 is 5 GHz WiFi.
	WiFi5 = netsim.WiFi5
	// LTE is the cellular link of the field study.
	LTE = netsim.LTE
)

// Device profiles.
var (
	// JetsonTX2 is the reference edge server.
	JetsonTX2 = device.JetsonTX2
	// JetsonXavier is the field-deployment edge node.
	JetsonXavier = device.JetsonXavier
	// IPhone11 is the primary mobile device.
	IPhone11 = device.IPhone11
	// GalaxyS10 is the secondary mobile device.
	GalaxyS10 = device.GalaxyS10
	// DreamGlass is the AR headset of the field study.
	DreamGlass = device.DreamGlass
)

// ModelKind selects a simulated network: Mask R-CNN, YOLACT or YOLOv3.
type ModelKind = segmodel.Kind

// Model kinds.
const (
	// MaskRCNN is the two-stage segmenter CIIA accelerates.
	MaskRCNN = segmodel.MaskRCNN
	// YOLACT is the one-stage segmenter baseline.
	YOLACT = segmodel.YOLACT
	// YOLOv3 is the detector used in the motivation study.
	YOLOv3 = segmodel.YOLOv3
)

// NewModel builds a simulated network with its calibrated profile.
func NewModel(kind ModelKind) *segmodel.Model { return segmodel.New(kind) }

// NewEdgeServer builds a TCP edge server around a model. WithAccelerators
// sizes its inference pool; WithQueueDepth bounds admission (overflow is
// rejected per frame and surfaces as dropped offloads on the client).
func NewEdgeServer(model *segmodel.Model, opts ...transport.ServerOption) *transport.Server {
	return transport.NewServer(model, opts...)
}

// DialEdge connects to an edge server.
var DialEdge = transport.Dial

// SetWorkers overrides the experiment harness's worker pool size (1 =
// serial, <=0 = all cores) and returns the previous effective size. Results
// are merged in deterministic order, so any pool size produces
// byte-identical reports (see DESIGN.md, "Concurrency model").
var SetWorkers = parallel.SetWorkers
