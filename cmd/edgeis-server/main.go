// Command edgeis-server runs the edge node: a TCP server that accepts
// offloaded frames from edgeis-client instances, runs the (optionally
// CIIA-guided) segmentation backend on a pool of accelerator workers, and
// streams contour-encoded results back. The deployable counterpart of the
// paper's Jetson TX2 server, scaled out: -accelerators sizes the inference
// pool, -queue-depth bounds admission (overflow frames are rejected
// per-frame, never queued without bound), -shed-policy selects the admission
// discipline at a full queue (reject, or latest-wins which sheds the
// session's own stale frame to admit the fresh one), and -max-batch with
// -batch-window turns on the cross-session gather-window batch former.
//
// -keyframe-interval enables per-session temporal-redundancy skip-compute:
// one frame in every N recomputes the full backbone, the rest warp the
// session's cached keyframe features at partial cost.
//
// When the server is one replica of a fleet, repeatable -fleet-peer flags
// name its siblings; the list is advertised to clients in session-resume
// acks so a client that loses this server knows where to fail over. The
// server never dials its peers — placement and failover are client-side
// (internal/fleet).
//
// Usage:
//
//	edgeis-server [-addr :7465] [-model mask-rcnn|yolact|yolov3] [-device tx2|xavier]
//	              [-accelerators 1] [-queue-depth 32] [-occupancy 0] [-continuity]
//	              [-shed-policy reject|latest-wins] [-max-batch 1] [-batch-window 0]
//	              [-keyframe-interval 1] [-fleet-peer host:port ...]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edgeis/internal/device"
	"edgeis/internal/edge"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// peerList collects repeatable -fleet-peer flags.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("-fleet-peer needs an address")
	}
	*p = append(*p, v)
	return nil
}

func run() error {
	var (
		addr      = flag.String("addr", "127.0.0.1:7465", "listen address")
		modelName = flag.String("model", "mask-rcnn", "backend model: mask-rcnn, yolact or yolov3")
		devName   = flag.String("device", "tx2", "edge device profile: tx2 or xavier")
		accels    = flag.Int("accelerators", 1, "inference worker pool size (1 = deterministic serialized mode)")
		queue     = flag.Int("queue-depth", 0, "admission queue bound (0 = default; overflow rejects frames)")
		occupancy = flag.Float64("occupancy", 0, "wall-clock accelerator occupancy per inference as a fraction of its simulated latency (0 = off)")
		cont      = flag.Bool("continuity", false, "reuse each session's last CIIA plan for guidance-less frames")
		shed      = flag.String("shed-policy", "reject", "admission policy at a full queue: reject or latest-wins")
		maxBatch  = flag.Int("max-batch", 1, "max compatible frames per accelerator launch (1 = single dequeue)")
		batchWin  = flag.Duration("batch-window", 0, "how long an underfull batch waits for compatible frames (needs -max-batch > 1)")
		keyframe  = flag.Int("keyframe-interval", 1, "force a full-backbone keyframe every N frames per session; N > 1 enables the skip-compute feature cache")
		statsSecs = flag.Int("stats", 10, "stats print interval in seconds (0 = off)")
		peers     peerList
	)
	flag.Var(&peers, "fleet-peer", "address of a sibling replica, repeatable; advertised to clients in resume acks so they can fail over (the server itself never dials peers)")
	flag.Parse()

	var kind segmodel.Kind
	switch *modelName {
	case "mask-rcnn":
		kind = segmodel.MaskRCNN
	case "yolact":
		kind = segmodel.YOLACT
	case "yolov3":
		kind = segmodel.YOLOv3
	default:
		return fmt.Errorf("unknown model %q", *modelName)
	}
	var dev device.Profile
	switch *devName {
	case "tx2":
		dev = device.JetsonTX2
	case "xavier":
		dev = device.JetsonXavier
	default:
		return fmt.Errorf("unknown device %q", *devName)
	}

	if *maxBatch <= 1 && *batchWin > 0 {
		return fmt.Errorf("-batch-window needs -max-batch > 1")
	}
	if *keyframe < 1 {
		return fmt.Errorf("-keyframe-interval must be >= 1")
	}
	policies, err := edge.PolicyConfig(*shed, *maxBatch, *batchWin, *keyframe)
	if err != nil {
		return err
	}
	opts := []transport.ServerOption{
		transport.WithInferScale(dev.InferScale),
		transport.WithLogger(log.Printf),
		transport.WithAccelerators(*accels),
		transport.WithQueueDepth(*queue),
		transport.WithWallOccupancy(*occupancy),
		transport.WithAdmissionPolicy(policies.Admission),
		transport.WithDequeuePolicy(policies.Dequeue),
		transport.WithKeyframePolicy(policies.Keyframe),
		transport.WithFleetPeers(peers),
	}
	if *cont {
		opts = append(opts, transport.WithGuidanceContinuity())
	}
	srv := transport.NewServer(segmodel.New(kind), opts...)
	bound, err := srv.Listen(*addr)
	if err != nil {
		return err
	}
	log.Printf("edgeIS edge server: %s backend on %s (device %s, %d accelerator(s))",
		kind, bound, dev.Name, *accels)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *statsSecs > 0 {
		ticker := time.NewTicker(time.Duration(*statsSecs) * time.Second) //edgeis:wallclock operator stats interval on a live server

		defer ticker.Stop()
		go func() {
			for range ticker.C {
				printStats(srv)
			}
		}()
	}

	<-stop
	log.Printf("shutting down")
	if err := srv.Close(); err != nil {
		return err
	}
	printStats(srv)
	return nil
}

// printStats logs the server snapshot and the per-session serving table,
// ID-sorted with per-session reject counts (transport.FormatServerStats,
// pinned by its golden test).
func printStats(srv *transport.Server) {
	log.Printf("%s", transport.FormatServerStats(srv.Stats(), srv.SessionStats()))
}
