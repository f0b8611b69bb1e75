package loadgen

import (
	"container/heap"
	"math"
	"math/rand"

	"edgeis/internal/edge"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/segmodel"
)

// The in-process simulator: a virtual-time event queue over the whole
// fleet. It models the mobile side (per-session outstanding cap, uplink
// pacing), the accelerators (lowest-index idle one launches, optional
// gather window) and the downlink delivery of results. The edge's admission
// and dequeue discipline is not modelled but run: each replica holds the
// same edge.FairQueue and edge.AdmissionPolicy that edge.Scheduler does,
// and each session the same segmodel.KeyframeStream. Nothing reads the wall
// clock, so a run is a pure function of (Profile, Seed).

// evKind tags simulator events.
type evKind uint8

const (
	// evGen: a session generates one offload frame.
	evGen evKind = iota
	// evArrive: an uplinked frame reaches edge admission.
	evArrive
	// evInferDone: an accelerator finishes one launch (one frame, or a
	// gathered batch completing together).
	evInferDone
	// evDeliver: a result reaches the mobile (latency sample point).
	evDeliver
	// evFlush: an underfull batch's gather window expires; the reserved
	// accelerator tops the batch up and launches whatever it has.
	evFlush
	// evKill: a replica dies (Profile.Kills). Its queued/staged/in-flight
	// frames migrate-lose, its sessions re-place among survivors.
	evKill
)

// event is one scheduled simulator step. seq breaks time ties in push
// order, so identical runs process events identically. replica/gen address
// the edge shard the event targets: a kill bumps the shard's generation,
// so events scheduled against the pre-kill replica (an uplink in flight, a
// running inference, a staged gather window) pop stale and resolve their
// frames into the Migrated bucket instead of touching the dead edge.
type event struct {
	at      float64
	seq     int64
	kind    evKind
	sess    int
	replica int
	gen     int
	accel   int
	job     *simJob
	batch   []*simJob
}

// simJob is one offloaded frame in flight.
type simJob struct {
	sess     int
	genAt    float64
	arriveAt float64
	// decision is the skip-compute classification made at edge admission
	// (the constant keyframe when the profile disables the feature cache);
	// it picks the inference cost and, with the clip name, the
	// batch-compatibility class.
	decision segmodel.KeyframeDecision
	clip     string
}

// BatchClass is the job's compatibility key for edge.FairQueue.Gather.
func (j *simJob) BatchClass() simClass {
	return simClass{clip: j.clip, keyframe: j.decision.Keyframe}
}

// simClass is the batch-compatibility key: clip class and keyframe class (a
// full-backbone launch and a cache warp are different cost shapes; with
// skip-compute off every job is a keyframe, so the key reduces to the
// clip).
type simClass struct {
	clip     string
	keyframe bool
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// simSession is one synthetic mobile.
type simSession struct {
	clip ClipClass
	// arrivals is the session's precomputed generation schedule
	// (Profile.SessionArrivals) and nextGen indexes the next entry; the live
	// drivers replay the same schedule, so offered counts match across
	// targets.
	arrivals []float64
	nextGen  int
	up, down *netsim.Link
	lane     edge.Lane[*simJob]
	// led is the session's frame accounting; its Pending is the mobile's
	// outstanding-offload count, and the run's SLO is the sum over sessions.
	led metrics.Ledger
	// replica is the edge shard serving the session: rendezvous-placed at
	// start, re-placed among survivors when its replica dies (-1 once the
	// whole fleet is dead — further frames drop client-side, the mobile
	// has nowhere to connect).
	replica int
	// keyframes is the session's edge-side skip-compute state, reset when
	// the session migrates: the cached pyramid died with the old replica,
	// so the first frame on the new one must be a keyframe.
	keyframes segmodel.KeyframeStream
}

// simEdge is one edge replica's state: the admission queue, per-accelerator
// busy horizon, and staged — an underfull batch per reserved accelerator
// during its gather window. gen is the failover generation: a kill bumps it
// so events addressed to the old incarnation resolve stale.
type simEdge struct {
	queue     edge.FairQueue[*simJob, simClass]
	accelIdle []bool
	busyMs    []float64
	staged    [][]*simJob
	dead      bool
	gen       int
}

// sim is the run state.
type sim struct {
	p         Profile
	admission edge.AdmissionPolicy
	heap      eventHeap
	seq       int64
	sess      []*simSession
	maxAt     float64

	// edges are the replica shards (exactly one unless the profile shards
	// the edge). edgeRng is shared across replicas: virtual time serializes
	// every draw deterministically, so per-replica streams would buy
	// nothing.
	edges   []*simEdge
	edgeRng *rand.Rand

	batches, batchJobs int
	lat, waits, depths metrics.Dist
}

// alive returns the indices of the replicas still serving.
func (s *sim) alive() []int {
	out := make([]int, 0, len(s.edges))
	for r, ed := range s.edges {
		if !ed.dead {
			out = append(out, r)
		}
	}
	return out
}

// Run executes the profile on the virtual-time simulator and returns its
// SLO report. Two calls with the same profile return identical reports. Like
// an unknown link shape, an unknown ShedPolicy is a malformed profile and
// panics; edgeis-loadgen validates the name before any target runs.
func Run(p Profile) *SLO {
	p = p.withDefaults()
	admission, err := edge.AdmissionPolicyByName(p.ShedPolicy)
	if err != nil {
		panic("loadgen: " + err.Error())
	}
	s := &sim{
		p:         p,
		admission: admission,
		sess:      make([]*simSession, p.Sessions),
		edges:     make([]*simEdge, p.Replicas),
		edgeRng:   rand.New(rand.NewSource(p.Seed*7_369_131 + 17)),
	}
	for r := range s.edges {
		ed := &simEdge{
			accelIdle: make([]bool, p.Accelerators),
			busyMs:    make([]float64, p.Accelerators),
			staged:    make([][]*simJob, p.Accelerators),
		}
		for i := range ed.accelIdle {
			ed.accelIdle[i] = true
		}
		s.edges[r] = ed
	}
	allAlive := s.alive()
	for i := 0; i < p.Sessions; i++ {
		s.sess[i] = &simSession{
			clip:      p.ClipFor(i),
			arrivals:  p.SessionArrivals(i),
			up:        netsim.NewLink(p.LinkFor(i).NetProfile(), p.Seed+int64(i)*2+1),
			down:      netsim.NewLink(p.LinkFor(i).NetProfile(), p.Seed+int64(i)*2+2),
			replica:   p.PlaceSession(i, allAlive),
			keyframes: segmodel.KeyframeStream{Policy: p.KeyframePolicy()},
		}
		s.push(event{at: s.sess[i].arrivals[0], kind: evGen, sess: i})
	}
	for _, k := range p.Kills {
		if k.Replica >= 0 && k.Replica < p.Replicas {
			s.push(event{at: k.AtMs, kind: evKill, replica: k.Replica})
		}
	}

	for len(s.heap) > 0 {
		e := heap.Pop(&s.heap).(event)
		if e.at > s.maxAt {
			s.maxAt = e.at
		}
		switch e.kind {
		case evGen:
			s.generate(e)
		case evArrive:
			s.arrive(e)
		case evInferDone:
			s.inferDone(e)
		case evDeliver:
			s.deliver(e)
		case evFlush:
			s.flush(e)
		case evKill:
			s.kill(e)
		}
	}
	return s.report()
}

func (s *sim) push(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.heap, e)
}

// jobCost is the nominal accelerator cost of one job's cost shape.
func (s *sim) jobCost(j *simJob) float64 {
	clip := s.sess[j.sess].clip
	if j.decision.Keyframe {
		return clip.InferMs
	}
	return clip.WarpMs
}

// generate handles one frame generation: client-side shed when the session
// is at its outstanding cap (or the whole fleet is dead), otherwise uplink
// pacing toward the session's placed replica.
func (s *sim) generate(e event) {
	ss := s.sess[e.sess]
	atCap := ss.led.Pending() >= s.p.MaxOutstanding
	ss.led.Offer(1)
	ss.nextGen++
	if ss.nextGen < len(ss.arrivals) {
		s.push(event{at: ss.arrivals[ss.nextGen], kind: evGen, sess: e.sess})
	}
	if atCap || ss.replica < 0 {
		ss.led.Drop(1)
		return
	}
	upMs := ss.up.TransferMs(e.at, ss.clip.PayloadBytes)
	s.push(event{at: e.at + upMs, kind: evArrive, sess: e.sess,
		replica: ss.replica, gen: s.edges[ss.replica].gen,
		job: &simJob{sess: e.sess, genAt: e.at, arriveAt: e.at + upMs, clip: ss.clip.Name}})
}

// arrive handles edge admission through the replica's queue: a refused
// frame (queue full, or latest-wins with nothing of the session's own to
// shed) and a shed stale frame both free their outstanding slot at once —
// their results will never come back — and tell the session's keyframe
// stream what was lost.
func (s *sim) arrive(e event) {
	ss := s.sess[e.sess]
	ed := s.edges[e.replica]
	if ed.dead || e.gen != ed.gen {
		// The uplink delivered into a dead socket: the frame was accepted
		// by the client before the kill, so it is migration loss, not a
		// client-side drop. The session itself has already re-placed.
		ss.led.Migrate(1)
		return
	}
	// The loadgen workload carries no contours, so on this fixed-shape,
	// guidance-less input the decision is purely interval-driven.
	e.job.decision = ss.keyframes.Decide(segmodel.Input{Width: 1, Height: 1}, nil)
	verdict, stale := ed.queue.Admit(s.admission, s.p.QueueDepth, &ss.lane, e.job)
	switch verdict {
	case edge.VerdictReject:
		ss.led.Reject(1)
		ss.keyframes.Lost(e.job.decision)
		return
	case edge.VerdictShedOldest:
		ss.led.ShedStale(1)
		ss.keyframes.Lost(stale.decision)
	}
	s.depths.Add(float64(ed.queue.Len()))
	s.dispatch(e.at, e.replica)
}

// dispatch feeds idle accelerators from the replica's queue: the ring head
// anchors a batch, compatible jobs join it up to MaxBatch (none when
// MaxBatch is 1), and an underfull batch reserves its accelerator for one
// gather window before launching.
func (s *sim) dispatch(now float64, r int) {
	ed := s.edges[r]
	for ed.queue.Len() > 0 {
		accel := -1
		for i, idle := range ed.accelIdle {
			if idle {
				accel = i
				break
			}
		}
		if accel < 0 {
			return
		}
		batch := ed.queue.Gather([]*simJob{ed.queue.TakeHead()}, s.p.MaxBatch)
		if len(batch) < s.p.MaxBatch && s.p.BatchWindowMs > 0 {
			// Underfull: reserve the accelerator for one gather window;
			// frames arriving meanwhile top the batch up at flush time.
			ed.accelIdle[accel] = false
			ed.staged[accel] = batch
			s.push(event{at: now + s.p.BatchWindowMs, kind: evFlush,
				replica: r, gen: ed.gen, accel: accel})
			continue
		}
		s.launch(now, r, accel, batch)
	}
}

// launch starts one accelerator pass over a batch: per-job inference costs
// draw in batch order, the launch holds the accelerator for the amortized
// batch cost (segmodel.BatchMs), and every job in the batch completes
// together when the launch does.
func (s *sim) launch(now float64, r, accel int, batch []*simJob) {
	ed := s.edges[r]
	solos := make([]float64, len(batch))
	for i, j := range batch {
		s.waits.Add(now - j.arriveAt)
		solos[i] = s.jobCost(j) * (1 + 0.08*math.Abs(s.edgeRng.NormFloat64()))
	}
	batchMs := segmodel.BatchMs(solos)
	ed.accelIdle[accel] = false
	ed.busyMs[accel] += batchMs
	// Batch telemetry only exists under the batch former, as on
	// edge.Scheduler.
	if s.p.MaxBatch > 1 {
		s.batches++
		s.batchJobs += len(batch)
	}
	s.push(event{at: now + batchMs, kind: evInferDone,
		replica: r, gen: ed.gen, accel: accel, batch: batch})
}

// flush fires when a staged batch's gather window expires: top it up with
// whatever compatible work arrived during the window, then launch. A stale
// flush (the replica died during the window) resolves its staged frames
// into the migrated bucket instead.
func (s *sim) flush(e event) {
	ed := s.edges[e.replica]
	if ed.dead || e.gen != ed.gen {
		for _, j := range ed.staged[e.accel] {
			s.sess[j.sess].led.Migrate(1)
		}
		ed.staged[e.accel] = nil
		return
	}
	batch := ed.staged[e.accel]
	ed.staged[e.accel] = nil
	s.launch(e.at, e.replica, e.accel, ed.queue.Gather(batch, s.p.MaxBatch))
}

// inferDone frees the accelerator, paces each completed result over its
// session's downlink in batch order and pulls the next work. A stale
// completion (the replica died mid-inference) never produces results: the
// batch migrates.
func (s *sim) inferDone(e event) {
	ed := s.edges[e.replica]
	if ed.dead || e.gen != ed.gen {
		for _, j := range e.batch {
			s.sess[j.sess].led.Migrate(1)
		}
		return
	}
	ed.accelIdle[e.accel] = true
	for _, j := range e.batch {
		ss := s.sess[j.sess]
		downMs := ss.down.TransferMs(e.at, ss.clip.ResultBytes)
		s.push(event{at: e.at + downMs, kind: evDeliver, sess: j.sess, job: j})
	}
	s.dispatch(e.at, e.replica)
}

// kill handles a scheduled replica death: queued frames migrate-lose, the
// replica's sessions re-place among the survivors with invalidated feature
// caches (the cached pyramid died with the replica, so their next frame is
// a forced keyframe — the lost-keyframe invalidation rule applied to
// migration). Frames staged or on an accelerator migrate when their now-
// stale completion events pop; frames in uplink flight migrate on arrival.
func (s *sim) kill(e event) {
	ed := s.edges[e.replica]
	if ed.dead {
		return
	}
	ed.dead = true
	ed.gen++
	alive := s.alive()
	for i, ss := range s.sess {
		if ss.replica != e.replica {
			continue
		}
		ss.led.Migrate(len(ed.queue.DropLane(&ss.lane)))
		ss.keyframes.Reset()
		ss.replica = s.p.PlaceSession(i, alive)
	}
}

// deliver records the served frame's end-to-end latency and its
// skip-compute cost shape.
func (s *sim) deliver(e event) {
	ss := s.sess[e.sess]
	ss.led.Serve(1)
	if s.p.SkipCompute() {
		if e.job.decision.Keyframe {
			ss.led.Classify(1, 0)
		} else {
			ss.led.Classify(0, 1)
		}
	}
	s.lat.Add(e.at - e.job.genAt)
}

// report assembles the SLO snapshot.
func (s *sim) report() *SLO {
	var led metrics.Ledger
	servedMin, servedMax := 0, 0
	for i, ss := range s.sess {
		led.Add(ss.led)
		served := ss.led.Served()
		if i == 0 || served < servedMin {
			servedMin = served
		}
		if i == 0 || served > servedMax {
			servedMax = served
		}
	}
	util, accels := 0.0, 0
	if s.maxAt > 0 {
		for _, ed := range s.edges {
			for _, b := range ed.busyMs {
				util += b / s.maxAt
				accels++
			}
		}
		util /= float64(accels)
	}
	meanBatch := 0.0
	if s.batches > 0 {
		meanBatch = float64(s.batchJobs) / float64(s.batches)
	}
	slo := &SLO{
		Profile:         s.p.Name,
		Target:          "sim",
		Seed:            s.p.Seed,
		Sessions:        s.p.Sessions,
		Accelerators:    s.p.Accelerators,
		QueueDepth:      s.p.QueueDepth,
		Batches:         s.batches,
		MeanBatchSize:   round3(meanBatch),
		LatMeanMs:       round3(s.lat.Mean()),
		LatP50Ms:        round3(s.lat.Quantile(0.50)),
		LatP95Ms:        round3(s.lat.Quantile(0.95)),
		LatP99Ms:        round3(s.lat.Quantile(0.99)),
		LatMaxMs:        round3(s.lat.Max()),
		WaitMeanMs:      round3(s.waits.Mean()),
		WaitP95Ms:       round3(s.waits.Quantile(0.95)),
		WaitMaxMs:       round3(s.waits.Max()),
		QueueMeanDepth:  round3(s.depths.Mean()),
		QueuePeakDepth:  int(s.depths.Max()),
		UtilizationMean: round3(util),
		ServedMin:       servedMin,
		ServedMax:       servedMax,
		FairnessSpread:  servedMax - servedMin,
		HorizonMs:       round3(s.maxAt),
	}
	// The replica count is reported only for sharded profiles: an explicit
	// Replicas=1 run is the single-edge simulator, byte-identical to the
	// pre-fleet reports (which carry no replicas field at all).
	if s.p.Sharded() {
		slo.Replicas = s.p.Replicas
	}
	slo.Account(led)
	return slo
}
