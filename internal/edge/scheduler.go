package edge

import (
	"sync"
	"time"

	"edgeis/internal/metrics"
	"edgeis/internal/segmodel"
)

// Accelerator is one inference execution unit. Each scheduler worker owns
// exactly one, so implementations need not be safe for concurrent use. The
// returned inferMs is the simulated inference latency reported to clients.
// An Accelerator that is not a Launcher serves every job alone and at full
// cost, whatever the batch former gathered or the keyframe decision said.
type Accelerator interface {
	Run(in segmodel.Input, g segmodel.Guidance) (out *segmodel.Result, inferMs float64)
}

// Job is one request as an accelerator launch sees it: the model input, its
// resolved guidance and the session's keyframe decision for it.
type Job struct {
	In segmodel.Input
	G  segmodel.Guidance
	D  segmodel.KeyframeDecision
}

// Launcher is an Accelerator that serves any launch the scheduler forms in
// one call: a single job or a gathered batch, keyframes at full cost or
// non-keyframes from cached features at the partial warp cost. The batch
// former never mixes batch classes (BatchClass), so one launch is uniform
// in resolution, guidance and keyframe class. Workers call only Launch; a
// Launcher's Run is a one-keyframe-job Launch for callers outside the
// scheduler.
type Launcher interface {
	Accelerator
	// Launch serves jobs in one amortized launch, storing job i's result
	// in outs[i] (len(outs) == len(jobs)). Every job completes together, so
	// the returned launchMs is each job's reported inference latency.
	Launch(jobs []Job, outs []*segmodel.Result) (launchMs float64)
}

// Config assembles a scheduler.
type Config struct {
	// Workers is the accelerator pool size; <= 0 means 1. One worker
	// serializes inference exactly like the old transport GPU mutex — the
	// deterministic mode the equivalence tests rely on.
	Workers int
	// QueueDepth bounds the admission queue across all sessions; <= 0 means
	// DefaultQueueDepth. What happens at the bound is Admission's call.
	QueueDepth int
	// NewAccelerator builds worker i's accelerator. Required.
	NewAccelerator func(worker int) Accelerator
	// GuidanceContinuity lets sessions reuse their last CIIA plan for
	// guidance-less frames (see Session.Guide). Off by default: reuse
	// changes inference results, which single-client determinism tests pin.
	GuidanceContinuity bool
	// Admission decides the fate of requests arriving at a full queue; nil
	// means RejectWhenFull (the historical discipline).
	Admission AdmissionPolicy
	// Dequeue shapes accelerator launches; nil means SingleDequeue (the
	// historical one-job-per-worker discipline).
	Dequeue DequeuePolicy
	// Keyframe enables temporal-redundancy skip-compute: sessions keep a
	// feature cache of their last keyframe and non-keyframe requests are
	// served at the partial warp cost by Launcher workers. The zero
	// policy (Interval 0) disables it — every request is a keyframe and
	// behaviour is byte-identical to a build without the cache.
	Keyframe segmodel.KeyframePolicy
}

// DefaultQueueDepth is the admission bound when Config leaves it zero.
const DefaultQueueDepth = 32

// job is one admitted request waiting for an accelerator.
type job struct {
	Job
	sess     *Session
	class    BatchClass
	enqueued time.Time
	done     chan jobResult
}

// BatchClass is the job's compatibility key for FairQueue.Gather.
func (j *job) BatchClass() BatchClass { return j.class }

type jobResult struct {
	out     *segmodel.Result
	inferMs float64
	err     error
}

// Scheduler owns the accelerator pool and the bounded admission queue: a
// FairQueue under a mutex, plus goroutines and the wall clock. Dequeueing is
// fair per session: workers round-robin across sessions that have pending
// work and take one request at a time (or, under GatherBatch, one request
// per session per gather pass), so one client flooding the queue cannot
// starve the others.
type Scheduler struct {
	workers    int
	depth      int
	continuity bool
	admission  AdmissionPolicy
	maxBatch   int
	window     time.Duration
	dequeue    string
	keyframe   segmodel.KeyframePolicy

	mu       sync.Mutex
	cond     *sync.Cond
	queue    FairQueue[*job, BatchClass]
	inflight int
	closed   bool

	sessions map[*Session]struct{}
	nextID   int
	resumed  int

	// led is the scheduler's frame accounting: a request is offered once it
	// passes the closed check, pending while queued or in flight, and ends
	// served, rejected, shed or dropped (cancelled by session teardown).
	led         metrics.Ledger
	inferSum    float64
	waits       metrics.Dist
	depths      metrics.Dist
	batches     int
	batchJobs   int
	batchCounts []int
	peakSess    int

	wg sync.WaitGroup
}

// Stats is a point-in-time scheduler snapshot.
type Stats struct {
	// Workers and QueueDepth echo the configuration, AdmissionPolicy and
	// DequeuePolicy the active policy names.
	Workers         int
	QueueDepth      int
	AdmissionPolicy string
	DequeuePolicy   string
	// Queued and InFlight describe the instantaneous load.
	Queued   int
	InFlight int
	// Served, Rejected, Shed and Cancelled partition every admitted-or-
	// refused request: answered, refused at admission, displaced by the
	// session's own fresher frame (latest-wins), failed by session/
	// scheduler shutdown. Nothing is lost silently: Scheduler.Ledger holds
	// the same buckets and its Check(Queued+InFlight) is the law.
	Served    int
	Rejected  int
	Shed      int
	Cancelled int
	// MeanInferMs averages simulated inference latency over served requests.
	MeanInferMs float64
	// Wait telemetry: admission-to-dequeue wall time over served requests.
	MeanWaitMs float64
	MaxWaitMs  float64
	P95WaitMs  float64
	// Queue-depth telemetry, sampled at each admission.
	MeanQueueDepth float64
	PeakQueueDepth int
	// Batch telemetry: Batches counts accelerator launches, MeanBatchSize
	// the jobs per launch, and BatchSizeCounts[i] the launches of size i+1.
	// Under SingleDequeue every launch has size 1.
	Batches         int
	MeanBatchSize   float64
	MaxBatchSize    int
	BatchSizeCounts []int
	// Skip-compute telemetry: with a keyframe policy enabled,
	// KeyframesServed (feature-cache misses: full backbone) and
	// WarpedServed (cache hits: partial warp cost) partition Served. Both
	// stay zero with the policy off.
	KeyframesServed int
	WarpedServed    int
	// Session population. ResumedSessions counts sessions adopted from
	// another replica through the resume handshake (0 outside a fleet).
	ActiveSessions  int
	PeakSessions    int
	ResumedSessions int
}

// NewScheduler starts the worker pool.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Admission == nil {
		cfg.Admission = RejectWhenFull{}
	}
	if cfg.Dequeue == nil {
		cfg.Dequeue = SingleDequeue{}
	}
	s := &Scheduler{
		workers:    cfg.Workers,
		depth:      cfg.QueueDepth,
		continuity: cfg.GuidanceContinuity,
		admission:  cfg.Admission,
		maxBatch:   cfg.Dequeue.MaxBatch(),
		window:     cfg.Dequeue.Window(),
		dequeue:    cfg.Dequeue.Name(),
		keyframe:   cfg.Keyframe,
		sessions:   make(map[*Session]struct{}),
	}
	s.batchCounts = make([]int, s.maxBatch)
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker(cfg.NewAccelerator(i))
	}
	return s
}

// NewSession registers a client. Sessions created after Close still work as
// handles, but every Infer through them fails with ErrClosed.
func (s *Scheduler) NewSession(remote string) *Session {
	return s.addSession("", remote, false)
}

// ResumeSession adopts a session migrating in from another replica: the
// session carries its stable cross-replica key (so fleet-wide accounting
// keeps one identity across replicas) but starts with an empty feature
// cache and no retained guidance plan — that state died with the replica
// that owned it. The first keyframe decision on an adopted session
// therefore comes from a cold cache and is forced to be a keyframe: the
// same lost-keyframe invalidation rule that guards against warping from a
// pyramid that was never computed also covers a pyramid that is simply on
// the wrong machine.
func (s *Scheduler) ResumeSession(key, remote string) *Session {
	return s.addSession(key, remote, true)
}

func (s *Scheduler) addSession(key, remote string, resumed bool) *Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	if resumed {
		s.resumed++
	}
	sess := &Session{
		sched:      s,
		id:         s.nextID,
		remote:     remote,
		key:        key,
		started:    time.Now(),
		continuity: s.continuity,
		keyframes:  segmodel.KeyframeStream{Policy: s.keyframe},
	}
	s.sessions[sess] = struct{}{}
	if len(s.sessions) > s.peakSess {
		s.peakSess = len(s.sessions)
	}
	return sess
}

// QueueSnapshot is the scheduler's instantaneous load signal, cheap enough
// to poll in a tight loop.
type QueueSnapshot struct {
	// Queued counts admitted requests not yet taken by a worker; InFlight
	// those on an accelerator right now. Their sum is the backlog a new
	// request lands behind.
	Queued   int
	InFlight int
	// Depth is the admission bound, Sessions the live session count.
	Depth    int
	Sessions int
}

// Backlog is the work ahead of a newly admitted request.
func (q QueueSnapshot) Backlog() int { return q.Queued + q.InFlight }

// QueueSnapshot samples the load signal. The loadgen drivers poll it to
// time a scheduled replica kill for a moment when the replica holds work.
// It takes the scheduler lock briefly; no allocation.
func (s *Scheduler) QueueSnapshot() QueueSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return QueueSnapshot{
		Queued:   s.queue.Len(),
		InFlight: s.inflight,
		Depth:    s.depth,
		Sessions: len(s.sessions),
	}
}

// Ledger snapshots the scheduler's frame accounting, for drivers that roll
// replicas up with Ledger.Add. Its Pending is Queued + InFlight.
func (s *Scheduler) Ledger() metrics.Ledger {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.led
}

// submit admits one job its session has decided (Session.Decide) and
// blocks until it is served, rejected, shed or cancelled. No scheduler lock
// is held while waiting. If the job fails to reach an accelerator, the
// session's keyframe stream is told below, so no later frame warps from a
// pyramid that was never computed.
func (s *Scheduler) submit(j *job) (*segmodel.Result, float64, error) {
	sess, d := j.sess, j.D
	j.enqueued = time.Now()
	s.mu.Lock()
	if s.closed || sess.closed {
		s.mu.Unlock()
		sess.lost(d, ErrClosed)
		return nil, 0, ErrClosed
	}
	s.led.Offer(1)
	verdict, stale := s.queue.Admit(s.admission, s.depth, &sess.lane, j)
	switch verdict {
	case VerdictReject:
		s.led.Reject(1)
		s.mu.Unlock()
		sess.lost(d, ErrQueueFull)
		return nil, 0, ErrQueueFull
	case VerdictShedOldest:
		// The session's own oldest queued frame was displaced: its waiter
		// learns it was shed, the fresh frame took the slot.
		s.led.ShedStale(1)
		//edgeis:lockheld done is buffered (cap 1) and this is its only send, so it cannot block
		stale.done <- jobResult{err: ErrShed}
	}
	s.depths.Add(float64(s.queue.Len()))
	s.cond.Signal()
	s.mu.Unlock()
	if stale != nil {
		sess.lost(stale.D, ErrShed)
	}

	r := <-j.done
	return r.out, r.inferMs, r.err
}

// nextBatch blocks until at least one request is available (fair
// round-robin across sessions) or the scheduler is closed and drained; nil
// means exit. Under GatherBatch it extends the head job with compatible
// queued work, holding an underfull batch open for the gather window. Jobs
// count as in flight from the moment they leave the queue. The batch is
// appended to buf[:0], the calling worker's scratch.
func (s *Scheduler) nextBatch(buf []*job) []*job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.queue.Len() > 0 {
			batch := s.queue.Gather(append(buf[:0], s.queue.TakeHead()), s.maxBatch)
			s.inflight += len(batch)
			if len(batch) < s.maxBatch && s.window > 0 && !s.closed {
				// Gather window: hold the underfull batch open so jobs
				// arriving within the window can ride the same launch. The
				// jobs already taken are in flight, so Close (which drains
				// in-flight work) and session teardown stay correct while
				// the lock is released.
				//edgeis:lockdance the deferred unlock covers every other exit; this window release re-locks on the only path that reaches it
				s.mu.Unlock()
				time.Sleep(s.window)
				s.mu.Lock()
				held := len(batch)
				batch = s.queue.Gather(batch, s.maxBatch)
				s.inflight += len(batch) - held
			}
			return batch
		}
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
}

// worker serves requests on one accelerator until close-and-drain. Its
// batch, launch and latency slices are scratch reused across launches:
// waiters receive results by pointer, never a view into the scratch.
func (s *Scheduler) worker(acc Accelerator) {
	defer s.wg.Done()
	launcher, _ := acc.(Launcher)
	var (
		batch         []*job
		jobs          []Job
		outs          []*segmodel.Result
		perMs, waitMs []float64
	)
	for {
		if batch = s.nextBatch(batch); batch == nil {
			return
		}
		n := len(batch)
		outs, perMs, waitMs = resize(outs, n), resize(perMs, n), resize(waitMs, n)
		for i, j := range batch {
			waitMs[i] = float64(time.Since(j.enqueued)) / float64(time.Millisecond)
		}
		if launcher != nil {
			jobs = jobs[:0]
			for _, j := range batch {
				jobs = append(jobs, j.Job)
			}
			launchMs := launcher.Launch(jobs, outs)
			for i := range perMs {
				perMs[i] = launchMs
			}
		} else {
			// Serial and unamortized: a plain Accelerator gains nothing from
			// batching or from a non-keyframe decision.
			for i, j := range batch {
				outs[i], perMs[i] = acc.Run(j.In, j.G)
			}
		}

		s.mu.Lock()
		s.inflight -= len(batch)
		s.led.Serve(len(batch))
		if s.keyframe.Enabled() {
			// Partition served by keyframe class; the class is uniform
			// across the batch.
			if batch[0].D.Keyframe {
				s.led.Classify(len(batch), 0)
			} else {
				s.led.Classify(0, len(batch))
			}
		}
		// Batch telemetry only exists under the batch former; with single
		// dequeue the stats surface stays exactly as it was before the
		// policy layer (no batch line in FormatServerStats).
		if s.maxBatch > 1 {
			s.batches++
			s.batchJobs += len(batch)
			s.batchCounts[len(batch)-1]++
		}
		for i := range batch {
			s.inferSum += perMs[i]
			s.waits.Add(waitMs[i])
		}
		s.mu.Unlock()
		for i, j := range batch {
			j.sess.noteServed(perMs[i], waitMs[i])
			j.done <- jobResult{out: outs[i], inferMs: perMs[i]}
		}
		// Unpin the served requests until the next launch overwrites them.
		clear(batch)
		clear(jobs)
		clear(outs)
	}
}

// resize returns buf with length n, reusing its storage when it fits.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// closeSession implements Session.Close.
func (s *Scheduler) closeSession(sess *Session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.closed {
		return
	}
	sess.closed = true
	delete(s.sessions, sess)
	// Fail queued-but-unstarted requests so their waiters unblock; any
	// already taken onto a worker (alone or in a gathering batch) complete
	// normally.
	for _, j := range s.queue.DropLane(&sess.lane) {
		s.led.Drop(1)
		//edgeis:lockheld done is buffered (cap 1) and this is its only send, so it cannot block
		j.done <- jobResult{err: ErrClosed}
	}
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Workers:         s.workers,
		QueueDepth:      s.depth,
		AdmissionPolicy: s.admission.Name(),
		DequeuePolicy:   s.dequeue,
		Queued:          s.queue.Len(),
		InFlight:        s.inflight,
		Served:          s.led.Served(),
		Rejected:        s.led.Rejected(),
		Shed:            s.led.Shed(),
		Cancelled:       s.led.Dropped(),
		MeanWaitMs:      s.waits.Mean(),
		MaxWaitMs:       s.waits.Max(),
		P95WaitMs:       s.waits.Percentile(0.95),
		MeanQueueDepth:  s.depths.Mean(),
		PeakQueueDepth:  int(s.depths.Max()),
		Batches:         s.batches,
		BatchSizeCounts: append([]int(nil), s.batchCounts...),
		KeyframesServed: s.led.Keyframes(),
		WarpedServed:    s.led.Warped(),
		ActiveSessions:  len(s.sessions),
		PeakSessions:    s.peakSess,
		ResumedSessions: s.resumed,
	}
	if st.Served > 0 {
		st.MeanInferMs = s.inferSum / float64(st.Served)
	}
	if s.batches > 0 {
		st.MeanBatchSize = float64(s.batchJobs) / float64(s.batches)
	}
	for size := len(s.batchCounts); size > 0; size-- {
		if s.batchCounts[size-1] > 0 {
			st.MaxBatchSize = size
			break
		}
	}
	return st
}

// Sessions snapshots every active session, ordered by session ID.
func (s *Scheduler) Sessions() []SessionStats {
	s.mu.Lock()
	live := make([]*Session, 0, len(s.sessions))
	for sess := range s.sessions {
		live = append(live, sess)
	}
	s.mu.Unlock()
	// Map order is arbitrary; sort by the monotonically assigned ID.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0 && live[j-1].id > live[j].id; j-- {
			live[j-1], live[j] = live[j], live[j-1]
		}
	}
	out := make([]SessionStats, len(live))
	for i, sess := range live {
		out[i] = sess.Stats()
	}
	return out
}

// Close stops admission and gracefully drains: requests already admitted
// are served to completion (their waiters get real results), new Infer
// calls fail with ErrClosed, and Close returns once every worker has
// exited. Workers never block on client connections, so Close cannot
// deadlock; it is safe to call more than once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
