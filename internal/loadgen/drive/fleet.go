package drive

// The two drive targets. RunScheduler replays a profile against one
// edge.Scheduler per replica with driver-side failover (ResumeSession on a
// survivor after a kill); RunTCP runs one transport.Server per replica and
// one fleet.FleetClient per session, so the real failover path — socket
// loss, re-placement, resume handshake, forced keyframe — carries the run.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"edgeis/internal/edge"
	"edgeis/internal/fleet"
	"edgeis/internal/loadgen"
	"edgeis/internal/metrics"
	"edgeis/internal/netsim"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// fleetState tracks which replicas have been killed, shared by the kill
// timers and the sessions re-placing after a failure.
type fleetState struct {
	mu   sync.Mutex
	dead []bool
}

func newFleetState(n int) *fleetState { return &fleetState{dead: make([]bool, n)} }

// alive returns the replica indices not yet killed, in index order.
func (f *fleetState) alive() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]int, 0, len(f.dead))
	for r, d := range f.dead {
		if !d {
			out = append(out, r)
		}
	}
	return out
}

// kill marks replica r dead; false means it already was. The mark lands
// before the replica is actually torn down, so a session re-placing
// concurrently never picks a replica the killer has claimed.
func (f *fleetState) kill(r int) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead[r] {
		return false
	}
	f.dead[r] = true
	return true
}

// startKillers arms one goroutine per configured kill and returns a
// WaitGroup the caller waits on after the generation horizon. A kill fires
// at its AtMs if busy reports the doomed replica holding queued or
// in-flight work, else at the first instant after it that it does, so the
// kill lands on frames to migrate; at the generation horizon it fires
// regardless.
func startKillers(p loadgen.Profile, o Options, start time.Time, fs *fleetState, busy func(r int) bool, kill func(r int)) *sync.WaitGroup {
	horizon := start.Add(time.Duration(p.DurationMs * o.TimeScale * float64(time.Millisecond)))
	var killers sync.WaitGroup
	for _, k := range p.Kills {
		if k.Replica < 0 || k.Replica >= p.Replicas {
			continue
		}
		killers.Add(1)
		go func(k loadgen.ReplicaKill) {
			defer killers.Done()
			sleepUntil(start, k.AtMs, o.TimeScale)
			for !busy(k.Replica) && time.Now().Before(horizon) {
				time.Sleep(250 * time.Microsecond)
			}
			if fs.kill(k.Replica) {
				kill(k.Replica)
			}
		}(k)
	}
	return &killers
}

// sessHandle is one session's live placement on the scheduler target: the
// serving replica and session handle, plus a generation counter so that
// when several in-flight frames hit the same dead replica, only the first
// failure re-places the session.
type sessHandle struct {
	mu   sync.Mutex
	r    int
	sess *edge.Session
	gen  int
}

// current snapshots the serving handle; sess is nil once the whole fleet is
// dead.
func (h *sessHandle) current() (*edge.Session, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sess, h.gen
}

// checkReplicas checks the drained replicas' summed ledger and, because
// Ledger.Check cannot know the policy and skips the partition law on an
// unclassified ledger, that a run with the keyframe policy on classified
// what it served.
func checkReplicas(p loadgen.Profile, replicas metrics.Ledger) error {
	if p.SkipCompute() && replicas.Served() > 0 && replicas.Keyframes()+replicas.Warped() == 0 {
		return fmt.Errorf("keyframe policy on but none of %d served frames classified", replicas.Served())
	}
	return replicas.Check(0)
}

// foldSchedStats aggregates per-replica scheduler telemetry into the SLO
// (the frame accounting arrives separately, as summed ledgers): sums for
// batch counts, maxes for peaks, served-weighted means for the wait
// and depth averages (an idle replica should not drag the fleet mean down).
func foldSchedStats(slo *loadgen.SLO, sts []edge.Stats) {
	var served, batches int
	var waitMean, waitP95, depthMean, batchJobs float64
	for _, st := range sts {
		w := float64(st.Served)
		served += st.Served
		waitMean += st.MeanWaitMs * w
		waitP95 += st.P95WaitMs * w
		depthMean += st.MeanQueueDepth * w
		if st.MaxWaitMs > slo.WaitMaxMs {
			slo.WaitMaxMs = st.MaxWaitMs
		}
		if st.PeakQueueDepth > slo.QueuePeakDepth {
			slo.QueuePeakDepth = st.PeakQueueDepth
		}
		batches += st.Batches
		batchJobs += st.MeanBatchSize * float64(st.Batches)
	}
	if served > 0 {
		slo.WaitMeanMs = round3(waitMean / float64(served))
		slo.WaitP95Ms = round3(waitP95 / float64(served))
		slo.QueueMeanDepth = round3(depthMean / float64(served))
	}
	slo.WaitMaxMs = round3(slo.WaitMaxMs)
	slo.Batches = batches
	if batches > 0 {
		slo.MeanBatchSize = round3(batchJobs / float64(batches))
	}
}

// RunScheduler replays the profile against real edge.Schedulers in process,
// one per replica, sessions rendezvous-placed exactly as the simulator
// places them: one goroutine per session paces the generation schedule,
// sheds at the outstanding cap, models the uplink with netsim pacing and
// classifies every Infer outcome. A kill closes the replica's scheduler
// (admitted frames drain, new ones fail), and a session discovers the death
// when a frame comes back ErrClosed: that frame is counted migrated — never
// resent — and the session resumes on a survivor via ResumeSession, cold
// cache and all, so its next keyframe decision is forced. Once the whole
// fleet is dead, remaining frames drop client-side. The returned SLO's
// accounting is reconciled against the schedulers' own counters; any
// mismatch is an error.
func RunScheduler(p loadgen.Profile, opts Options) (*loadgen.SLO, error) {
	p = p.Normalized()
	o := opts.withDefaults()
	cfg, err := edgeConfig(p, o)
	if err != nil {
		return nil, err
	}
	cfg.NewAccelerator = func(int) edge.Accelerator {
		return &clipAccelerator{p: p, scale: o.TimeScale, frac: o.Occupancy}
	}
	scheds := make([]*edge.Scheduler, p.Replicas)
	for r := range scheds {
		scheds[r] = edge.NewScheduler(cfg)
	}
	fs := newFleetState(p.Replicas)
	a := &agg{servedBy: make([]int, p.Sessions)}
	start := time.Now()
	killers := startKillers(p, o, start, fs,
		func(r int) bool { return scheds[r].QueueSnapshot().Backlog() > 0 },
		func(r int) { _ = scheds[r].Close() })

	var fleetWg sync.WaitGroup
	for i := 0; i < p.Sessions; i++ {
		fleetWg.Add(1)
		go func(i int) {
			defer fleetWg.Done()
			key := p.SessionKey(i)
			h := &sessHandle{r: p.PlaceSession(i, fs.alive())}
			h.sess = scheds[h.r].NewSession(key)
			// failover re-places the session after frame gen observed its
			// replica dead; the generation guard keeps a burst of in-flight
			// failures from hopping replicas once per frame.
			failover := func(failedGen int) {
				// Snapshot before taking h.mu (fs has its own lock). A stale
				// snapshot is harmless: re-placing onto a replica that died
				// a beat ago just triggers one more failover.
				alive := fs.alive()
				h.mu.Lock()
				defer h.mu.Unlock()
				if h.gen != failedGen {
					return
				}
				h.gen++
				if len(alive) == 0 {
					h.r, h.sess = -1, nil
					return
				}
				h.r = p.PlaceSession(i, alive)
				h.sess = scheds[h.r].ResumeSession(key, key)
			}
			clip := p.ClipFor(i)
			up := netsim.NewLink(p.LinkFor(i).NetProfile(), p.Seed+int64(i)*2+1)
			// led is the session's accounting, resolved from the request
			// goroutines under mu; its Pending is the outstanding count.
			var led metrics.Ledger
			var mu sync.Mutex
			var reqs sync.WaitGroup
			for _, genAt := range p.SessionArrivals(i) {
				sleepUntil(start, genAt, o.TimeScale)
				// Placement is resolved at generation time, like picking the
				// socket to uplink into: a frame bound for a replica that
				// dies mid-flight migrates, it does not retroactively reroute.
				sess, gen := h.current()
				mu.Lock()
				// Dropped client-side: whole fleet dead (nowhere to connect)
				// or the session is at its outstanding cap.
				drop := sess == nil || led.Pending() >= p.MaxOutstanding
				led.Offer(1)
				if drop {
					led.Drop(1)
				}
				mu.Unlock()
				if drop {
					continue
				}
				upMs := up.TransferMs(genAt, clip.PayloadBytes)
				reqs.Add(1)
				go func(genAt, upMs float64, sess *edge.Session, gen int) {
					defer reqs.Done()
					sleepUntil(start, genAt+upMs, o.TimeScale)
					// Each clip class gets its own input width so the batch
					// former's shape-compatibility key (edge.BatchClass)
					// separates clips here exactly as it would separate real
					// resolutions.
					in := segmodel.Input{Width: 64 + 16*(i%len(p.Clips)), Height: 48, Seed: int64(i)}
					_, _, err := sess.Infer(in, nil)
					if err == nil {
						a.noteLatency(msSince(start) - genAt*o.TimeScale)
					}
					mu.Lock()
					switch {
					case err == nil:
						led.Serve(1)
					case errors.Is(err, edge.ErrQueueFull):
						led.Reject(1)
					case errors.Is(err, edge.ErrShed):
						led.ShedStale(1)
					case errors.Is(err, edge.ErrClosed):
						// The replica died under this frame: the frame is
						// lost to the migration window, the session moves on.
						led.Migrate(1)
					default:
						led.Drop(1)
					}
					mu.Unlock()
					if errors.Is(err, edge.ErrClosed) {
						failover(gen)
					}
				}(genAt, upMs, sess, gen)
			}
			reqs.Wait()
			if sess, _ := h.current(); sess != nil {
				sess.Close()
			}
			a.absorb(i, led)
		}(i)
	}
	fleetWg.Wait()
	horizon := msSince(start)
	killers.Wait()

	sts := make([]edge.Stats, p.Replicas)
	var replicas metrics.Ledger
	for r, sched := range scheds {
		sts[r] = sched.Stats()
		if err := sched.Close(); err != nil {
			return nil, err
		}
		replicas.Add(sched.Ledger())
	}
	if err := checkReplicas(p, replicas); err != nil {
		return nil, fmt.Errorf("drive scheduler: replicas: %w", err)
	}
	if replicas.Served() != a.led.Served() || replicas.Rejected() != a.led.Rejected() || replicas.Shed() != a.led.Shed() || replicas.Dropped() != 0 {
		return nil, fmt.Errorf("drive scheduler: accounting mismatch: driver %+v, replicas %+v", a.led, replicas)
	}
	slo := newSLO(p, "scheduler", a, replicas, horizon)
	foldSchedStats(slo, sts)
	return slo, nil
}

// RunTCP replays the profile over real sockets: one in-process
// transport.Server per replica on its own loopback socket (or the one
// external server at Options.Addr), one fleet.FleetClient per session. A
// kill force-closes the replica's server; the fleet clients observe the
// socket loss, re-place, and replay the resume handshake — the exact
// production failover path. Accounting is client-side — results, rejects and
// shed notices come back over the wire — and folds the fleet client's
// settled conservation identity into the run's: connection losses with a
// completed migration count migrated, terminal/teardown losses and offloads
// still unresolved DrainTimeout after the horizon count dropped.
func RunTCP(p loadgen.Profile, opts Options) (*loadgen.SLO, error) {
	p = p.Normalized()
	o := opts.withDefaults()
	cfg, err := edgeConfig(p, o)
	if err != nil {
		return nil, err
	}
	var servers []*transport.Server
	addrs := []string{o.Addr}
	if o.Addr == "" {
		servers = make([]*transport.Server, p.Replicas)
		addrs = make([]string, p.Replicas)
	} else if p.Sharded() || len(p.Kills) > 0 {
		return nil, fmt.Errorf("drive tcp: profile %s shards or kills replicas, which needs in-process servers; -addr drives one external server", p.Name)
	}
	closeOnce := make([]sync.Once, len(servers))
	closeSrv := func(r int) {
		closeOnce[r].Do(func() { _ = servers[r].Close() })
	}
	defer func() {
		for r := range servers {
			if servers[r] != nil {
				closeSrv(r)
			}
		}
	}()
	for r := range servers {
		srv := transport.NewServer(segmodel.New(segmodel.YOLOv3),
			transport.WithAccelerators(cfg.Workers),
			transport.WithQueueDepth(cfg.QueueDepth),
			transport.WithWallOccupancy(o.Occupancy*o.TimeScale),
			transport.WithAdmissionPolicy(cfg.Admission),
			transport.WithDequeuePolicy(cfg.Dequeue),
			transport.WithKeyframePolicy(cfg.Keyframe))
		bound, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		servers[r] = srv
		addrs[r] = bound.String()
	}
	fs := newFleetState(p.Replicas)
	a := &agg{servedBy: make([]int, p.Sessions)}
	start := time.Now()
	killers := startKillers(p, o, start, fs,
		func(r int) bool { return servers[r].Scheduler().QueueSnapshot().Backlog() > 0 }, closeSrv)

	var fleetWg sync.WaitGroup
	sessErrs := make([]error, p.Sessions)
	for i := 0; i < p.Sessions; i++ {
		fleetWg.Add(1)
		go func(i int) {
			defer fleetWg.Done()
			fc, err := fleet.DialFleet(fleet.Config{Addrs: addrs, SessionKey: p.SessionKey(i)})
			if err != nil {
				sessErrs[i] = err
				return
			}
			defer fc.Close()
			clip := p.ClipFor(i)

			var mu sync.Mutex
			sendAt := make(map[int32]float64)
			served := 0
			var readers sync.WaitGroup
			readers.Add(1)
			go func() {
				defer readers.Done()
				for res := range fc.Results() {
					mu.Lock()
					at, ok := sendAt[res.FrameIndex]
					if ok {
						delete(sendAt, res.FrameIndex)
						served++
					}
					mu.Unlock()
					if ok {
						a.noteLatency(msSince(start) - at)
					}
				}
			}()

			sent, dropped := 0, 0
			for k, genAt := range p.SessionArrivals(i) {
				sleepUntil(start, genAt, o.TimeScale)
				if fc.Ledger().Pending() >= p.MaxOutstanding {
					dropped++
					continue
				}
				idx := int32(k)
				mu.Lock()
				sendAt[idx] = msSince(start)
				mu.Unlock()
				ok := fc.Send(&transport.FrameMsg{
					FrameIndex:   idx,
					Width:        int32(64 + 16*(i%len(p.Clips))),
					Height:       48,
					Seed:         int64(i)*1_000_003 + int64(k),
					PaddingBytes: int32(clip.PayloadBytes),
				})
				if !ok {
					// Send queue full, mid-failover, or fleet exhausted: the
					// frame never left the client.
					mu.Lock()
					delete(sendAt, idx)
					mu.Unlock()
					dropped++
					continue
				}
				sent++
			}

			// Drain: every sent frame resolves into a result, a wire-level
			// reject/shed, or a migration/connection loss; Close settles the
			// stragglers into ConnLost. The wait is on what the reader above
			// has consumed, so a result still being handed over when the
			// client has nothing pending is served, not closed on.
			deadline := time.Now().Add(o.DrainTimeout)
			for time.Now().Before(deadline) {
				mu.Lock()
				consumed := served
				mu.Unlock()
				if l := fc.Ledger(); l.Pending() == 0 && l.Served() == consumed {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			fc.Close()
			readers.Wait()

			l := fc.Ledger()
			if err := l.Check(0); err != nil {
				sessErrs[i] = fmt.Errorf("drive tcp: session %d: %w", i, err)
				return
			}
			if l.Offered() != sent || l.Served() != served {
				sessErrs[i] = fmt.Errorf("drive tcp: session %d accounting leak: driver sent/served %d/%d, client %+v",
					i, sent, served, l)
				return
			}
			// Frames that never left the client are offered and dropped here.
			l.Offer(dropped)
			l.Drop(dropped)
			a.absorb(i, l)
		}(i)
	}
	fleetWg.Wait()
	horizon := msSince(start)
	killers.Wait()
	for _, err := range sessErrs {
		if err != nil {
			return nil, err
		}
	}

	sts := make([]edge.Stats, len(servers))
	var replicas metrics.Ledger
	resumed := 0
	for r := range servers {
		closeSrv(r)
		sts[r] = servers[r].Scheduler().Stats()
		replicas.Add(servers[r].Scheduler().Ledger())
		resumed += sts[r].ResumedSessions
	}
	slo := newSLO(p, "tcp", a, replicas, horizon)
	if servers == nil {
		return slo, nil // external server: nothing to reconcile against
	}
	if err := checkReplicas(p, replicas); err != nil {
		return nil, fmt.Errorf("drive tcp: replicas: %w", err)
	}
	// The replicas must have resolved at least what the clients saw; a
	// killed replica legitimately served frames whose results died with its
	// sockets (the clients count those migrated).
	if replicas.Offered() < a.led.Served()+a.led.Rejected()+a.led.Shed() {
		return nil, fmt.Errorf("drive tcp: accounting mismatch: clients saw %+v, replicas resolved %+v", a.led, replicas)
	}
	// Migrated frames imply completed failovers, and every completed
	// failover lands a resume handshake on a survivor.
	if a.led.Migrated() > 0 && resumed == 0 && len(fs.alive()) > 0 {
		return nil, fmt.Errorf("drive tcp: %d frames migrated but no replica adopted a session", a.led.Migrated())
	}
	foldSchedStats(slo, sts)
	return slo, nil
}
