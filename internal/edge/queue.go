package edge

// FairQueue is the edge's admission queue discipline, written once: a
// bounded queue of jobs grouped into per-session Lanes, dequeued round-robin
// across the lanes that have work. It is a plain value with no clock and no
// lock — Scheduler holds one under its mutex, the loadgen simulator one per
// replica in virtual time — so a queue rule changes here and nowhere else.
//
// A lane is in the ring iff it has pending jobs. Dequeueing rotates the
// ring: the front lane gives up one job and, if it still has work, re-joins
// at the back. Rotation (rather than an index walk with removals) is what
// makes the round-robin starvation-free: a lane with a backlog is served
// exactly once per pass over the waiting lanes, and a churn of fresh
// single-job lanes joining at the back can never lap it.
//
// J is the job type; its BatchClass method is the compatibility key Gather
// matches on.
type FairQueue[J interface{ BatchClass() C }, C comparable] struct {
	ring   []*Lane[J]
	queued int
}

// Lane is one session's FIFO of admitted-but-undequeued jobs. The owner
// embeds it in its session state and hands its address to the queue; a lane
// belongs to at most one queue at a time (it may move to another once
// empty).
type Lane[J any] struct {
	pending []J
}

// Len is the number of jobs waiting in the lane.
func (l *Lane[J]) Len() int { return len(l.pending) }

// Len is the number of jobs waiting across all lanes — the occupancy the
// admission bound applies to.
func (q *FairQueue[J, C]) Len() int { return q.queued }

// Admit applies policy p at the given depth bound to job j arriving on lane
// l. VerdictAdmit and VerdictShedOldest enqueue j; the latter first
// displaces the lane's own oldest job, returned as stale. VerdictReject
// leaves the queue untouched — including when the policy asked to shed but
// the lane had nothing queued: a policy may only shed the arriving
// session's own work.
func (q *FairQueue[J, C]) Admit(p AdmissionPolicy, depth int, l *Lane[J], j J) (v AdmissionVerdict, stale J) {
	// Ring membership is decided before a shed mutates pending: the shed
	// can empty the lane momentarily without it ever leaving the ring.
	inRing := len(l.pending) > 0
	v = p.Admit(q.queued, depth, len(l.pending))
	switch {
	case v == VerdictShedOldest && inRing:
		stale = l.pending[0]
		l.pending = l.pending[1:]
		q.queued--
	case v != VerdictAdmit:
		return VerdictReject, stale
	}
	if !inRing {
		q.ring = append(q.ring, l)
	}
	l.pending = append(l.pending, j)
	q.queued++
	return v, stale
}

// TakeHead pops the front lane's oldest job and rotates the lane to the
// back of the ring if it still has work. The queue must not be empty.
func (q *FairQueue[J, C]) TakeHead() J {
	l := q.ring[0]
	q.ring = q.ring[1:]
	j := l.pending[0]
	l.pending = l.pending[1:]
	q.queued--
	if len(l.pending) > 0 {
		q.ring = append(q.ring, l)
	}
	return j
}

// Gather extends a non-empty batch up to max jobs with queued jobs of its
// first job's class, scanning the ring in order and taking at most one job
// per lane per call, so the batch former cannot out-run round-robin
// fairness. Lanes whose oldest job is of another class are skipped, not
// reordered.
func (q *FairQueue[J, C]) Gather(batch []J, max int) []J {
	class := batch[0].BatchClass()
	for i := 0; len(batch) < max && i < len(q.ring); {
		l := q.ring[i]
		if l.pending[0].BatchClass() != class {
			i++
			continue
		}
		batch = append(batch, l.pending[0])
		l.pending = l.pending[1:]
		q.queued--
		if len(l.pending) > 0 {
			// The lane keeps its ring position but contributed its one
			// job for this pass; move past it.
			i++
		} else {
			q.ring = append(q.ring[:i], q.ring[i+1:]...)
		}
	}
	return batch
}

// DropLane removes lane l from the queue — its session closed or its
// replica died — and returns the jobs that were still waiting in it.
func (q *FairQueue[J, C]) DropLane(l *Lane[J]) []J {
	dropped := l.pending
	if len(dropped) == 0 {
		return nil
	}
	q.queued -= len(dropped)
	l.pending = nil
	for i, rl := range q.ring {
		if rl == l {
			q.ring = append(q.ring[:i], q.ring[i+1:]...)
			break
		}
	}
	return dropped
}
