package metrics

import "fmt"

// Ledger is the serving stack's frame accounting, and the one place its two
// laws are written (Check). Every offered frame sits in exactly one bucket:
// pending until it is resolved, then served, rejected, shed, dropped or
// migrated. The buckets are unexported, so outside this package a frame can
// only move through the methods below — a write that bypasses them does not
// compile. Each vantage point (scheduler, session, client, fleet client,
// driver, simulator, backend) holds one Ledger by value under the lock it
// already has, names the buckets in its own snapshot struct (a scheduler's
// Cancelled and a client's ConnLost are both dropped), and rolls peers up
// with Add. The zero value is an empty ledger.
type Ledger struct {
	offered, served, rejected, shed, dropped, migrated int
	// keyframes and warped split served by skip-compute class; both stay
	// zero where no keyframe policy classifies frames.
	keyframes, warped int
}

// Offer admits n frames into the ledger; they are pending until resolved.
func (l *Ledger) Offer(n int) { l.offered += n }

// Serve resolves n pending frames as answered.
func (l *Ledger) Serve(n int) { l.served += n }

// Unserve takes back n serves counted ahead of a hand-over that did not
// happen (the consumer was gone); the frames are pending again.
func (l *Ledger) Unserve(n int) { l.served -= n }

// Classify records the skip-compute class of served frames: keyframes paid
// the full backbone, warped the partial warp cost. The edge calls it with
// each Serve; a client-side ledger adopts the split its edge counted.
func (l *Ledger) Classify(keyframes, warped int) {
	l.keyframes += keyframes
	l.warped += warped
}

// Reject resolves n pending frames as refused at admission.
func (l *Ledger) Reject(n int) { l.rejected += n }

// ShedStale resolves n pending frames as shed: stale frames displaced by
// their session's fresher ones (latest-wins).
func (l *Ledger) ShedStale(n int) { l.shed += n }

// Drop resolves n pending frames as lost on purpose: client-side overflow,
// cancellation at shutdown, a connection that ended.
func (l *Ledger) Drop(n int) { l.dropped += n }

// Migrate resolves n pending frames as lost in flight to a replica failure.
func (l *Ledger) Migrate(n int) { l.migrated += n }

// Settle drops whatever is still pending: nothing more can resolve it.
func (l *Ledger) Settle() { l.Drop(l.Pending()) }

// MigrateDropped reclassifies every dropped frame as migrated: a connection
// settles its unresolved frames as dropped before the fleet knows whether
// the session moved on to a survivor.
func (l *Ledger) MigrateDropped() {
	l.migrated += l.dropped
	l.dropped = 0
}

// Add rolls another ledger's buckets into this one.
func (l *Ledger) Add(o Ledger) {
	l.offered += o.offered
	l.served += o.served
	l.rejected += o.rejected
	l.shed += o.shed
	l.dropped += o.dropped
	l.migrated += o.migrated
	l.keyframes += o.keyframes
	l.warped += o.warped
}

// The getters read one bucket each.

func (l Ledger) Offered() int   { return l.offered }
func (l Ledger) Served() int    { return l.served }
func (l Ledger) Rejected() int  { return l.rejected }
func (l Ledger) Shed() int      { return l.shed }
func (l Ledger) Dropped() int   { return l.dropped }
func (l Ledger) Migrated() int  { return l.migrated }
func (l Ledger) Keyframes() int { return l.keyframes }
func (l Ledger) Warped() int    { return l.warped }

// Pending is the number of offered frames not yet in a resolved bucket.
func (l Ledger) Pending() int {
	return l.offered - l.served - l.rejected - l.shed - l.dropped - l.migrated
}

// Check verifies both laws against pending, the caller's own count of
// frames still in flight (queue length plus in-flight work; 0 once drained),
// and names the one that broke and by how much.
//
// No silent loss: offered == served + rejected + shed + dropped + migrated +
// pending.
//
// Keyframe partition: where frames were classified, keyframes + warped ==
// served. A ledger that adopted its split from the edge is delivery-side:
// a killed replica computed frames whose results died with its sockets, so
// there the split may exceed served by at most migrated.
func (l Ledger) Check(pending int) error {
	if min(l.offered, l.served, l.rejected, l.shed, l.dropped, l.migrated, l.keyframes, l.warped) < 0 {
		return fmt.Errorf("negative bucket: %+v", l)
	}
	if off := l.Pending() - pending; off != 0 {
		return fmt.Errorf("conservation violated by %+d: offered %d != served %d + rejected %d + shed %d + dropped %d + migrated %d + pending %d",
			off, l.offered, l.served, l.rejected, l.shed, l.dropped, l.migrated, pending)
	}
	if part := l.keyframes + l.warped; part > 0 && (part < l.served || part > l.served+l.migrated) {
		return fmt.Errorf("keyframe partition violated by %+d: keyframes %d + warped %d outside [served %d, served+migrated %d]",
			part-l.served, l.keyframes, l.warped, l.served, l.served+l.migrated)
	}
	return nil
}
