package pipeline

// FleetSimBackend mirrors the multi-edge sharding of internal/fleet inside
// the deterministic pipeline: a fleet of M simulated edges, the engine's
// session rendezvous-placed on one of them, and a virtual-time failure
// schedule under which the serving edge can die mid-run. A kill loses the
// dead edge's waiting offloads to the MigratedOffloads bucket (accepted but
// never served — the same in-flight loss window the fleet client accounts),
// and the session re-places onto a survivor whose feature cache is cold, so
// the first post-migration frame under a keyframe policy is forced to be a
// keyframe. With one replica and no kills the backend is byte-identical to
// a plain SimBackend.

import (
	"fmt"
	"sort"
	"time"

	"edgeis/internal/fleet"
	"edgeis/internal/metrics"
	"edgeis/internal/scene"
)

// EdgeKill schedules the death of one simulated edge replica at a virtual
// time. Kills take effect at the backend's next observation instant
// (Submit or Advance) at or after AtMs — virtual time only moves at those
// instants, so the schedule stays a pure function of the run.
type EdgeKill struct {
	Replica int
	AtMs    float64
}

// FleetSimConfig assembles a sharded simulated edge.
type FleetSimConfig struct {
	// Base configures each replica; replica r derives its link and model
	// seeds from Base.Seed so replica 0 reproduces the single-edge backend
	// exactly.
	Base SimBackendConfig
	// Replicas is the fleet size (minimum 1).
	Replicas int
	// SessionKey is the placement identity of the engine's single session;
	// empty uses a stable default. It only matters when comparing placement
	// against other resolvers, which hash the same key.
	SessionKey string
	// Kills is the failure schedule.
	Kills []EdgeKill
}

// FleetSimBackend implements EdgeBackend over a fleet of SimBackends.
type FleetSimBackend struct {
	edges []*SimBackend
	names []string
	dead  []bool
	kills []EdgeKill // sorted by AtMs; nextKill indexes the first pending
	next  int
	key   string
	// cur is the serving replica, -1 once the whole fleet is dead.
	cur int
	// led accounts the submits no edge owns: those that found no replica
	// alive. A kill's losses settle on the dead edge's own ledger.
	led metrics.Ledger
}

// NewFleetSimBackend builds the sharded simulated edge.
func NewFleetSimBackend(cfg FleetSimConfig) *FleetSimBackend {
	if cfg.Replicas < 1 {
		cfg.Replicas = 1
	}
	if cfg.SessionKey == "" {
		cfg.SessionKey = "pipeline-session"
	}
	b := &FleetSimBackend{
		edges: make([]*SimBackend, cfg.Replicas),
		names: make([]string, cfg.Replicas),
		dead:  make([]bool, cfg.Replicas),
		key:   cfg.SessionKey,
	}
	for r := range b.edges {
		rc := cfg.Base
		// Distinct link/model RNG streams per replica; r=0 keeps the base
		// seed so a one-replica fleet reproduces SimBackend byte-for-byte.
		rc.Seed = cfg.Base.Seed + int64(r)*7_919
		b.edges[r] = NewSimBackend(rc)
		b.names[r] = fmt.Sprintf("replica-%d", r)
	}
	b.kills = append([]EdgeKill(nil), cfg.Kills...)
	sort.SliceStable(b.kills, func(i, j int) bool { return b.kills[i].AtMs < b.kills[j].AtMs })
	b.cur = b.place()
	return b
}

// aliveNames returns the names of the replicas still serving.
func (b *FleetSimBackend) aliveNames() []string {
	out := make([]string, 0, len(b.names))
	for r, name := range b.names {
		if !b.dead[r] {
			out = append(out, name)
		}
	}
	return out
}

// place resolves the session's serving replica among survivors with the
// same rendezvous hash every fleet resolver uses; -1 when none remain.
func (b *FleetSimBackend) place() int {
	alive := b.aliveNames()
	if len(alive) == 0 {
		return -1
	}
	picked := fleet.Rendezvous{}.Pick(b.key, alive)
	for r, name := range b.names {
		if name == picked {
			return r
		}
	}
	return -1
}

// applyKills processes every scheduled kill due by now: the dead edge's
// waiting offloads migrate-lose, and if it was serving the session, the
// session re-places — onto a cold cache, so the next keyframe decision is
// forced.
func (b *FleetSimBackend) applyKills(now float64) {
	for b.next < len(b.kills) && b.kills[b.next].AtMs <= now {
		k := b.kills[b.next]
		b.next++
		if k.Replica < 0 || k.Replica >= len(b.edges) || b.dead[k.Replica] {
			continue
		}
		b.dead[k.Replica] = true
		ed := b.edges[k.Replica]
		ed.led.Migrate(len(ed.waiting))
		ed.waiting = nil
		if b.cur == k.Replica {
			b.cur = b.place()
		}
	}
}

// ServingReplica reports the replica currently serving the session (-1 once
// the fleet is dead) — observability for tests and reports.
func (b *FleetSimBackend) ServingReplica() int { return b.cur }

// Name implements EdgeBackend.
func (b *FleetSimBackend) Name() string { return "sim-fleet" }

// Bind implements EdgeBackend.
func (b *FleetSimBackend) Bind(frames []*scene.Frame, queueDepth int) {
	for _, ed := range b.edges {
		ed.Bind(frames, queueDepth)
	}
}

// Submit implements EdgeBackend: the offload goes to the session's serving
// replica; with the whole fleet dead it is dropped client-side.
func (b *FleetSimBackend) Submit(req *OffloadRequest, sendAt float64) []ScheduledResult {
	b.applyKills(sendAt)
	if b.cur < 0 {
		b.led.Offer(1)
		b.led.Drop(1)
		return nil
	}
	return b.edges[b.cur].Submit(req, sendAt)
}

// Advance implements EdgeBackend.
func (b *FleetSimBackend) Advance(now float64) []ScheduledResult {
	b.applyKills(now)
	var out []ScheduledResult
	for r, ed := range b.edges {
		if b.dead[r] {
			continue
		}
		out = append(out, ed.Advance(now)...)
	}
	return out
}

// Outstanding implements EdgeBackend: work waiting on live replicas.
func (b *FleetSimBackend) Outstanding() int {
	n := 0
	for r, ed := range b.edges {
		if !b.dead[r] {
			n += ed.Outstanding()
		}
	}
	return n
}

// Wait implements EdgeBackend: simulated results only move on Advance.
func (b *FleetSimBackend) Wait(time.Duration) bool { return false }

// Stats implements EdgeBackend: per-replica accounting summed, plus the
// fleet-dead drops.
func (b *FleetSimBackend) Stats() BackendStats {
	var agg BackendStats
	led := b.led
	for _, ed := range b.edges {
		led.Add(ed.led)
		agg.Submitted += ed.stats.Submitted
		agg.InferMsSum += ed.stats.InferMsSum
		agg.UplinkBytes += ed.stats.UplinkBytes
		agg.DownlinkBytes += ed.stats.DownlinkBytes
	}
	return agg.WithLedger(led)
}

// Close implements EdgeBackend.
func (b *FleetSimBackend) Close() error { return nil }
