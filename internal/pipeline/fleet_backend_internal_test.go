package pipeline

import (
	"reflect"
	"testing"

	"edgeis/internal/netsim"
	"edgeis/internal/segmodel"
)

func fleetBaseConfig(seed int64) SimBackendConfig {
	return SimBackendConfig{
		Profile:  netsim.DefaultProfile(netsim.WiFi5),
		Seed:     seed,
		Keyframe: segmodel.KeyframePolicy{Interval: 4},
	}
}

// TestFleetSimSingleReplicaByteIdentical pins the compatibility contract: a
// one-replica fleet with no kills must reproduce the plain SimBackend's
// result schedule and accounting exactly — same decisions, same busy
// horizons, same link RNG draws.
func TestFleetSimSingleReplicaByteIdentical(t *testing.T) {
	frames := internalFrames(7, 12)
	run := func(b EdgeBackend) ([]ScheduledResult, BackendStats) {
		b.Bind(frames, 2)
		var out []ScheduledResult
		for i := 0; i < len(frames); i++ {
			out = append(out, b.Submit(internalRequest(i), float64(i)*FrameBudgetMs)...)
		}
		out = append(out, b.Advance(1e12)...)
		return out, b.Stats()
	}
	solo, soloStats := run(NewSimBackend(fleetBaseConfig(7)))
	fleet, fleetStats := run(NewFleetSimBackend(FleetSimConfig{Base: fleetBaseConfig(7), Replicas: 1}))
	if soloStats != fleetStats {
		t.Errorf("stats diverge:\n solo  %+v\n fleet %+v", soloStats, fleetStats)
	}
	if !reflect.DeepEqual(solo, fleet) {
		t.Errorf("result schedules diverge: solo %d results, fleet %d", len(solo), len(fleet))
	}
}

// TestFleetSimKillMigratesAndRecovers drives a 3-replica fleet through a
// kill of the serving replica while it holds a backlog: the waiting frames
// must land in MigratedOffloads (not vanish), the session must re-place on
// a survivor, and — because the survivor's feature cache is cold — the
// first post-migration frame must be decided a keyframe.
func TestFleetSimKillMigratesAndRecovers(t *testing.T) {
	frames := internalFrames(9, 10)
	// Resolve which replica rendezvous placement picks for the engine's
	// session, so the kill can target exactly the serving shard.
	serving := NewFleetSimBackend(FleetSimConfig{Base: fleetBaseConfig(9), Replicas: 3}).ServingReplica()

	b := NewFleetSimBackend(FleetSimConfig{
		Base:     fleetBaseConfig(9),
		Replicas: 3,
		Kills:    []EdgeKill{{Replica: serving, AtMs: 5}},
	})
	b.Bind(frames, 8)

	// Frame 0 enters service immediately (inference runs for hundreds of
	// simulated ms); frames 1-4 queue behind it, all before the kill instant.
	for i := 0; i < 5; i++ {
		b.Submit(internalRequest(i), float64(i))
	}
	if got := len(b.edges[serving].waiting); got != 4 {
		t.Fatalf("backlog on serving replica = %d, want 4", got)
	}

	// The next observation is past AtMs: the kill fires, the backlog
	// migrates, and frame 5 routes to the survivor the session re-placed on.
	b.Submit(internalRequest(5), 10)
	cur := b.ServingReplica()
	if cur == serving || cur < 0 {
		t.Fatalf("serving replica after kill = %d (killed %d)", cur, serving)
	}
	// The survivor's cache was cold, so frame 5's decision primed it — the
	// forced post-migration keyframe.
	if !b.edges[cur].keyframe.Valid() {
		t.Error("post-migration frame did not prime the survivor's cache with a cold keyframe")
	}

	b.Advance(1e12)
	st := b.Stats()
	if st.MigratedOffloads != 4 {
		t.Errorf("migrated = %d, want the 4 queued frames", st.MigratedOffloads)
	}
	// Conservation across the kill: every accepted offload is a result,
	// a queue drop, or a migration loss.
	if st.Submitted != st.Results+st.DroppedOffloads+st.MigratedOffloads {
		t.Errorf("conservation violated: submitted %d != results %d + dropped %d + migrated %d",
			st.Submitted, st.Results, st.DroppedOffloads, st.MigratedOffloads)
	}
	if st.Results < 2 {
		t.Errorf("results = %d; the survivor must keep serving after failover", st.Results)
	}
}

// TestFleetSimKillDeterministic pins the virtual-time failover to the
// determinism bar every simulated component meets: two identical runs with
// a mid-run kill produce identical result schedules and accounting.
func TestFleetSimKillDeterministic(t *testing.T) {
	frames := internalFrames(11, 16)
	run := func() ([]ScheduledResult, BackendStats) {
		b := NewFleetSimBackend(FleetSimConfig{
			Base:     fleetBaseConfig(11),
			Replicas: 3,
			Kills:    []EdgeKill{{Replica: 0, AtMs: 40}, {Replica: 2, AtMs: 200}},
		})
		b.Bind(frames, 4)
		var out []ScheduledResult
		for i := 0; i < len(frames); i++ {
			out = append(out, b.Submit(internalRequest(i), float64(i)*FrameBudgetMs)...)
		}
		out = append(out, b.Advance(1e12)...)
		return out, b.Stats()
	}
	r1, s1 := run()
	r2, s2 := run()
	if s1 != s2 {
		t.Errorf("stats diverge across identical runs:\n %+v\n %+v", s1, s2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("result schedules diverge across identical runs")
	}
}

// TestFleetSimTotalLossDropsClientSide kills the whole fleet: offloads
// submitted afterwards have nowhere to go and must be counted dropped (the
// client-side bucket), never silently lost.
func TestFleetSimTotalLossDropsClientSide(t *testing.T) {
	frames := internalFrames(13, 6)
	b := NewFleetSimBackend(FleetSimConfig{
		Base:     fleetBaseConfig(13),
		Replicas: 2,
		Kills:    []EdgeKill{{Replica: 0, AtMs: 1}, {Replica: 1, AtMs: 2}},
	})
	b.Bind(frames, 4)
	b.Submit(internalRequest(0), 0) // served: the fleet is still alive at t=0
	b.Submit(internalRequest(1), 5) // both kills due: nowhere to place
	b.Submit(internalRequest(2), 6)
	if got := b.ServingReplica(); got != -1 {
		t.Fatalf("serving replica = %d after total loss, want -1", got)
	}
	b.Advance(1e12)
	st := b.Stats()
	if st.DroppedOffloads != 2 {
		t.Errorf("dropped = %d, want the 2 post-loss submits", st.DroppedOffloads)
	}
	if st.Submitted != 1 || st.Results != 1 {
		t.Errorf("pre-kill frame not served: submitted %d results %d", st.Submitted, st.Results)
	}
	if b.Outstanding() != 0 {
		t.Errorf("outstanding = %d on a dead fleet", b.Outstanding())
	}
}
