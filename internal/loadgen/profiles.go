package loadgen

import "fmt"

// Profiles returns the named workload suite — the profiles BENCH_serving.json
// commits and the CI smoke re-runs. Regimes are chosen deliberately:
//
//   - steady-light: under-provisioned load on one accelerator; the healthy
//     baseline every other profile is read against.
//   - burst-contention-x1 / -x4: the same heavily contended bursty fleet on
//     1 vs 4 accelerators; the pair that shows pooling improving tail
//     latency (p95) under contention.
//   - burst-batch-x4: burst-contention-x4 with the gather-window batch
//     former enabled (MaxBatch 4); read against -x4 it shows cross-session
//     batching converting contention into amortized launches.
//   - burst-shed-x1: burst-contention-x1 under the latest-wins admission
//     policy; read against -x1 it shows stale frames shed per session
//     instead of fresh frames rejected at the full queue.
//   - fleet-1k: 1000 concurrent sessions ramping up on 4 accelerators, the
//     scale demonstration.
//   - steady-scene-x2 / steady-scene-skip-x2: the same oversubscribed
//     steady street fleet on 2 accelerators, all-keyframe vs the feature
//     cache at KeyframeInterval 4; the pair that shows skip-compute
//     converting temporal redundancy into served throughput (read the
//     served counts and p50 against each other).
//   - ci-smoke: a seconds-scale contended profile for the blocking CI
//     determinism/conservation check.
//   - ci-smoke-skip: ci-smoke with the feature cache enabled, so the CI
//     smoke also pins skip-compute determinism and the keyframe partition
//     law.
//   - ci-smoke-fleet: the ci-smoke fleet sharded over 3 contended
//     replicas (FPS raised so each shard runs saturated) with one killed
//     mid-run, so the blocking CI also pins failover determinism and the
//     no-silent-loss law with its migrated bucket in use (a replica death
//     loses zero frames silently).
//   - fleet-3x / fleet-3x-kill1 / fleet-solo-x6: the sharding arm. A
//     near-saturated steady street fleet on 3 replicas of 2 accelerators
//     (healthy, then with replica 1 killed at half-run) against one edge
//     with the equal aggregate worker pool (6 accelerators, 3x the
//     queue). Read kill1 against fleet-3x for the cost of a failure
//     (migrated frames, forced keyframes, survivors pushed into
//     overload) and fleet-3x against fleet-solo-x6 for the cost of
//     sharding itself (no cross-replica work stealing).
//   - tcp-smoke: a small wall-clock-friendly profile for the live targets
//     (scheduler, tcp); also run on sim for cross-target comparison.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "ci-smoke", Sessions: 32, Accelerators: 1, QueueDepth: 16,
			DurationMs: 3000, FPS: 2, Arrival: Steady, Seed: 1,
		},
		{
			Name: "ci-smoke-skip", Sessions: 32, Accelerators: 1, QueueDepth: 16,
			DurationMs: 3000, FPS: 2, Arrival: Steady, Seed: 1,
			KeyframeInterval: 4,
		},
		{
			Name: "steady-light", Sessions: 64, Accelerators: 4, QueueDepth: 32,
			DurationMs: 20000, FPS: 1, Arrival: Steady, Seed: 2,
		},
		{
			Name: "burst-contention-x1", Sessions: 256, Accelerators: 1, QueueDepth: 32,
			DurationMs: 15000, FPS: 1, Arrival: Bursty, Seed: 3,
		},
		{
			Name: "burst-contention-x4", Sessions: 256, Accelerators: 4, QueueDepth: 32,
			DurationMs: 15000, FPS: 1, Arrival: Bursty, Seed: 3,
		},
		{
			Name: "burst-batch-x4", Sessions: 256, Accelerators: 4, QueueDepth: 32,
			DurationMs: 15000, FPS: 1, Arrival: Bursty, Seed: 3,
			MaxBatch: 4, BatchWindowMs: 2,
		},
		{
			Name: "burst-shed-x1", Sessions: 256, Accelerators: 1, QueueDepth: 32,
			DurationMs: 15000, FPS: 1, Arrival: Bursty, Seed: 3,
			ShedPolicy: "latest-wins",
		},
		{
			Name: "fleet-1k", Sessions: 1000, Accelerators: 4, QueueDepth: 64,
			DurationMs: 20000, FPS: 0.5, Arrival: Ramp, RampFactor: 6, Seed: 4,
		},
		{
			Name: "steady-scene-x2", Sessions: 96, Accelerators: 2, QueueDepth: 32,
			DurationMs: 15000, FPS: 1, Arrival: Steady, Seed: 6,
			Clips: []ClipClass{ClipStreet},
		},
		{
			Name: "steady-scene-skip-x2", Sessions: 96, Accelerators: 2, QueueDepth: 32,
			DurationMs: 15000, FPS: 1, Arrival: Steady, Seed: 6,
			Clips:            []ClipClass{ClipStreet},
			KeyframeInterval: 4,
		},
		{
			Name: "ci-smoke-fleet", Sessions: 32, Accelerators: 1, QueueDepth: 16,
			DurationMs: 3000, FPS: 6, Arrival: Steady, Seed: 1,
			KeyframeInterval: 4, Replicas: 3,
			Kills: []ReplicaKill{{Replica: 1, AtMs: 1500}},
		},
		{
			Name: "fleet-3x", Sessions: 240, Accelerators: 2, QueueDepth: 32,
			DurationMs: 15000, FPS: 1, Arrival: Steady, Seed: 8,
			Clips: []ClipClass{ClipStreet}, KeyframeInterval: 4, Replicas: 3,
		},
		{
			Name: "fleet-3x-kill1", Sessions: 240, Accelerators: 2, QueueDepth: 32,
			DurationMs: 15000, FPS: 1, Arrival: Steady, Seed: 8,
			Clips: []ClipClass{ClipStreet}, KeyframeInterval: 4, Replicas: 3,
			Kills: []ReplicaKill{{Replica: 1, AtMs: 7500}},
		},
		{
			Name: "fleet-solo-x6", Sessions: 240, Accelerators: 6, QueueDepth: 96,
			DurationMs: 15000, FPS: 1, Arrival: Steady, Seed: 8,
			Clips: []ClipClass{ClipStreet}, KeyframeInterval: 4,
		},
		{
			Name: "tcp-smoke", Sessions: 12, Accelerators: 2, QueueDepth: 8,
			DurationMs: 1500, FPS: 6, Arrival: Steady, Seed: 5,
		},
	}
}

// ProfileByName looks a profile up in the named suite.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("loadgen: unknown profile %q (try -list)", name)
}
