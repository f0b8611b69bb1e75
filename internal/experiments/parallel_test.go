package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"edgeis/internal/dataset"
	"edgeis/internal/device"
	"edgeis/internal/netsim"
	"edgeis/internal/parallel"
	"edgeis/internal/pipeline"
)

// withWorkers runs f under a forced pool size, restoring the prior
// configuration afterwards.
func withWorkers(t *testing.T, n int, f func()) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	f()
}

// outcomeFingerprint flattens a RunOutcome (summary row plus the full IoU
// CDF) for exact equality checks.
func outcomeFingerprint(out RunOutcome) string {
	var b strings.Builder
	b.WriteString(out.Acc.Row())
	xs, ys := out.Acc.CDF(21)
	for i := range xs {
		fmt.Fprintf(&b, " (%g,%g)", xs[i], ys[i])
	}
	return b.String()
}

// TestRunClipsParallelMatchesSerial is the cheap determinism check that
// also runs under the race detector: the same clips through the worker
// pool and through a forced serial run must agree exactly.
func TestRunClipsParallelMatchesSerial(t *testing.T) {
	clips := dataset.DAVIS(3, 90)

	var serial, par RunOutcome
	withWorkers(t, 1, func() {
		serial = RunClips(SysEdgeIS, clips, netsim.WiFi5, device.IPhone11, 3)
	})
	withWorkers(t, 4, func() {
		par = RunClips(SysEdgeIS, clips, netsim.WiFi5, device.IPhone11, 3)
	})

	if serial.Stats != par.Stats {
		t.Errorf("stats diverge:\nserial: %+v\nparallel: %+v", serial.Stats, par.Stats)
	}
	if got, want := outcomeFingerprint(par), outcomeFingerprint(serial); got != want {
		t.Errorf("accumulator diverges:\nserial:   %s\nparallel: %s", want, got)
	}
	if serial.Acc.Samples() == 0 {
		t.Error("degenerate run: no scored samples")
	}
}

// TestRunCustomClipsMatchesRunClips pins the refactor: the generic runner
// with the standard constructor is the same computation as RunClips.
func TestRunCustomClipsMatchesRunClips(t *testing.T) {
	clips := dataset.DAVIS(5, 80)
	cam := EvalCamera()
	direct := RunClips(SysEAAR, clips, netsim.WiFi5, device.IPhone11, 5)
	custom := RunCustomClips(SysEAAR.String(), clips, netsim.WiFi5, 5, func(cfgSeed int64) pipeline.Strategy {
		return NewStrategy(SysEAAR, cam, device.IPhone11, cfgSeed)
	})
	if direct.Stats != custom.Stats || direct.Acc.Row() != custom.Acc.Row() {
		t.Errorf("custom runner diverges from RunClips:\n%s\n%s", direct.Acc.Row(), custom.Acc.Row())
	}
}

// TestParallelSpeedup checks the point of the pool: with >= 4 cores the
// parallel sweep must beat a forced serial run. The 2x acceptance target is
// asserted conservatively at 1.5x to stay robust on loaded CI machines.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test is long")
	}
	if raceEnabled {
		t.Skip("timings are meaningless under the race detector")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need >= 4 cores, have %d", runtime.NumCPU())
	}
	const seed, frames = 7, 90

	measure := func(workers int) time.Duration {
		var d time.Duration
		withWorkers(t, workers, func() {
			start := time.Now()
			Fig9(seed, frames)
			d = time.Since(start)
		})
		return d
	}
	measure(1) // warm caches so the comparison is fair
	serial := measure(1)
	par := measure(0) // all cores
	speedup := float64(serial) / float64(par)
	t.Logf("serial %v, parallel %v, speedup %.2fx on %d cores", serial, par, speedup, runtime.NumCPU())
	if speedup < 1.5 {
		t.Errorf("parallel runner speedup %.2fx below 1.5x on %d cores", speedup, runtime.NumCPU())
	}
}
