// Command edgeis-loadgen runs the fleet-scale serving load harness
// (internal/loadgen) and writes machine-readable SLO reports.
//
// Three targets share one profile vocabulary:
//
//   - sim: the deterministic virtual-time simulator. Two runs of the same
//     profile produce byte-identical reports; this is what the committed
//     BENCH_serving.json pins.
//   - scheduler: wall-clock sessions against one real in-process
//     edge.Scheduler per replica.
//   - tcp: wall-clock fleet.FleetClients over loopback sockets against one
//     transport.Server per replica (or -addr for one external
//     edgeis-server).
//
// The committed BENCH_serving.json at the repo root is `-suite` output —
// every named profile on the simulator plus the tcp-smoke profile over real
// sockets. Refresh it with
//
//	go run ./cmd/edgeis-loadgen -suite -out BENCH_serving.json
//
// (or `make servingbench`). `-check` replays each simulator run twice and
// fails on any byte difference — the determinism gate CI runs. See
// DESIGN.md §14 for how to read the reports.
//
// Every target runs the edge as a fleet of replicas with rendezvous session
// placement — one replica unless the profile (ci-smoke-fleet, fleet-3x,
// fleet-3x-kill1) shards it — and honours the replica failure schedule.
// -replicas and -kill-at (replica@ms, comma-separated) override both on any
// profile, so one command can answer "what does this workload look like on 3
// replicas if one dies mid-run". See DESIGN.md §18 for the fleet semantics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"edgeis/internal/edge"
	"edgeis/internal/loadgen"
	"edgeis/internal/loadgen/drive"
)

// report is the file schema of BENCH_serving.json.
type report struct {
	GoVersion string         `json:"go_version"`
	GOARCH    string         `json:"goarch"`
	Results   []*loadgen.SLO `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("edgeis-loadgen", flag.ContinueOnError)
	var (
		target    = fs.String("target", "sim", "execution target: sim, scheduler or tcp")
		profile   = fs.String("profile", "", "named profile to run (see -list); empty with -suite runs the committed set")
		list      = fs.Bool("list", false, "list the named profiles and exit")
		suite     = fs.Bool("suite", false, "run every profile on the simulator plus tcp-smoke over sockets")
		check     = fs.Bool("check", false, "run each simulator profile twice and fail unless reports are byte-identical")
		out       = fs.String("out", "-", "output file (- for stdout)")
		timescale = fs.Float64("timescale", 1, "wall targets: wall ms per virtual ms of the generation schedule")
		occupancy = fs.Float64("occupancy", drive.DefaultOccupancy, "wall targets: accelerator hold time as a fraction of nominal inference latency")
		drain     = fs.Duration("drain", drive.DefaultDrainTimeout, "tcp target: in-flight drain deadline after the horizon")
		addr      = fs.String("addr", "", "tcp target: external server address (empty starts one in-process)")
		maxBatch  = fs.Int("max-batch", 0, "override the profile's max frames per accelerator launch (0 = profile value)")
		batchWin  = fs.Float64("batch-window", -1, "override the profile's gather window in virtual ms (-1 = profile value)")
		shedPol   = fs.String("shed-policy", "", "override the profile's admission policy: reject or latest-wins (empty = profile value)")
		keyframe  = fs.Int("keyframe-interval", 0, "override the profile's keyframe interval; N > 1 enables the skip-compute feature cache (0 = profile value)")
		replicas  = fs.Int("replicas", 0, "override the profile's edge replica count; N > 1 shards the edge into a fleet (0 = profile value)")
		killAt    = fs.String("kill-at", "", "replica failure schedule as replica@ms[,replica@ms...], e.g. 1@7500 (replaces the profile's; needs a sharded profile or -replicas)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}

	kills, err := parseKills(*killAt)
	if err != nil {
		return err
	}

	// Policy overrides let one command A/B a profile against the batch
	// former, latest-wins or the skip-compute feature cache without
	// defining a new named arm.
	override := func(p loadgen.Profile) loadgen.Profile {
		if *maxBatch > 0 {
			p.MaxBatch = *maxBatch
		}
		if *batchWin >= 0 {
			p.BatchWindowMs = *batchWin
		}
		if *shedPol != "" {
			p.ShedPolicy = *shedPol
		}
		if *keyframe > 0 {
			p.KeyframeInterval = *keyframe
		}
		if *replicas > 0 {
			p.Replicas = *replicas
		}
		if kills != nil {
			p.Kills = kills
		}
		return p
	}

	if *list {
		for _, p := range loadgen.Profiles() {
			p = p.Normalized()
			fleet := ""
			if p.Sharded() {
				fleet = fmt.Sprintf("  x%d replicas", p.Replicas)
				if len(p.Kills) > 0 {
					fleet += fmt.Sprintf(", %d kill(s)", len(p.Kills))
				}
			}
			fmt.Fprintf(stdout, "%-20s %5d sessions %2d accel queue %3d  %6.1fs @ %.1f fps  %s%s\n",
				p.Name, p.Sessions, p.Accelerators, p.QueueDepth, p.DurationMs/1000, p.FPS, p.Arrival, fleet)
		}
		return nil
	}

	opts := drive.Options{TimeScale: *timescale, Occupancy: *occupancy, DrainTimeout: *drain, Addr: *addr}
	rep := report{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}

	var profiles []loadgen.Profile
	if *profile != "" {
		p, err := loadgen.ProfileByName(*profile)
		if err != nil {
			return err
		}
		profiles = []loadgen.Profile{p}
	} else if *suite || *check {
		profiles = loadgen.Profiles()
	} else {
		return fmt.Errorf("edgeis-loadgen: pick -profile <name>, -suite or -list")
	}

	for _, p := range profiles {
		tgt := *target
		if *suite {
			tgt = "sim"
		}
		slo, err := runOne(tgt, override(p), opts, *check)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, slo)
		fmt.Fprintln(os.Stderr, slo)
	}
	// The suite ends with the smoke profile on real sockets, so the
	// committed report carries one wall-clock row next to the pinned ones.
	if *suite {
		p, err := loadgen.ProfileByName("tcp-smoke")
		if err != nil {
			return err
		}
		start := time.Now() //edgeis:wallclock timing a real socket run for the progress line
		slo, err := drive.RunTCP(override(p), opts)
		if err != nil {
			return err
		}
		elapsed := time.Since(start) //edgeis:wallclock timing a real socket run for the progress line
		fmt.Fprintf(os.Stderr, "%s (%.1fs wall)\n", slo, elapsed.Seconds())
		rep.Results = append(rep.Results, slo)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

// parseKills decodes the -kill-at schedule: comma-separated replica@ms
// entries. An empty flag returns nil, which keeps the profile's own
// schedule; a non-empty flag replaces it wholesale.
func parseKills(spec string) ([]loadgen.ReplicaKill, error) {
	if spec == "" {
		return nil, nil
	}
	var kills []loadgen.ReplicaKill
	for _, entry := range strings.Split(spec, ",") {
		replica, at, ok := strings.Cut(strings.TrimSpace(entry), "@")
		if !ok {
			return nil, fmt.Errorf("edgeis-loadgen: -kill-at entry %q: want replica@ms", entry)
		}
		r, err := strconv.Atoi(replica)
		if err != nil {
			return nil, fmt.Errorf("edgeis-loadgen: -kill-at entry %q: bad replica: %v", entry, err)
		}
		ms, err := strconv.ParseFloat(at, 64)
		if err != nil {
			return nil, fmt.Errorf("edgeis-loadgen: -kill-at entry %q: bad time: %v", entry, err)
		}
		kills = append(kills, loadgen.ReplicaKill{Replica: r, AtMs: ms})
	}
	return kills, nil
}

// runOne executes one profile on one target; with check set, simulator runs
// execute twice and must agree byte for byte. The shed policy name is
// resolved here, before any target runs, so all three refuse an unknown one
// the same way.
func runOne(target string, p loadgen.Profile, opts drive.Options, check bool) (*loadgen.SLO, error) {
	if _, err := edge.AdmissionPolicyByName(p.ShedPolicy); err != nil {
		return nil, err
	}
	var slo *loadgen.SLO
	var err error
	switch target {
	case "sim":
		slo = loadgen.Run(p)
		if check {
			a, _ := json.Marshal(slo)
			b, _ := json.Marshal(loadgen.Run(p))
			if string(a) != string(b) {
				return nil, fmt.Errorf("edgeis-loadgen: %s: two simulator runs differ:\n%s\n%s", p.Name, a, b)
			}
		}
	case "scheduler":
		slo, err = drive.RunScheduler(p, opts)
	case "tcp":
		slo, err = drive.RunTCP(p, opts)
	default:
		return nil, fmt.Errorf("edgeis-loadgen: unknown target %q (want sim, scheduler or tcp)", target)
	}
	if err != nil {
		return nil, err
	}
	if err := slo.Check(); err != nil {
		return nil, err
	}
	return slo, nil
}
