// Command edgeis-kernelbench measures the word-packed mask kernels against
// the retained scalar reference implementation (internal/mask/scalar.go) at
// the paper's working resolutions, and writes the results as JSON.
//
// Every kernel is differentially verified against the scalar reference
// before it is timed, so a reported speedup is always a speedup of the same
// computation. The committed BENCH_kernels.json at the repo root is this
// command's output on the reference machine; re-run with
//
//	go run ./cmd/edgeis-kernelbench -out BENCH_kernels.json
//
// (or `make bench`) to refresh it. See DESIGN.md §12 for how to read the
// numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"time"

	"edgeis/internal/geom"
	"edgeis/internal/mask"
)

// resolution is one benchmarked mask size.
type resolution struct{ W, H int }

// paper resolutions: the mobile pipeline tracks at QVGA-class sizes and the
// edge model consumes VGA-class frames.
var resolutions = []resolution{{320, 240}, {640, 480}}

// result is one kernel × resolution measurement.
type result struct {
	Kernel     string  `json:"kernel"`
	Resolution string  `json:"resolution"`
	PackedNs   float64 `json:"packed_ns_op"`
	ScalarNs   float64 `json:"scalar_ns_op"`
	Speedup    float64 `json:"speedup"`
}

// report is the file schema of BENCH_kernels.json.
type report struct {
	GoVersion string   `json:"go_version"`
	GOARCH    string   `json:"goarch"`
	Benchtime string   `json:"benchtime_per_op"`
	Results   []result `json:"results"`
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		out       = flag.String("out", "BENCH_kernels.json", "output file (- for stdout)")
		benchtime = flag.Duration("benchtime", 200*time.Millisecond, "minimum measuring time per kernel per implementation")
	)
	flag.Parse()

	rep := report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime.String(),
	}
	for _, res := range resolutions {
		for _, c := range kernelCases(res.W, res.H) {
			if err := c.verify(); err != nil {
				return fmt.Errorf("%s %dx%d: differential check failed: %v", c.name, res.W, res.H, err)
			}
			packed := timeOp(*benchtime, c.packed)
			scalar := timeOp(*benchtime, c.scalar)
			rep.Results = append(rep.Results, result{
				Kernel:     c.name,
				Resolution: fmt.Sprintf("%dx%d", res.W, res.H),
				PackedNs:   round1(packed),
				ScalarNs:   round1(scalar),
				Speedup:    round1(scalar / packed),
			})
			fmt.Fprintf(os.Stderr, "%-15s %4dx%-4d packed %10.1f ns/op  scalar %10.1f ns/op  %6.1fx\n",
				c.name, res.W, res.H, packed, scalar, scalar/packed)
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

// timeOp measures one operation's mean latency by growing the batch size
// until the batch runs for at least d, testing.B-style, so per-iteration
// clock reads never pollute sub-microsecond kernels.
func timeOp(d time.Duration, op func()) float64 {
	op() // warm caches and one-time lazy work before measuring
	n := 1
	for {
		start := time.Now() //edgeis:wallclock benchmark harness measures real kernel latency
		for i := 0; i < n; i++ {
			op()
		}
		elapsed := time.Since(start) //edgeis:wallclock benchmark harness measures real kernel latency
		if elapsed >= d {
			return float64(elapsed.Nanoseconds()) / float64(n)
		}
		// Grow toward the target with headroom, capped at 100x per round.
		next := 100 * n
		if elapsed > 0 {
			if est := int(float64(n) * 1.5 * float64(d) / float64(elapsed)); est < next {
				next = est
			}
		}
		if next <= n {
			next = n + 1
		}
		n = next
	}
}

func round1(v float64) float64 {
	return float64(int64(v*10+0.5)) / 10
}

// kernelCase pairs a packed kernel with its scalar reference: packed and
// scalar run the same computation on identical fixtures, verify checks they
// agree before any timing happens.
type kernelCase struct {
	name   string
	packed func()
	scalar func()
	verify func() error
}

// fixtures builds the shared packed/scalar operand pair: a centered solid
// rectangle (the shape cached instance masks approximate) and a translated
// copy, plus the polygon the tracking hot path actually rasterizes — a
// traced contour simplified to the predictor's 160-point contour budget.
func fixtures(w, h int) (a, b *mask.Bitmask, sa, sb *mask.Scalar, poly []geom.Vec2) {
	sa = mask.NewScalar(w, h)
	for y := h / 4; y < 3*h/4; y++ {
		for x := w / 4; x < 3*w/4; x++ {
			sa.Set(x, y)
		}
	}
	a = sa.Packed()
	b = a.Translate(5, 3)
	sb = sa.Translate(5, 3)
	poly = mask.LargestContour(a, 8, 160)
	return
}

// sameMask reports whether a packed and a scalar mask hold identical pixels.
func sameMask(m *mask.Bitmask, s *mask.Scalar) error {
	if m.Width != s.Width || m.Height != s.Height {
		return fmt.Errorf("size %dx%d vs %dx%d", m.Width, m.Height, s.Width, s.Height)
	}
	pix := m.Bytes()
	for i := range pix {
		if pix[i] != s.Pix[i] {
			return fmt.Errorf("pixel (%d,%d) differs", i%s.Width, i/s.Width)
		}
	}
	return nil
}

func kernelCases(w, h int) []kernelCase {
	a, b, sa, sb, poly := fixtures(w, h)
	var sinkF float64
	var sinkI int
	var sinkB mask.Box
	_ = sinkF
	_ = sinkI
	_ = sinkB
	cropBox := a.BoundingBox()
	// Set-op accumulators: Union/Intersect/Subtract run in place on these,
	// so the timed loop holds no clone and the shared fixtures never drift.
	// Re-applying the same operand does identical word-wise work every
	// iteration regardless of accumulator content.
	ua, sua := a.Clone(), sa.Clone()
	ia, sia := a.Clone(), sa.Clone()
	da, sda := a.Clone(), sa.Clone()
	return []kernelCase{
		{
			name:   "IoU",
			packed: func() { sinkF = mask.IoU(a, b) },
			scalar: func() { sinkF = mask.ScalarIoU(sa, sb) },
			verify: func() error {
				if p, s := mask.IoU(a, b), mask.ScalarIoU(sa, sb); p != s {
					return fmt.Errorf("IoU %v vs %v", p, s)
				}
				return nil
			},
		},
		{
			name:   "Area",
			packed: func() { sinkI = a.Area() },
			scalar: func() { sinkI = sa.Area() },
			verify: func() error {
				if p, s := a.Area(), sa.Area(); p != s {
					return fmt.Errorf("Area %d vs %d", p, s)
				}
				return nil
			},
		},
		{
			name:   "Union",
			packed: func() { ua.Union(b) },
			scalar: func() { sua.Union(sb) },
			verify: func() error {
				p, s := a.Clone(), sa.Clone()
				p.Union(b)
				s.Union(sb)
				return sameMask(p, s)
			},
		},
		{
			name:   "Intersect",
			packed: func() { ia.Intersect(b) },
			scalar: func() { sia.Intersect(sb) },
			verify: func() error {
				p, s := a.Clone(), sa.Clone()
				p.Intersect(b)
				s.Intersect(sb)
				return sameMask(p, s)
			},
		},
		{
			name:   "Subtract",
			packed: func() { da.Subtract(b) },
			scalar: func() { sda.Subtract(sb) },
			verify: func() error {
				p, s := a.Clone(), sa.Clone()
				p.Subtract(b)
				s.Subtract(sb)
				return sameMask(p, s)
			},
		},
		{
			name:   "BoundingBox",
			packed: func() { sinkB = a.BoundingBox() },
			scalar: func() { sinkB = sa.BoundingBox() },
			verify: func() error {
				if p, s := a.BoundingBox(), sa.BoundingBox(); p != s {
					return fmt.Errorf("BoundingBox %+v vs %+v", p, s)
				}
				return nil
			},
		},
		{
			name:   "Erode",
			packed: func() { a.Erode(1) },
			scalar: func() { sa.Erode(1) },
			verify: func() error { return sameMask(a.Erode(1), sa.Erode(1)) },
		},
		{
			name:   "Dilate",
			packed: func() { a.Dilate(1) },
			scalar: func() { sa.Dilate(1) },
			verify: func() error { return sameMask(a.Dilate(1), sa.Dilate(1)) },
		},
		{
			name:   "Translate",
			packed: func() { a.Translate(5, 3) },
			scalar: func() { sa.Translate(5, 3) },
			verify: func() error { return sameMask(a.Translate(5, 3), sa.Translate(5, 3)) },
		},
		{
			name:   "Crop",
			packed: func() { a.Crop(cropBox) },
			scalar: func() { sa.Crop(cropBox) },
			verify: func() error { return sameMask(a.Crop(cropBox), sa.Crop(cropBox)) },
		},
		{
			name: "Paste",
			packed: func() {
				dst := mask.New(w, h)
				dst.Paste(b, 2, 2)
			},
			scalar: func() {
				dst := mask.NewScalar(w, h)
				dst.Paste(sb, 2, 2)
			},
			verify: func() error {
				p := mask.New(w, h)
				p.Paste(b, 2, 2)
				s := mask.NewScalar(w, h)
				s.Paste(sb, 2, 2)
				return sameMask(p, s)
			},
		},
		{
			name:   "ExtractContours",
			packed: func() { mask.ExtractContours(a, 8) },
			scalar: func() { mask.ScalarExtractContours(sa, 8) },
			verify: func() error {
				if !slices.EqualFunc(mask.ExtractContours(a, 8), mask.ScalarExtractContours(sa, 8), slices.Equal[mask.Contour]) {
					return fmt.Errorf("contours differ")
				}
				return nil
			},
		},
		{
			name:   "FillPolygon",
			packed: func() { mask.FillPolygon(poly, w, h) },
			scalar: func() { mask.ScalarFillPolygon(poly, w, h) },
			verify: func() error { return sameMask(mask.FillPolygon(poly, w, h), mask.ScalarFillPolygon(poly, w, h)) },
		},
	}
}
