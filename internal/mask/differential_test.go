package mask

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"edgeis/internal/geom"
)

// Differential tests: every packed kernel must be byte-identical to the
// retained scalar reference (scalar.go), across word-aligned and
// non-word-aligned widths, empty masks, and full masks. The scalar side is
// the pre-rewrite implementation verbatim, so these tests pin the packed
// rewrite to the original semantics bit for bit.

// diffSizes stresses the word layout: widths straddling one/two/many words,
// w mod 64 ∈ {0, 1, 63, other}, and degenerate 1-pixel masks.
var diffSizes = [][2]int{
	{1, 1}, {7, 5}, {63, 9}, {64, 8}, {65, 7}, {128, 4}, {129, 3}, {320, 240}, {100, 1},
}

// randPair builds matching packed and scalar masks with the same pixels.
func randPair(rng *rand.Rand, w, h int, density float64) (*Bitmask, *Scalar) {
	s := NewScalar(w, h)
	for i := range s.Pix {
		if rng.Float64() < density {
			s.Pix[i] = 1
		}
	}
	return s.Packed(), s
}

// requireEqual fails unless the packed mask equals the scalar mask exactly.
func requireEqual(t *testing.T, ctx string, got *Bitmask, want *Scalar) {
	t.Helper()
	if got.Width != want.Width || got.Height != want.Height {
		t.Fatalf("%s: size %dx%d, want %dx%d", ctx, got.Width, got.Height, want.Width, want.Height)
	}
	gb := got.Bytes()
	for i := range gb {
		if gb[i] != want.Pix[i] {
			t.Fatalf("%s: pixel (%d,%d) = %d, want %d",
				ctx, i%want.Width, i/want.Width, gb[i], want.Pix[i])
		}
	}
}

// densities covers empty, sparse, dense and full masks.
var densities = []float64{0, 0.05, 0.5, 0.95, 1}

func TestDifferentialSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sz := range diffSizes {
		for _, d := range densities {
			a, sa := randPair(rng, sz[0], sz[1], d)
			b, sb := randPair(rng, sz[0], sz[1], 0.5)

			u, su := a.Clone(), sa.Clone()
			u.Union(b)
			su.Union(sb)
			requireEqual(t, "Union", u, su)

			n, sn := a.Clone(), sa.Clone()
			n.Intersect(b)
			sn.Intersect(sb)
			requireEqual(t, "Intersect", n, sn)

			m, sm := a.Clone(), sa.Clone()
			m.Subtract(b)
			sm.Subtract(sb)
			requireEqual(t, "Subtract", m, sm)

			if got, want := IoU(a, b), ScalarIoU(sa, sb); got != want {
				t.Fatalf("IoU = %v, want %v (size %v density %v)", got, want, sz, d)
			}
			if got, want := a.Area(), sa.Area(); got != want {
				t.Fatalf("Area = %d, want %d", got, want)
			}
		}
	}
}

func TestDifferentialBoundingBoxAndCenter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, sz := range diffSizes {
		for _, d := range densities {
			a, sa := randPair(rng, sz[0], sz[1], d)
			if got, want := a.BoundingBox(), sa.BoundingBox(); got != want {
				t.Fatalf("BoundingBox = %+v, want %+v (size %v density %v)", got, want, sz, d)
			}
			gc, gok := a.CenterOfMass()
			wc, wok := sa.CenterOfMass()
			if gok != wok || gc != wc {
				t.Fatalf("CenterOfMass = %v,%v want %v,%v", gc, gok, wc, wok)
			}
		}
	}
}

func TestDifferentialMorphology(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sz := range diffSizes {
		for _, d := range densities {
			a, sa := randPair(rng, sz[0], sz[1], d)
			for _, radius := range []int{0, 1, 2, 3} {
				requireEqual(t, "Erode", a.Erode(radius), sa.Erode(radius))
				requireEqual(t, "Dilate", a.Dilate(radius), sa.Dilate(radius))
			}
		}
	}
}

func TestDifferentialTranslate(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	shifts := [][2]int{{0, 0}, {1, 0}, {0, 1}, {-1, -1}, {63, 2}, {-64, 1}, {65, -3}, {1000, 0}, {0, -1000}}
	for _, sz := range diffSizes {
		a, sa := randPair(rng, sz[0], sz[1], 0.4)
		for _, sh := range shifts {
			requireEqual(t, "Translate", a.Translate(sh[0], sh[1]), sa.Translate(sh[0], sh[1]))
		}
	}
}

func TestDifferentialCropPaste(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sz := range diffSizes {
		a, sa := randPair(rng, sz[0], sz[1], 0.4)
		boxes := []Box{
			{MinX: 0, MinY: 0, MaxX: sz[0], MaxY: sz[1]},
			{MinX: 1, MinY: 1, MaxX: sz[0] - 1, MaxY: sz[1] - 1},
			{MinX: -5, MinY: -5, MaxX: sz[0] + 5, MaxY: sz[1] + 5},
			{MinX: sz[0] / 2, MinY: sz[1] / 2, MaxX: sz[0]/2 + 70, MaxY: sz[1]/2 + 3},
			{MinX: 50, MinY: 50, MaxX: 40, MaxY: 40}, // empty
			{MinX: sz[0] + 10, MinY: 0, MaxX: sz[0] + 20, MaxY: 5},
		}
		for _, b := range boxes {
			requireEqual(t, "Crop", a.Crop(b), sa.Crop(b))
		}
		// Paste a random patch at positions crossing every clipping edge,
		// onto a non-empty destination (Paste also copies zeros).
		p, sp := randPair(rng, 66, 9, 0.5)
		for _, at := range [][2]int{{0, 0}, {-3, -2}, {sz[0] - 5, sz[1] - 5}, {1, 1}, {-100, -100}, {63, 0}} {
			dst, sdst := randPair(rng, sz[0], sz[1], 0.3)
			dst.Paste(p, at[0], at[1])
			sdst.Paste(sp, at[0], at[1])
			requireEqual(t, "Paste", dst, sdst)
		}
	}
}

func TestDifferentialScaleAround(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, sz := range diffSizes {
		a, sa := randPair(rng, sz[0], sz[1], 0.4)
		cx, cy := float64(sz[0])/2, float64(sz[1])/2
		for _, sc := range []float64{0, -1, 0.5, 0.9, 1, 1.1, 2} {
			requireEqual(t, "ScaleAround", a.ScaleAround(cx, cy, sc), sa.ScaleAround(cx, cy, sc))
		}
	}
}

func TestDifferentialBoundaryNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, sz := range diffSizes {
		a, sa := randPair(rng, sz[0], sz[1], 0.4)
		for _, target := range []float64{1, 0.9, 0.7, 0.4, 0} {
			// Identical seeds: the packed kernel must consume the rng in
			// exactly the same order as the scalar reference.
			r1 := rand.New(rand.NewSource(99))
			r2 := rand.New(rand.NewSource(99))
			got := a.BoundaryNoise(target, r1.Float64)
			want := sa.BoundaryNoise(target, r2.Float64)
			requireEqual(t, "BoundaryNoise", got, want)
			if r1.Uint64() != r2.Uint64() {
				t.Fatal("BoundaryNoise consumed different rng draw counts")
			}
		}
	}
}

func TestDifferentialFillPolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, sz := range diffSizes {
		for _, nv := range []int{0, 1, 2, 3, 5, 12} {
			verts := make([]geom.Vec2, nv)
			for i := range verts {
				verts[i] = geom.V2(rng.Float64()*float64(sz[0]), rng.Float64()*float64(sz[1]))
			}
			got := FillPolygon(verts, sz[0], sz[1])
			want := ScalarFillPolygon(verts, sz[0], sz[1])
			requireEqual(t, "FillPolygon", got, want)
		}
		// Polygons straddling or entirely outside the mask: transferred
		// contours routinely project partly (or wholly) off-screen.
		w, h := float64(sz[0]), float64(sz[1])
		for _, verts := range [][]geom.Vec2{
			{geom.V2(-w, -h), geom.V2(w/2, -h/2), geom.V2(-w/2, h/2)},
			{geom.V2(0, -3*h), geom.V2(w, -2*h), geom.V2(w/2, -h)},
			{geom.V2(-w/2, h/3), geom.V2(w*1.5, h/4), geom.V2(w/2, h*2)},
		} {
			got := FillPolygon(verts, sz[0], sz[1])
			want := ScalarFillPolygon(verts, sz[0], sz[1])
			requireEqual(t, "FillPolygon off-screen", got, want)
		}
	}
}

// TestDifferentialRuns pins AppendRuns against a scalar reference encoding of
// the byte-per-pixel stream, and FillRuns as its exact inverse — the same
// checks the wire golden makes at 320x240, here across the layout-stressing
// size/density grid.
func TestDifferentialRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sz := range diffSizes {
		for _, d := range densities {
			m, s := randPair(rng, sz[0], sz[1], d)
			got := m.AppendRuns(nil)
			// Scalar reference: run lengths over the flat pixel buffer,
			// alternating starting with zeros.
			want := make([]uint32, 0, len(got))
			cur, run := uint8(0), uint32(0)
			for _, p := range s.Pix {
				if p == cur {
					run++
					continue
				}
				want = append(want, run)
				cur, run = p, 1
			}
			want = append(want, run)
			if len(got) != len(want) {
				t.Fatalf("%dx%d d=%v: %d runs, want %d", sz[0], sz[1], d, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%dx%d d=%v: run[%d] = %d, want %d", sz[0], sz[1], d, i, got[i], want[i])
				}
			}
			back := New(sz[0], sz[1])
			back.FillRuns(got)
			requireEqual(t, "FillRuns", back, s)
			if n := m.RunCount(); n != len(want) {
				t.Fatalf("%dx%d d=%v: RunCount = %d, want %d", sz[0], sz[1], d, n, len(want))
			}
			be := m.AppendRunsBE([]byte{0xAA})
			if len(be) != 1+4*len(want) || be[0] != 0xAA {
				t.Fatalf("%dx%d d=%v: AppendRunsBE wrote %d bytes after the prefix, want %d", sz[0], sz[1], d, len(be)-1, 4*len(want))
			}
			for i, r := range want {
				if got := binary.BigEndian.Uint32(be[1+4*i:]); got != r {
					t.Fatalf("%dx%d d=%v: AppendRunsBE run[%d] = %d, want %d", sz[0], sz[1], d, i, got, r)
				}
			}
		}
	}
}

// requireContours checks ExtractContours and LargestContour against
// ScalarExtractContours point for point: every contour in order, and the
// first longest one simplified at each wire and transfer point budget.
func requireContours(t *testing.T, ctx string, m *Bitmask, s *Scalar, minArea int) {
	t.Helper()
	want := ScalarExtractContours(s, minArea)
	got := ExtractContours(m, minArea)
	if len(got) != len(want) {
		t.Fatalf("%s minArea=%d: %d contours, want %d", ctx, minArea, len(got), len(want))
	}
	for i := range want {
		requireContour(t, fmt.Sprintf("%s minArea=%d contour %d", ctx, minArea, i), got[i], want[i])
	}
	for _, maxPoints := range []int{0, 16, 160} {
		gotL, wantL := LargestContour(m, minArea, maxPoints), wantLargest(want, maxPoints)
		if wantL == nil && gotL != nil {
			t.Fatalf("%s minArea=%d: LargestContour = %d points, want nil", ctx, minArea, len(gotL))
		}
		requireContour(t, fmt.Sprintf("%s minArea=%d LargestContour(%d)", ctx, minArea, maxPoints), gotL, wantL)
	}
}

// wantLargest is what both callers did before LargestContour existed: the
// first longest of the reference contours, simplified, or nil.
func wantLargest(want []Contour, maxPoints int) Contour {
	var longest Contour
	for _, c := range want {
		if len(c) > len(longest) {
			longest = c
		}
	}
	if longest == nil {
		return nil
	}
	return SimplifyContour(longest, maxPoints)
}

func requireContour(t *testing.T, ctx string, got, want Contour) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", ctx, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

// fromRows builds a mask pair from rows of '#' (set) and '.' (clear).
func fromRows(rows ...string) (*Bitmask, *Scalar) {
	s := NewScalar(len(rows[0]), len(rows))
	for y, r := range rows {
		for x, ch := range r {
			if ch == '#' {
				s.Set(x, y)
			}
		}
	}
	return s.Packed(), s
}

// randRects builds a mask pair from n random axis-aligned rectangles, some
// overlapping, some clipped by the frame: object-like shapes with
// concavities and components that meet at corners.
func randRects(rng *rand.Rand, w, h, n int) (*Bitmask, *Scalar) {
	s := NewScalar(w, h)
	for k := 0; k < n; k++ {
		x0, y0 := rng.Intn(w+4)-2, rng.Intn(h+4)-2
		x1, y1 := x0+1+rng.Intn(w/3+1), y0+1+rng.Intn(h/3+1)
		for y := y0; y < y1; y++ {
			for x := x0; x < x1; x++ {
				s.Set(x, y)
			}
		}
	}
	return s.Packed(), s
}

func TestDifferentialContours(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	minAreas := []int{0, 1, 2, 8}
	for _, sz := range diffSizes {
		// Noise makes thousands of components, which the oracle's
		// per-component label rescan makes quadratic; 320x240 takes the
		// object-like fixtures below instead.
		if sz[0]*sz[1] < 320*240 {
			for _, d := range []float64{0, 0.05, 0.3, 0.5, 0.6, 0.95, 1} {
				m, s := randPair(rng, sz[0], sz[1], d)
				for _, a := range minAreas {
					requireContours(t, fmt.Sprintf("%dx%d noise %v", sz[0], sz[1], d), m, s, a)
				}
			}
		}
		for k := 0; k < 8; k++ {
			m, s := randRects(rng, sz[0], sz[1], 1+k)
			for _, a := range minAreas {
				requireContours(t, fmt.Sprintf("%dx%d rects %d", sz[0], sz[1], k), m, s, a)
			}
		}
		m, s := randPair(rng, sz[0], sz[1], 1)
		requireContours(t, fmt.Sprintf("%dx%d full", sz[0], sz[1]), m, s, 1)
		m, s = randPair(rng, sz[0], sz[1], 0)
		s.Set(sz[0]-1, sz[1]-1)
		m.Set(sz[0]-1, sz[1]-1)
		requireContours(t, fmt.Sprintf("%dx%d single pixel", sz[0], sz[1]), m, s, 1)
	}

	for _, fx := range []struct {
		name string
		rows []string
	}{
		// Components that touch only diagonally: a tracer probe sees a set
		// neighbour that belongs to another component.
		{"checkerboard", []string{
			"#.#.#.#",
			".#.#.#.",
			"#.#.#.#",
			".#.#.#.",
		}},
		{"diagonal blocks", []string{
			"###.....",
			"###.....",
			"###.....",
			"...#####",
			"...#####",
			"...#..##",
			"...#####",
		}},
		{"diagonal into concavity", []string{
			"#######",
			"##....#",
			"#.##..#",
			"#.##..#",
			"#.....#",
			"#######",
		}},
		// Components on every border of the frame.
		{"border", []string{
			"##..##",
			"#....#",
			"......",
			"#....#",
			"##..##",
		}},
		// Areas 3, 5, 4 and 5, so minArea 3, 4 and 5 each sit exactly at
		// a component's area.
		{"areas at minArea", []string{
			"###.....#",
			".......##",
			"##......#",
			"##.###..#",
			"....##...",
		}},
		// Two 4x4 squares with equal contour lengths.
		{"ties", []string{
			"..........",
			"....####..",
			"....####..",
			"#...####..",
			"#...####..",
			"..........",
			".....####.",
			".....####.",
			".....####.",
			".....####.",
		}},
		// One-pixel arms: the walk runs out and back along each, so the
		// contour revisits pixels.
		{"thin arms", []string{
			"####.",
			"#....",
			"#....",
			"#....",
		}},
		{"hole", []string{
			".....",
			".###.",
			".#.#.",
			".###.",
		}},
	} {
		m, s := fromRows(fx.rows...)
		for _, a := range []int{0, 1, 3, 4, 5, 6, 16} {
			requireContours(t, fx.name, m, s, a)
		}
	}

	// Ties resolve to the first component in scan order, not merely to a
	// contour of the winning length.
	m, _ := fromRows(
		"........",
		".##..##.",
		".##..##.",
		"........",
	)
	if c := LargestContour(m, 1, 0); c[0] != geom.V2(1, 1) {
		t.Fatalf("tie: LargestContour starts at %v, want (1,1)", c[0])
	}
}

// TestLargestContourConcurrent extracts from several goroutines at once, as
// the server's connection goroutines do. Under -race it checks that pooled
// scratch is never shared between calls.
func TestLargestContourConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	masks := make([]*Bitmask, 8)
	wants := make([]Contour, len(masks))
	for i := range masks {
		m, s := randRects(rng, 96, 64, 1+i)
		masks[i], wants[i] = m, wantLargest(ScalarExtractContours(s, 8), 16)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				i := (g + k) % len(masks)
				if got := LargestContour(masks[i], 8, 16); !slices.Equal(got, wants[i]) {
					t.Errorf("goroutine %d, mask %d: LargestContour differs from the reference", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLargestContourAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop scratch at random")
	}
	m := benchMask(320, 240)
	LargestContour(m, 8, 160) // fill the scratch pool
	if n := testing.AllocsPerRun(100, func() { LargestContour(m, 8, 160) }); n > 1 {
		t.Fatalf("LargestContour allocates %v times per call, want at most 1 (the returned slice)", n)
	}
}

// FuzzPackedKernels drives the same differential checks from the fuzzer so
// CI's fuzz smoke explores sizes and densities the fixed tables miss.
func FuzzPackedKernels(f *testing.F) {
	f.Add(int64(1), uint16(65), uint16(7), uint16(30))
	f.Add(int64(2), uint16(64), uint16(3), uint16(0))
	f.Add(int64(3), uint16(1), uint16(1), uint16(100))
	f.Fuzz(func(t *testing.T, seed int64, w16, h16, dens16 uint16) {
		w := int(w16)%200 + 1
		h := int(h16)%50 + 1
		density := float64(dens16%101) / 100
		rng := rand.New(rand.NewSource(seed))
		a, sa := randPair(rng, w, h, density)
		b, sb := randPair(rng, w, h, 0.5)

		if got, want := IoU(a, b), ScalarIoU(sa, sb); got != want {
			t.Fatalf("IoU = %v, want %v", got, want)
		}
		if got, want := a.BoundingBox(), sa.BoundingBox(); got != want {
			t.Fatalf("BoundingBox = %+v, want %+v", got, want)
		}
		u, su := a.Clone(), sa.Clone()
		u.Union(b)
		su.Union(sb)
		requireEqual(t, "Union", u, su)
		m, sm := a.Clone(), sa.Clone()
		m.Subtract(b)
		sm.Subtract(sb)
		requireEqual(t, "Subtract", m, sm)
		requireEqual(t, "Erode", a.Erode(1), sa.Erode(1))
		requireEqual(t, "Dilate", a.Dilate(1), sa.Dilate(1))
		dx, dy := int(w16%131)-65, int(h16%131)-65
		requireEqual(t, "Translate", a.Translate(dx, dy), sa.Translate(dx, dy))
		rt := New(w, h)
		runs := a.AppendRuns(nil)
		rt.FillRuns(runs)
		requireEqual(t, "Runs round-trip", rt, sa)
		if n := a.RunCount(); n != len(runs) {
			t.Fatalf("RunCount = %d, want %d", n, len(runs))
		}
		be := a.AppendRunsBE(nil)
		if len(be) != 4*len(runs) {
			t.Fatalf("AppendRunsBE wrote %d bytes, want %d", len(be), 4*len(runs))
		}
		for i, r := range runs {
			if binary.BigEndian.Uint32(be[4*i:]) != r {
				t.Fatalf("AppendRunsBE run[%d] differs from AppendRuns", i)
			}
		}
		requireContours(t, "noise", a, sa, int(dens16%10))
		r, sr := randRects(rng, w, h, 1+int(dens16%6))
		requireContours(t, "rects", r, sr, int(dens16%10))
	})
}
