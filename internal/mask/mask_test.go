package mask

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"edgeis/internal/geom"
)

// rect builds a mask with a filled rectangle (exclusive max bounds).
func rect(w, h, x0, y0, x1, y1 int) *Bitmask {
	m := New(w, h)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			m.Set(x, y)
		}
	}
	return m
}

func TestAtSetOutOfBounds(t *testing.T) {
	m := New(4, 4)
	m.Set(-1, 0)
	m.Set(0, -1)
	m.Set(4, 0)
	m.Set(0, 4)
	if !m.Empty() {
		t.Error("out-of-bounds Set modified the mask")
	}
	if m.At(-1, 0) || m.At(4, 4) {
		t.Error("out-of-bounds At returned true")
	}
}

func TestAreaAndEmpty(t *testing.T) {
	m := rect(10, 10, 2, 3, 5, 7)
	if got, want := m.Area(), 3*4; got != want {
		t.Errorf("Area = %d, want %d", got, want)
	}
	if m.Empty() {
		t.Error("non-empty mask reported empty")
	}
	if !New(3, 3).Empty() {
		t.Error("fresh mask not empty")
	}
}

func TestSetOperations(t *testing.T) {
	a := rect(10, 10, 0, 0, 5, 5)
	b := rect(10, 10, 3, 3, 8, 8)

	u := a.Clone()
	u.Union(b)
	if got, want := u.Area(), 25+25-4; got != want {
		t.Errorf("union area = %d, want %d", got, want)
	}

	i := a.Clone()
	i.Intersect(b)
	if got, want := i.Area(), 4; got != want {
		t.Errorf("intersect area = %d, want %d", got, want)
	}

	s := a.Clone()
	s.Subtract(b)
	if got, want := s.Area(), 25-4; got != want {
		t.Errorf("subtract area = %d, want %d", got, want)
	}
}

func TestIoUKnown(t *testing.T) {
	tests := []struct {
		name string
		a, b *Bitmask
		want float64
	}{
		{"identical", rect(10, 10, 0, 0, 5, 5), rect(10, 10, 0, 0, 5, 5), 1},
		{"disjoint", rect(10, 10, 0, 0, 3, 3), rect(10, 10, 5, 5, 8, 8), 0},
		{"half", rect(10, 10, 0, 0, 4, 4), rect(10, 10, 0, 0, 4, 2), 0.5},
		{"both empty", New(10, 10), New(10, 10), 1},
		{"one empty", rect(10, 10, 0, 0, 2, 2), New(10, 10), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := IoU(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("IoU = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestIoUProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randMask := func() *Bitmask {
		m := New(16, 16)
		for i := 0; i < 16*16; i++ {
			if rng.Float64() < 0.3 {
				m.Set(i%16, i/16)
			}
		}
		return m
	}
	for trial := 0; trial < 100; trial++ {
		a, b := randMask(), randMask()
		ab, ba := IoU(a, b), IoU(b, a)
		if ab != ba {
			t.Fatal("IoU not symmetric")
		}
		if ab < 0 || ab > 1 {
			t.Fatalf("IoU out of range: %v", ab)
		}
		if IoU(a, a) != 1 {
			t.Fatal("IoU(a, a) != 1")
		}
	}
}

func TestBoundingBox(t *testing.T) {
	m := rect(20, 20, 3, 4, 10, 12)
	b := m.BoundingBox()
	want := Box{MinX: 3, MinY: 4, MaxX: 10, MaxY: 12}
	if b != want {
		t.Errorf("BoundingBox = %+v, want %+v", b, want)
	}
	if !New(5, 5).BoundingBox().Empty() {
		t.Error("empty mask should give empty box")
	}
}

func TestBoxOperations(t *testing.T) {
	a := Box{0, 0, 10, 10}
	b := Box{5, 5, 15, 15}
	inter := a.Intersect(b)
	if got, want := inter.Area(), 25; got != want {
		t.Errorf("intersect area = %d, want %d", got, want)
	}
	if got := a.IoU(b); math.Abs(got-25.0/175.0) > 1e-12 {
		t.Errorf("box IoU = %v", got)
	}
	u := a.UnionBox(b)
	if u != (Box{0, 0, 15, 15}) {
		t.Errorf("union box = %+v", u)
	}
	if got := a.IoU(Box{20, 20, 30, 30}); got != 0 {
		t.Errorf("disjoint IoU = %v, want 0", got)
	}
}

func TestBoxExpand(t *testing.T) {
	b := Box{5, 5, 10, 10}
	e := b.Expand(3, 12, 12)
	if e != (Box{2, 2, 12, 12}) {
		t.Errorf("Expand = %+v", e)
	}
	if !(Box{}).Expand(3, 100, 100).Empty() {
		t.Error("expanding empty box should stay empty")
	}
}

func TestBoxContains(t *testing.T) {
	b := Box{2, 2, 5, 5}
	if !b.Contains(2, 2) || !b.Contains(4, 4) {
		t.Error("Contains false negative")
	}
	if b.Contains(5, 5) || b.Contains(1, 3) {
		t.Error("Contains false positive")
	}
}

func TestTranslate(t *testing.T) {
	m := rect(10, 10, 2, 2, 5, 5)
	s := m.Translate(3, 3)
	if got := s.BoundingBox(); got != (Box{5, 5, 8, 8}) {
		t.Errorf("translated box = %+v", got)
	}
	// Translation off the edge drops pixels.
	far := m.Translate(8, 8)
	if got := far.Area(); got != 0 {
		t.Errorf("expected all pixels dropped, area = %d", got)
	}
	// IoU with original drops as translation grows — the mechanism that
	// makes motion-vector trackers degrade under parallax.
	if IoU(m, m.Translate(1, 0)) <= IoU(m, m.Translate(3, 0)) {
		t.Error("IoU should decrease with larger translation")
	}
}

func TestErodeDilate(t *testing.T) {
	m := rect(20, 20, 5, 5, 15, 15)
	e := m.Erode(1)
	if got, want := e.Area(), 8*8; got != want {
		t.Errorf("eroded area = %d, want %d", got, want)
	}
	d := m.Dilate(1)
	// 4-neighbour dilation grows a square by a plus-shaped ring.
	if d.Area() <= m.Area() {
		t.Error("dilation did not grow the mask")
	}
	// Erode then dilate is not larger than the original for convex shapes.
	ed := m.Erode(1).Dilate(1)
	diff := ed.Clone()
	diff.Subtract(m)
	if diff.Area() != 0 {
		t.Error("open(mask) exceeded original mask")
	}
}

func TestCenterOfMass(t *testing.T) {
	m := rect(10, 10, 2, 2, 6, 6) // center should be (3.5, 3.5)
	c, ok := m.CenterOfMass()
	if !ok {
		t.Fatal("empty")
	}
	if math.Abs(c.X-3.5) > 1e-12 || math.Abs(c.Y-3.5) > 1e-12 {
		t.Errorf("center = %+v", c)
	}
	if _, ok := New(5, 5).CenterOfMass(); ok {
		t.Error("empty mask should report !ok")
	}
}

func TestBoundaryNoiseTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := rect(64, 64, 16, 16, 48, 48)
	for _, target := range []float64{1.0, 0.95, 0.85, 0.7} {
		noisy := m.BoundaryNoise(target, rng.Float64)
		got := IoU(m, noisy)
		if target >= 1 {
			if got != 1 {
				t.Errorf("target 1.0: IoU = %v", got)
			}
			continue
		}
		// Result should be near (at or slightly below) the target.
		if got > target+0.02 && got != 1 {
			t.Errorf("target %v: IoU %v too high", target, got)
		}
		if got < target-0.25 {
			t.Errorf("target %v: IoU %v overshot far below", target, got)
		}
	}
}

func TestExtractContoursRectangle(t *testing.T) {
	m := rect(20, 20, 5, 5, 10, 10)
	cs := ExtractContours(m, 1)
	if len(cs) != 1 {
		t.Fatalf("got %d contours, want 1", len(cs))
	}
	// Perimeter of a 5x5 square boundary is 16 pixels.
	if got := len(cs[0]); got != 16 {
		t.Errorf("contour length = %d, want 16", got)
	}
	// All contour points are on the mask and on its boundary.
	for _, p := range cs[0] {
		x, y := int(p.X), int(p.Y)
		if !m.At(x, y) {
			t.Fatalf("contour point (%d,%d) off mask", x, y)
		}
		interior := m.At(x-1, y) && m.At(x+1, y) && m.At(x, y-1) && m.At(x, y+1)
		if interior {
			t.Fatalf("contour point (%d,%d) is interior", x, y)
		}
	}
}

func TestExtractContoursMultipleComponents(t *testing.T) {
	m := rect(30, 30, 2, 2, 8, 8)
	m2 := rect(30, 30, 15, 15, 25, 25)
	m.Union(m2)
	cs := ExtractContours(m, 1)
	if len(cs) != 2 {
		t.Fatalf("got %d contours, want 2", len(cs))
	}
}

func TestExtractContoursMinArea(t *testing.T) {
	m := rect(30, 30, 2, 2, 4, 4) // area 4
	m.Set(20, 20)                 // area 1 speck
	cs := ExtractContours(m, 2)
	if len(cs) != 1 {
		t.Fatalf("minArea filter failed: got %d contours", len(cs))
	}
}

func TestExtractContoursSinglePixel(t *testing.T) {
	m := New(10, 10)
	m.Set(5, 5)
	cs := ExtractContours(m, 1)
	if len(cs) != 1 || len(cs[0]) != 1 {
		t.Fatalf("single pixel: %d contours", len(cs))
	}
}

func TestFillPolygonSquare(t *testing.T) {
	// A square polygon covering [2,8) x [2,8).
	poly := []geom.Vec2{geom.V2(2, 2), geom.V2(8, 2), geom.V2(8, 8), geom.V2(2, 8)}
	m := FillPolygon(poly, 12, 12)
	// Interior pixel set, far exterior unset.
	if !m.At(5, 5) {
		t.Error("interior pixel not filled")
	}
	if m.At(10, 10) {
		t.Error("exterior pixel filled")
	}
}

func TestContourFillRoundTrip(t *testing.T) {
	// Extracting a contour and re-filling it should approximately recover
	// the mask — the invariant mask transfer relies on.
	shapes := []*Bitmask{
		rect(40, 40, 10, 10, 30, 30),
		rect(40, 40, 5, 15, 35, 25),
	}
	// An L-shape.
	l := rect(40, 40, 5, 5, 15, 35)
	l.Union(rect(40, 40, 5, 25, 35, 35))
	shapes = append(shapes, l)

	for i, m := range shapes {
		cs := ExtractContours(m, 1)
		if len(cs) != 1 {
			t.Fatalf("shape %d: %d contours", i, len(cs))
		}
		rec := FillPolygon(cs[0], 40, 40)
		if got := IoU(m, rec); got < 0.9 {
			t.Errorf("shape %d: round-trip IoU = %v, want >= 0.9", i, got)
		}
	}
}

func TestSimplifyContour(t *testing.T) {
	m := rect(40, 40, 5, 5, 35, 35)
	c := ExtractContours(m, 1)[0]
	s := SimplifyContour(c, 16)
	if len(s) != 16 {
		t.Fatalf("simplified length = %d", len(s))
	}
	// Refilling the simplified contour still approximates the mask.
	rec := FillPolygon(s, 40, 40)
	if got := IoU(m, rec); got < 0.85 {
		t.Errorf("simplified round-trip IoU = %v", got)
	}
	// No-op when already small.
	if got := SimplifyContour(c, len(c)+5); len(got) != len(c) {
		t.Error("simplify should be a copy when under budget")
	}
}

func TestFillPolygonDegenerate(t *testing.T) {
	m := FillPolygon([]geom.Vec2{geom.V2(3, 3), geom.V2(5, 5)}, 10, 10)
	if m.Area() != 2 {
		t.Errorf("degenerate polygon area = %d, want 2 stamped points", m.Area())
	}
}

func TestTranslateQuickProperty(t *testing.T) {
	// Translating by (dx,dy) then (-dx,-dy) loses only pixels that left the
	// frame; the result is always a subset of the original.
	f := func(dx, dy int8) bool {
		m := rect(16, 16, 4, 4, 12, 12)
		back := m.Translate(int(dx), int(dy)).Translate(-int(dx), -int(dy))
		diff := back.Clone()
		diff.Subtract(m)
		return diff.Area() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Error(err)
	}
}

func TestCropPasteRoundTrip(t *testing.T) {
	m := rect(40, 40, 10, 12, 25, 30)
	b := m.BoundingBox()
	crop := m.Crop(b)
	if crop.Width != b.Width() || crop.Height != b.Height() {
		t.Fatalf("crop size %dx%d", crop.Width, crop.Height)
	}
	if crop.Area() != m.Area() {
		t.Errorf("crop area %d != %d", crop.Area(), m.Area())
	}
	back := New(40, 40)
	back.Paste(crop, b.MinX, b.MinY)
	if IoU(m, back) != 1 {
		t.Error("crop/paste round trip lost pixels")
	}
}

func TestCropClipsToBounds(t *testing.T) {
	m := rect(20, 20, 0, 0, 5, 5)
	crop := m.Crop(Box{MinX: -10, MinY: -10, MaxX: 30, MaxY: 30})
	if crop.Width != 20 || crop.Height != 20 {
		t.Errorf("clipped crop = %dx%d", crop.Width, crop.Height)
	}
	empty := m.Crop(Box{MinX: 100, MinY: 100, MaxX: 120, MaxY: 120})
	if empty.Area() != 0 {
		t.Error("out-of-bounds crop should be empty")
	}
}

func TestPasteClips(t *testing.T) {
	m := New(10, 10)
	src := rect(6, 6, 0, 0, 6, 6)
	m.Paste(src, 7, 7) // mostly off the edge
	if got := m.Area(); got != 9 {
		t.Errorf("clipped paste area = %d, want 9", got)
	}
	m2 := New(10, 10)
	m2.Paste(src, -3, -3)
	if got := m2.Area(); got != 9 {
		t.Errorf("negative-offset paste area = %d, want 9", got)
	}
}

func TestBoundaryNoisePreservesFrame(t *testing.T) {
	// The noisy mask must stay the same frame size and keep roughly the
	// same centroid (the distortion is local to the object).
	m := rect(64, 64, 20, 20, 44, 44)
	noisy := m.BoundaryNoise(0.85, func() float64 { return 0.4 })
	if noisy.Width != 64 || noisy.Height != 64 {
		t.Fatal("frame size changed")
	}
	c0, _ := m.CenterOfMass()
	c1, ok := noisy.CenterOfMass()
	if !ok || c0.DistTo(c1) > 6 {
		t.Errorf("centroid moved %v", c0.DistTo(c1))
	}
}
