package mask

import (
	"math"
	"sort"

	"edgeis/internal/geom"
)

// Scalar is the byte-per-pixel mask representation this package used before
// the word-packed rewrite, retained verbatim as the reference
// implementation. It exists so differential tests (and the kernel benchmark
// harness) can pin every packed kernel byte-identical to the original
// per-pixel loops — including rng draw order in ScalarBoundaryNoise — and
// so the speedup numbers in BENCH_kernels.json always compare against the
// real predecessor rather than a strawman. It is not used on any production
// path.
type Scalar struct {
	Width, Height int
	Pix           []uint8
}

// NewScalar returns an all-zero scalar mask of the given size.
func NewScalar(width, height int) *Scalar {
	return &Scalar{Width: width, Height: height, Pix: make([]uint8, width*height)}
}

// ToScalar unpacks a packed mask into the scalar representation.
func (m *Bitmask) ToScalar() *Scalar {
	return &Scalar{Width: m.Width, Height: m.Height, Pix: m.Bytes()}
}

// Packed packs a scalar mask into the production representation.
func (s *Scalar) Packed() *Bitmask { return FromBytes(s.Width, s.Height, s.Pix) }

// Clone returns a deep copy of s.
func (s *Scalar) Clone() *Scalar {
	out := NewScalar(s.Width, s.Height)
	copy(out.Pix, s.Pix)
	return out
}

// At reports whether pixel (x, y) is set. Out-of-bounds reads return false.
func (s *Scalar) At(x, y int) bool {
	if x < 0 || y < 0 || x >= s.Width || y >= s.Height {
		return false
	}
	return s.Pix[y*s.Width+x] != 0
}

// Set sets pixel (x, y); out-of-bounds writes are ignored.
func (s *Scalar) Set(x, y int) {
	if x < 0 || y < 0 || x >= s.Width || y >= s.Height {
		return
	}
	s.Pix[y*s.Width+x] = 1
}

// Clear zeroes pixel (x, y); out-of-bounds writes are ignored.
func (s *Scalar) Clear(x, y int) {
	if x < 0 || y < 0 || x >= s.Width || y >= s.Height {
		return
	}
	s.Pix[y*s.Width+x] = 0
}

// Area returns the number of set pixels.
func (s *Scalar) Area() int {
	n := 0
	for _, p := range s.Pix {
		if p != 0 {
			n++
		}
	}
	return n
}

// Union ORs other into s in place. Sizes must match.
func (s *Scalar) Union(other *Scalar) {
	for i, p := range other.Pix {
		if p != 0 {
			s.Pix[i] = 1
		}
	}
}

// Intersect ANDs other into s in place. Sizes must match.
func (s *Scalar) Intersect(other *Scalar) {
	for i := range s.Pix {
		s.Pix[i] &= other.Pix[i]
	}
}

// Subtract clears every pixel of s that is set in other. Sizes must match.
func (s *Scalar) Subtract(other *Scalar) {
	for i, p := range other.Pix {
		if p != 0 {
			s.Pix[i] = 0
		}
	}
}

// ScalarIoU is the per-pixel reference for IoU.
func ScalarIoU(a, b *Scalar) float64 {
	inter, union := 0, 0
	for i := range a.Pix {
		av, bv := a.Pix[i] != 0, b.Pix[i] != 0
		if av && bv {
			inter++
		}
		if av || bv {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// BoundingBox returns the tight bounding box of the set pixels.
func (s *Scalar) BoundingBox() Box {
	b := Box{MinX: s.Width, MinY: s.Height, MaxX: 0, MaxY: 0}
	found := false
	for y := 0; y < s.Height; y++ {
		row := s.Pix[y*s.Width : (y+1)*s.Width]
		for x, p := range row {
			if p == 0 {
				continue
			}
			found = true
			if x < b.MinX {
				b.MinX = x
			}
			if x+1 > b.MaxX {
				b.MaxX = x + 1
			}
			if y < b.MinY {
				b.MinY = y
			}
			if y+1 > b.MaxY {
				b.MaxY = y + 1
			}
		}
	}
	if !found {
		return Box{}
	}
	return b
}

// CenterOfMass returns the centroid of the set pixels, or ok=false for an
// empty mask.
func (s *Scalar) CenterOfMass() (geom.Vec2, bool) {
	var sx, sy float64
	n := 0
	for y := 0; y < s.Height; y++ {
		for x := 0; x < s.Width; x++ {
			if s.Pix[y*s.Width+x] != 0 {
				sx += float64(x)
				sy += float64(y)
				n++
			}
		}
	}
	if n == 0 {
		return geom.Vec2{}, false
	}
	return geom.V2(sx/float64(n), sy/float64(n)), true
}

// Translate returns a copy of s shifted by (dx, dy); pixels shifted outside
// the image are dropped.
func (s *Scalar) Translate(dx, dy int) *Scalar {
	out := NewScalar(s.Width, s.Height)
	for y := 0; y < s.Height; y++ {
		ny := y + dy
		if ny < 0 || ny >= s.Height {
			continue
		}
		for x := 0; x < s.Width; x++ {
			if s.Pix[y*s.Width+x] == 0 {
				continue
			}
			nx := x + dx
			if nx < 0 || nx >= s.Width {
				continue
			}
			out.Pix[ny*s.Width+nx] = 1
		}
	}
	return out
}

// Erode removes set pixels that have any unset 4-neighbour, radius times.
func (s *Scalar) Erode(radius int) *Scalar {
	cur := s.Clone()
	for r := 0; r < radius; r++ {
		next := cur.Clone()
		for y := 0; y < cur.Height; y++ {
			for x := 0; x < cur.Width; x++ {
				if !cur.At(x, y) {
					continue
				}
				if !cur.At(x-1, y) || !cur.At(x+1, y) || !cur.At(x, y-1) || !cur.At(x, y+1) {
					next.Clear(x, y)
				}
			}
		}
		cur = next
	}
	return cur
}

// Dilate sets unset pixels that have any set 4-neighbour, radius times.
func (s *Scalar) Dilate(radius int) *Scalar {
	cur := s.Clone()
	for r := 0; r < radius; r++ {
		next := cur.Clone()
		for y := 0; y < cur.Height; y++ {
			for x := 0; x < cur.Width; x++ {
				if cur.At(x, y) {
					continue
				}
				if cur.At(x-1, y) || cur.At(x+1, y) || cur.At(x, y-1) || cur.At(x, y+1) {
					next.Set(x, y)
				}
			}
		}
		cur = next
	}
	return cur
}

// Crop returns the sub-mask covered by the box (clipped to bounds).
func (s *Scalar) Crop(b Box) *Scalar {
	b = b.Intersect(Box{MinX: 0, MinY: 0, MaxX: s.Width, MaxY: s.Height})
	if b.Empty() {
		return NewScalar(1, 1)
	}
	out := NewScalar(b.Width(), b.Height())
	for y := 0; y < out.Height; y++ {
		srcRow := s.Pix[(b.MinY+y)*s.Width+b.MinX:]
		copy(out.Pix[y*out.Width:(y+1)*out.Width], srcRow[:out.Width])
	}
	return out
}

// Paste copies src into s with its top-left corner at (x, y); out-of-bounds
// parts are clipped.
func (s *Scalar) Paste(src *Scalar, x, y int) {
	for sy := 0; sy < src.Height; sy++ {
		dy := y + sy
		if dy < 0 || dy >= s.Height {
			continue
		}
		for sx := 0; sx < src.Width; sx++ {
			dx := x + sx
			if dx < 0 || dx >= s.Width {
				continue
			}
			s.Pix[dy*s.Width+dx] = src.Pix[sy*src.Width+sx]
		}
	}
}

// ScaleAround returns a copy of s scaled by the factor about the given
// center using inverse nearest-neighbour mapping.
func (s *Scalar) ScaleAround(cx, cy, scale float64) *Scalar {
	out := NewScalar(s.Width, s.Height)
	if scale <= 0 {
		return out
	}
	inv := 1 / scale
	for y := 0; y < s.Height; y++ {
		for x := 0; x < s.Width; x++ {
			sx := cx + (float64(x)-cx)*inv
			sy := cy + (float64(y)-cy)*inv
			if s.At(int(math.Round(sx)), int(math.Round(sy))) {
				out.Pix[y*s.Width+x] = 1
			}
		}
	}
	return out
}

// BoundaryNoise is the per-pixel reference for Bitmask.BoundaryNoise,
// consuming the rng in the same order.
func (s *Scalar) BoundaryNoise(targetIoU float64, rng func() float64) *Scalar {
	if targetIoU >= 1 {
		return s.Clone()
	}
	if targetIoU < 0 {
		targetIoU = 0
	}
	bbox := s.BoundingBox()
	if bbox.Empty() {
		return s.Clone()
	}
	work := bbox.Expand(8, s.Width, s.Height)
	ref := s.Crop(work)
	out := ref.Clone()
	for iter := 0; iter < 64; iter++ {
		if ScalarIoU(ref, out) <= targetIoU {
			break
		}
		var band *Scalar
		if rng() < 0.5 {
			band = out.Erode(1)
		} else {
			band = out.Dilate(1)
		}
		for i := range band.Pix {
			if band.Pix[i] != out.Pix[i] && rng() < 0.5 {
				out.Pix[i] = band.Pix[i]
			}
		}
	}
	full := NewScalar(s.Width, s.Height)
	full.Paste(out, work.MinX, work.MinY)
	return full
}

// ScalarExtractContours is the reference for ExtractContours and
// LargestContour: the original full-frame flood-fill labelling and
// per-component Moore trace, contour for contour and point for point.
func ScalarExtractContours(s *Scalar, minArea int) []Contour {
	var contours []Contour
	labels := s.connectedComponents()
	seen := make(map[int]bool)
	for y := 0; y < s.Height; y++ {
		for x := 0; x < s.Width; x++ {
			lbl := labels[y*s.Width+x]
			if lbl == 0 || seen[lbl] {
				continue
			}
			seen[lbl] = true
			// (x, y) is the top-left-most pixel of this component in scan
			// order, a valid Moore-trace start.
			c := s.traceBoundary(labels, lbl, x, y)
			if scalarComponentArea(labels, lbl) >= minArea && len(c) > 0 {
				contours = append(contours, c)
			}
		}
	}
	return contours
}

// connectedComponents labels 4-connected components starting at 1, in scan
// order of each component's first pixel, by flood fill.
func (s *Scalar) connectedComponents() []int {
	labels := make([]int, s.Width*s.Height)
	next := 0
	var stack [][2]int
	for y := 0; y < s.Height; y++ {
		for x := 0; x < s.Width; x++ {
			if !s.At(x, y) || labels[y*s.Width+x] != 0 {
				continue
			}
			next++
			stack = stack[:0]
			stack = append(stack, [2]int{x, y})
			labels[y*s.Width+x] = next
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := p[0]+d[0], p[1]+d[1]
					if !s.At(nx, ny) {
						continue
					}
					idx := ny*s.Width + nx
					if labels[idx] == 0 {
						labels[idx] = next
						stack = append(stack, [2]int{nx, ny})
					}
				}
			}
		}
	}
	return labels
}

func scalarComponentArea(labels []int, lbl int) int {
	n := 0
	for _, l := range labels {
		if l == lbl {
			n++
		}
	}
	return n
}

// traceBoundary walks the outer boundary of component lbl starting from its
// scan-order-first pixel. dir encodes the direction of the last move as an
// index into mooreOffsets; the next scan starts one past the backtrack
// neighbour, clockwise. The walk stops at the first re-entry into the start
// pixel once the contour holds two points, with no direction check.
func (s *Scalar) traceBoundary(labels []int, lbl, sx, sy int) Contour {
	inComp := func(x, y int) bool {
		if x < 0 || y < 0 || x >= s.Width || y >= s.Height {
			return false
		}
		return labels[y*s.Width+x] == lbl
	}

	contour := Contour{geom.V2(float64(sx), float64(sy))}

	// Single-pixel component.
	single := true
	for _, d := range mooreOffsets {
		if inComp(sx+d[0], sy+d[1]) {
			single = false
			break
		}
	}
	if single {
		return contour
	}

	cx, cy := sx, sy
	// Scan order guarantees the west neighbour of the start pixel is
	// outside the component, so pretend we arrived moving east.
	const east = 4
	dir := east

	maxSteps := 8 * s.Width * s.Height
	for step := 0; step < maxSteps; step++ {
		found := false
		start := (dir + 5) % 8 // one past the backtrack neighbour
		for i := 0; i < 8; i++ {
			d := (start + i) % 8
			nx, ny := cx+mooreOffsets[d][0], cy+mooreOffsets[d][1]
			if inComp(nx, ny) {
				cx, cy, dir = nx, ny, d
				found = true
				break
			}
		}
		if !found {
			break
		}
		if cx == sx && cy == sy && len(contour) >= 2 {
			break // boundary closed
		}
		contour = append(contour, geom.V2(float64(cx), float64(cy)))
	}
	return contour
}

// ScalarFillPolygon is the per-pixel reference for FillPolygon.
func ScalarFillPolygon(vertices []geom.Vec2, width, height int) *Scalar {
	out := NewScalar(width, height)
	if len(vertices) < 3 {
		for _, v := range vertices {
			out.Set(int(math.Round(v.X)), int(math.Round(v.Y)))
		}
		return out
	}

	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, v := range vertices {
		minY = math.Min(minY, v.Y)
		maxY = math.Max(maxY, v.Y)
	}
	y0 := max(0, int(math.Floor(minY)))
	y1 := min(height-1, int(math.Ceil(maxY)))

	xs := make([]float64, 0, 16)
	for y := y0; y <= y1; y++ {
		fy := float64(y) + 0.5
		xs = xs[:0]
		for i := range vertices {
			a := vertices[i]
			b := vertices[(i+1)%len(vertices)]
			if (a.Y <= fy) == (b.Y <= fy) {
				continue
			}
			t := (fy - a.Y) / (b.Y - a.Y)
			xs = append(xs, a.X+t*(b.X-a.X))
		}
		sort.Float64s(xs)
		for i := 0; i+1 < len(xs); i += 2 {
			xa := max(0, int(math.Ceil(xs[i]-0.5)))
			xb := min(width-1, int(math.Floor(xs[i+1]-0.5)))
			for x := xa; x <= xb; x++ {
				out.Pix[y*width+x] = 1
			}
		}
	}
	for _, v := range vertices {
		x, y := int(math.Round(v.X)), int(math.Round(v.Y))
		out.Set(x, y)
	}
	return out
}
