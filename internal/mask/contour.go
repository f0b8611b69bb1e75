package mask

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"edgeis/internal/geom"
)

// Contour is an ordered list of boundary pixels of a mask region, the
// representation Section III-C extracts with findContours: "a list of
// connected pixels".
type Contour []geom.Vec2

// ExtractContours traces the outer boundary of every 4-connected component
// of the mask with Moore-neighbour tracing — the boundary lists OpenCV's
// findContours produces in RETR_EXTERNAL mode. Components are returned in
// scan order of their first pixel; components smaller than minArea pixels
// are skipped. ScalarExtractContours is the reference it is pinned to.
func ExtractContours(m *Bitmask, minArea int) []Contour {
	s := labelComponents(m)
	defer contourScratchPool.Put(s)
	var contours []Contour
	for i := range s.runs {
		if s.traced(i, minArea) {
			contours = append(contours, slices.Clone(s.trace(m, i)))
		}
	}
	return contours
}

// LargestContour returns the longest contour ExtractContours would return,
// simplified to at most maxPoints vertices (SimplifyContour), or nil when
// no component reaches minArea. Among equally long contours the first in
// scan order wins. Only the winner is copied out: the returned slice is the
// call's one allocation.
func LargestContour(m *Bitmask, minArea, maxPoints int) Contour {
	s := labelComponents(m)
	defer contourScratchPool.Put(s)
	var best Contour
	for i := range s.runs {
		if !s.traced(i, minArea) {
			continue
		}
		if c := s.trace(m, i); len(c) > len(best) {
			// Keep the winner out of the buffer the next trace writes.
			s.cur, s.best = s.best, s.cur
			best = c
		}
	}
	if best == nil {
		return nil
	}
	return SimplifyContour(best, maxPoints)
}

// pixelRun is one maximal horizontal run of set pixels and its node in the
// union-find forest over 4-connected runs.
type pixelRun struct {
	y, x0, x1 int // pixels [x0, x1) of row y
	parent    int // a lower run index, or the run's own index at a root
	area      int // the run's length; after labelling, the component's area at a root
}

// contourScratch is the working set of one contour extraction: the runs,
// the label plane and two trace buffers. Extraction runs on concurrent
// connection goroutines whose callers hold no mask.Pool, so scratch is
// recycled through a sync.Pool and never escapes a call.
type contourScratch struct {
	runs []pixelRun
	// labels is the bounding box plus a one-pixel border, holding root+1
	// for each set pixel and 0 elsewhere. A set neighbour that touches a
	// component only diagonally belongs to another one, so membership is
	// a label compare, not a bit test.
	labels    []int32
	box       Box
	stride    int
	cur, best Contour
}

var contourScratchPool = sync.Pool{New: func() any { return new(contourScratch) }}

// labelComponents splits m's rows into runs and unions each run with the
// runs it overlaps in the row above. The lower index always becomes the
// root, so a component's root is its scan-order-first run and the root's
// (x0, y) is the component's first pixel in scan order.
func labelComponents(m *Bitmask) *contourScratch {
	s := contourScratchPool.Get().(*contourScratch)
	s.runs, s.labels = s.runs[:0], s.labels[:0]
	s.box = m.BoundingBox()
	prev0, prev1 := 0, 0 // runs of row y-1
	for y := s.box.MinY; y < s.box.MaxY; y++ {
		cur0 := len(s.runs)
		s.appendRowRuns(m.row(y), y)
		cur1 := len(s.runs)
		for i, j := prev0, cur0; i < prev1 && j < cur1; {
			a, b := &s.runs[i], &s.runs[j]
			if a.x1 > b.x0 && b.x1 > a.x0 {
				s.union(i, j)
			}
			if a.x1 < b.x1 {
				i++
			} else {
				j++
			}
		}
		prev0, prev1 = cur0, cur1
	}
	// Parents precede children, so one pass in index order points every
	// run at its root and sums component areas.
	for i := range s.runs {
		r := &s.runs[i]
		r.parent = s.runs[r.parent].parent
		if r.parent != i {
			s.runs[r.parent].area += r.area
		}
	}
	s.stride = s.box.Width() + 2
	n := s.stride * (s.box.Height() + 2)
	if cap(s.labels) < n {
		s.labels = make([]int32, n)
	} else {
		s.labels = s.labels[:n]
		clear(s.labels)
	}
	for _, r := range s.runs {
		row := s.labels[s.labelIndex(r.x0, r.y):][:r.x1-r.x0]
		for k := range row {
			row[k] = int32(r.parent + 1)
		}
	}
	return s
}

// appendRowRuns appends the runs of set pixels of row y inside the bounding
// box, jumping between run ends with trailing-zero counts of the words and
// their complements. No set bit lies at or beyond box.MaxX, so a run never
// needs clipping.
func (s *contourScratch) appendRowRuns(row []uint64, y int) {
	for x := s.box.MinX; x < s.box.MaxX; {
		w := row[x>>6] >> uint(x&63)
		if w == 0 {
			x = (x>>6 + 1) << 6
			continue
		}
		x += bits.TrailingZeros64(w)
		x0 := x
		for x < s.box.MaxX {
			w = ^row[x>>6] >> uint(x&63)
			if w == 0 {
				x = (x>>6 + 1) << 6
				continue
			}
			x += bits.TrailingZeros64(w)
			break
		}
		s.runs = append(s.runs, pixelRun{y: y, x0: x0, x1: x, parent: len(s.runs), area: x - x0})
	}
}

func (s *contourScratch) find(i int) int {
	for {
		p := s.runs[i].parent
		if p == i {
			return i
		}
		gp := s.runs[p].parent
		s.runs[i].parent = gp // path halving
		i = gp
	}
}

func (s *contourScratch) union(i, j int) {
	ri, rj := s.find(i), s.find(j)
	if ri > rj {
		ri, rj = rj, ri
	}
	s.runs[rj].parent = ri
}

// traced reports whether run i is the root of a component of at least
// minArea pixels.
func (s *contourScratch) traced(i, minArea int) bool {
	return s.runs[i].parent == i && s.runs[i].area >= minArea
}

func (s *contourScratch) labelIndex(x, y int) int {
	return (y-s.box.MinY+1)*s.stride + x - s.box.MinX + 1
}

// mooreOffsets enumerates the 8-neighbourhood clockwise starting from west.
var mooreOffsets = [8][2]int{
	{-1, 0}, {-1, -1}, {0, -1}, {1, -1}, {1, 0}, {1, 1}, {0, 1}, {-1, 1},
}

// trace walks the outer boundary of the component rooted at run root into
// s.cur and returns it. It starts at the component's scan-order-first
// pixel; the last move's direction is an index into mooreOffsets, and each
// probe sweep starts one past the backtrack neighbour, clockwise. The walk
// stops at the first re-entry into the start pixel once the contour holds
// two points, whatever direction it re-enters from: this is not Jacob's
// criterion. The wire bytes and goldens pin this rule.
func (s *contourScratch) trace(m *Bitmask, root int) Contour {
	r := s.runs[root]
	sx, sy := r.x0, r.y
	c := append(s.cur[:0], geom.V2(float64(sx), float64(sy)))
	lbl := int32(root + 1)
	cx, cy := sx, sy
	// Scan order guarantees the west neighbour of the start pixel is
	// outside the component, so pretend we arrived moving east.
	const east = 4
	dir := east
	maxSteps := 8 * m.Width * m.Height
	for step := 0; step < maxSteps; step++ {
		found := false
		for i := 0; i < 8; i++ {
			d := (dir + 5 + i) & 7 // one past the backtrack neighbour
			nx, ny := cx+mooreOffsets[d][0], cy+mooreOffsets[d][1]
			// Neighbours of component pixels lie within the plane's border.
			if s.labels[s.labelIndex(nx, ny)] == lbl {
				cx, cy, dir = nx, ny, d
				found = true
				break
			}
		}
		if !found || (cx == sx && cy == sy && len(c) >= 2) {
			break
		}
		c = append(c, geom.V2(float64(cx), float64(cy)))
	}
	s.cur = c
	return c
}

// FillPolygon rasterizes a closed polygon into a mask of the given size
// using even-odd scanline filling. Vertices are in pixel coordinates; the
// polygon is implicitly closed. This converts a transferred contour back
// into a dense mask (Section III-C).
func FillPolygon(vertices []geom.Vec2, width, height int) *Bitmask {
	out := New(width, height)
	fillPolygonInto(out, vertices)
	return out
}

// FillPolygonInto rasterizes the polygon into dst, reshaping it to the
// given size and reusing its storage. It is FillPolygon for pooled masks —
// the mask-transfer predictor calls it once per cached instance per frame.
func FillPolygonInto(dst *Bitmask, vertices []geom.Vec2, width, height int) {
	dst.reshape(width, height)
	fillPolygonInto(dst, vertices)
}

// scanEdge is one polygon edge prepared for scanline filling. Endpoint order
// is preserved — the crossing x must be interpolated with exactly the
// expression the scalar reference uses, or rasterization would drift by a
// bit at ties — and the rows the edge crosses are precomputed so the per-row
// loop touches only active edges instead of testing every edge per scanline.
type scanEdge struct {
	ax, ay, bx, by float64
	row0, row1     int // scanline rows the edge crosses: [row0, row1)
}

func fillPolygonInto(out *Bitmask, vertices []geom.Vec2) {
	width, height := out.Width, out.Height
	if len(vertices) < 3 {
		for _, v := range vertices {
			out.Set(int(math.Round(v.X)), int(math.Round(v.Y)))
		}
		return
	}

	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, v := range vertices {
		minY = math.Min(minY, v.Y)
		maxY = math.Max(maxY, v.Y)
	}
	y0 := max(0, int(math.Floor(minY)))
	y1 := min(height-1, int(math.Ceil(maxY)))
	if y1 < y0 {
		// Polygon entirely outside the vertical band (or NaN vertices):
		// no scanline can cross it, only the boundary stamps remain.
		for _, v := range vertices {
			out.Set(int(math.Round(v.X)), int(math.Round(v.Y)))
		}
		return
	}

	// Edge table: an edge crosses the scanline through fy = y+0.5 iff
	// min(ay,by) <= fy < max(ay,by) — the same even-odd rule as testing
	// (ay <= fy) != (by <= fy) per row, hoisted out of the row loop. The
	// boundary rows come from a floor estimate corrected with the exact
	// comparisons, so activation agrees bit-for-bit with the per-row test.
	edges := make([]scanEdge, 0, len(vertices))
	for i := range vertices {
		a := vertices[i]
		b := vertices[(i+1)%len(vertices)]
		lo, hi := a.Y, b.Y
		if lo > hi {
			lo, hi = hi, lo
		}
		if !(lo < hi) {
			continue // horizontal (or degenerate) edges never cross
		}
		r0 := int(math.Floor(lo)) // first y with lo <= y+0.5
		for r0 > y0 && lo <= float64(r0-1)+0.5 {
			r0--
		}
		for r0 <= y1 && !(lo <= float64(r0)+0.5) {
			r0++
		}
		r1 := int(math.Floor(hi)) // first y with hi <= y+0.5
		for r1 > r0 && hi <= float64(r1-1)+0.5 {
			r1--
		}
		for r1 <= y1 && !(hi <= float64(r1)+0.5) {
			r1++
		}
		r0 = max(r0, y0)
		r1 = min(r1, y1+1)
		if r0 < r1 {
			edges = append(edges, scanEdge{a.X, a.Y, b.X, b.Y, r0, r1})
		}
	}
	// Group edges by first active row. row0 is clamped to [y0, y1], so a
	// counting sort places every edge in two linear passes — comparison
	// sorting the 56-byte structs costs as much as the fill itself.
	counts := make([]int, y1-y0+2)
	for _, e := range edges {
		counts[e.row0-y0+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	sorted := make([]scanEdge, len(edges))
	for _, e := range edges {
		sorted[counts[e.row0-y0]] = e
		counts[e.row0-y0]++
	}
	edges = sorted

	xs := make([]float64, 0, 16)
	active := make([]scanEdge, 0, 8)
	next := 0
	for y := y0; y <= y1; y++ {
		for next < len(edges) && edges[next].row0 <= y {
			active = append(active, edges[next])
			next++
		}
		k := 0
		for _, e := range active {
			if e.row1 > y {
				active[k] = e
				k++
			}
		}
		active = active[:k]
		if len(active) == 0 {
			continue
		}
		fy := float64(y) + 0.5
		xs = xs[:0]
		for _, e := range active {
			t := (fy - e.ay) / (e.by - e.ay)
			xs = append(xs, e.ax+t*(e.bx-e.ax))
		}
		// Crossing lists are tiny (typically 2): insertion sort beats the
		// generic sort by a wide margin and yields the same ordering.
		for i := 1; i < len(xs); i++ {
			for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
				xs[j], xs[j-1] = xs[j-1], xs[j]
			}
		}
		for i := 0; i+1 < len(xs); i += 2 {
			xa := max(0, int(math.Ceil(xs[i]-0.5)))
			xb := min(width-1, int(math.Floor(xs[i+1]-0.5)))
			if xa <= xb {
				out.setRowSpan(y, xa, xb+1)
			}
		}
	}
	// Stamp the boundary itself so thin shapes survive rasterization.
	for _, v := range vertices {
		x, y := int(math.Round(v.X)), int(math.Round(v.Y))
		out.Set(x, y)
	}
}

// SimplifyContour subsamples a contour to at most maxPoints, preserving
// order. Transmitting contour vertices instead of dense masks is how the
// wire protocol keeps mask payloads small.
func SimplifyContour(c Contour, maxPoints int) Contour {
	if maxPoints <= 0 || len(c) <= maxPoints {
		out := make(Contour, len(c))
		copy(out, c)
		return out
	}
	out := make(Contour, 0, maxPoints)
	step := float64(len(c)) / float64(maxPoints)
	for i := 0; i < maxPoints; i++ {
		out = append(out, c[int(float64(i)*step)])
	}
	return out
}
