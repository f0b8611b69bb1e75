// Package mask implements the pixel-level machinery of instance
// segmentation: binary masks, polygon rasterization, contour extraction
// (the equivalent of OpenCV's findContours used in Section III-C of the
// paper), morphology, bounding boxes and the IoU metric of Eq. 8.
//
// Bitmask stores pixels packed 64 per machine word, and every hot kernel is
// a SWAR (SIMD-within-a-register) word pass: set algebra is word-wise
// OR/AND/AND-NOT, Area and IoU are popcounts, BoundingBox skips zero words
// with leading/trailing-zero counts, Erode/Dilate are shift-and-combine row
// passes, and Translate/Crop/Paste are bit-aligned row copies. An earlier
// revision stored one byte per pixel on the theory that packing was not
// worth the complexity; measured at the 320x240 and 640x480 resolutions the
// reproduction runs, the packed kernels are roughly 10-80x faster (IoU
// ~38-44x, Area ~82x, set ops ~37-80x, BoundingBox ~43-54x, morphology
// ~17-35x, Translate ~15x, FillPolygon ~10x — see BENCH_kernels.json for the
// current numbers and cmd/edgeis-kernelbench for the harness), which
// moves every per-frame stage of the tracking path. The byte-per-pixel
// implementation is retained as Scalar (scalar.go) and every packed kernel
// is pinned byte-identical to it by differential tests.
//
// Contours (contour.go) come from union-find over packed row runs and a
// Moore tracer over a bounding-box label plane filled from those runs. On
// a 320x240 rectangle LargestContour — the wire and transfer path — takes
// ~20 µs, 2.7 KB and 1 allocation per call, against 1.04 ms, 1.34 MB and
// 34 allocations for the flood-fill original (ScalarExtractContours, its
// differential oracle); ExtractContours is ~45-50x the oracle at 320x240
// and ~65x at 640x480.
//
// Pool (pool.go) recycles mask backing storage so the steady-state tracking
// loop performs zero mask allocations per frame; see DESIGN.md §12 for the
// ownership rules.
package mask

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync/atomic"

	"edgeis/internal/geom"
)

// wordBits is the pixel capacity of one storage word.
const wordBits = 64

// allocs counts backing-array allocations (New, FromBytes, pool misses and
// reshape growth). The steady-state tracking loop is pinned to a zero
// per-frame delta by allocation-counting tests.
var allocs atomic.Uint64

// Allocs returns the number of mask backing-array allocations performed by
// this process so far. The absolute value is meaningless; tests assert on
// deltas.
func Allocs() uint64 { return allocs.Load() }

// Bitmask is a binary image of Width x Height pixels stored row-major,
// packed 64 pixels per uint64. Each row starts on a word boundary (wpr
// words per row), so row operations never straddle rows; bit x&63 of word
// words[y*wpr + x>>6] holds pixel (x, y).
//
// Invariant: the padding bits of each row's last word (bit positions >=
// Width%64, when Width is not a multiple of 64) are always zero. Every
// mutating method preserves it; kernels rely on it to skip edge fixups.
type Bitmask struct {
	Width, Height int
	wpr           int // words per row
	words         []uint64
}

// New returns an all-zero mask of the given size.
func New(width, height int) *Bitmask {
	m := &Bitmask{}
	m.reshape(width, height)
	return m
}

// reshape resizes m to width x height and zeroes it, reusing the backing
// array when its capacity suffices (the pool hit path — no allocation).
func (m *Bitmask) reshape(width, height int) {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("mask: invalid size %dx%d", width, height))
	}
	wpr := (width + wordBits - 1) / wordBits
	need := wpr * height
	m.Width, m.Height, m.wpr = width, height, wpr
	if cap(m.words) < need {
		m.words = make([]uint64, need)
		allocs.Add(1)
		return
	}
	m.words = m.words[:need]
	clear(m.words)
}

// row returns the word slice backing row y.
func (m *Bitmask) row(y int) []uint64 { return m.words[y*m.wpr : (y+1)*m.wpr] }

// tailMask returns the valid-bit mask of each row's last word.
func (m *Bitmask) tailMask() uint64 {
	if r := m.Width & (wordBits - 1); r != 0 {
		return (uint64(1) << uint(r)) - 1
	}
	return ^uint64(0)
}

// Clone returns a deep copy of m.
func (m *Bitmask) Clone() *Bitmask {
	out := New(m.Width, m.Height)
	copy(out.words, m.words)
	return out
}

// CopyFrom reshapes m to src's size and copies src's pixels into it,
// reusing m's backing storage when possible.
func (m *Bitmask) CopyFrom(src *Bitmask) {
	m.reshape(src.Width, src.Height)
	copy(m.words, src.words)
}

// Reset zeroes every pixel, keeping the size.
func (m *Bitmask) Reset() { clear(m.words) }

// At reports whether pixel (x, y) is set. Out-of-bounds reads return false.
func (m *Bitmask) At(x, y int) bool {
	if x < 0 || y < 0 || x >= m.Width || y >= m.Height {
		return false
	}
	return m.words[y*m.wpr+x>>6]&(1<<uint(x&63)) != 0
}

// Set sets pixel (x, y); out-of-bounds writes are ignored.
func (m *Bitmask) Set(x, y int) {
	if x < 0 || y < 0 || x >= m.Width || y >= m.Height {
		return
	}
	m.words[y*m.wpr+x>>6] |= 1 << uint(x&63)
}

// Clear zeroes pixel (x, y); out-of-bounds writes are ignored.
func (m *Bitmask) Clear(x, y int) {
	if x < 0 || y < 0 || x >= m.Width || y >= m.Height {
		return
	}
	m.words[y*m.wpr+x>>6] &^= 1 << uint(x&63)
}

// Area returns the number of set pixels.
func (m *Bitmask) Area() int {
	n := 0
	for _, w := range m.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether no pixel is set.
func (m *Bitmask) Empty() bool {
	for _, w := range m.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Union ORs other into m in place. Sizes must match.
func (m *Bitmask) Union(other *Bitmask) {
	m.checkSize(other)
	for i, w := range other.words {
		m.words[i] |= w
	}
}

// Intersect ANDs other into m in place. Sizes must match.
func (m *Bitmask) Intersect(other *Bitmask) {
	m.checkSize(other)
	for i, w := range other.words {
		m.words[i] &= w
	}
}

// Subtract clears every pixel of m that is set in other. Sizes must match.
func (m *Bitmask) Subtract(other *Bitmask) {
	m.checkSize(other)
	for i, w := range other.words {
		m.words[i] &^= w
	}
}

func (m *Bitmask) checkSize(other *Bitmask) {
	if m.Width != other.Width || m.Height != other.Height {
		panic(fmt.Sprintf("mask: size mismatch %dx%d vs %dx%d",
			m.Width, m.Height, other.Width, other.Height))
	}
}

// IoU computes the intersection-over-union between two masks (Eq. 8 in the
// paper). Two empty masks have IoU 1 (a correct prediction of "nothing").
func IoU(a, b *Bitmask) float64 {
	a.checkSize(b)
	inter, union := 0, 0
	for i, w := range a.words {
		inter += bits.OnesCount64(w & b.words[i])
		union += bits.OnesCount64(w | b.words[i])
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// Bytes unpacks the mask into a row-major byte-per-pixel buffer (0 or 1) —
// the representation the wire protocol serializes, kept stable across the
// packed rewrite so old peers interoperate.
func (m *Bitmask) Bytes() []uint8 {
	out := make([]uint8, m.Width*m.Height)
	for y := 0; y < m.Height; y++ {
		base := y * m.Width
		for k, w := range m.row(y) {
			for w != 0 {
				i := bits.TrailingZeros64(w)
				out[base+k*wordBits+i] = 1
				w &= w - 1
			}
		}
	}
	return out
}

// FromBytes packs a row-major byte-per-pixel buffer (non-zero = set) into a
// mask — the inverse boundary conversion of Bytes.
func FromBytes(width, height int, pix []uint8) *Bitmask {
	if len(pix) != width*height {
		panic(fmt.Sprintf("mask: FromBytes buffer size %d != %dx%d", len(pix), width, height))
	}
	m := New(width, height)
	for y := 0; y < height; y++ {
		base := y * width
		row := m.row(y)
		for x := 0; x < width; x++ {
			if pix[base+x] != 0 {
				row[x>>6] |= 1 << uint(x&63)
			}
		}
	}
	return m
}

// FillSpan sets n pixels starting at the row-major linear index offset
// (offset = y*Width + x), crossing row boundaries like a flat pixel buffer
// would. It is the decode half of the wire protocol's run-length boundary.
// The span must lie within the mask.
func (m *Bitmask) FillSpan(offset, n int) {
	if offset < 0 || n < 0 || offset+n > m.Width*m.Height {
		panic(fmt.Sprintf("mask: FillSpan [%d,%d) outside %dx%d", offset, offset+n, m.Width, m.Height))
	}
	for n > 0 {
		y, x := offset/m.Width, offset%m.Width
		take := min(n, m.Width-x)
		m.setRowSpan(y, x, x+take)
		offset += take
		n -= take
	}
}

// AppendRuns appends the mask's row-major run-length encoding to dst and
// returns the extended slice: alternating run lengths of 0-pixels and
// 1-pixels, starting with zeros (a zero-length leading run when the stream
// opens with ones), runs crossing row boundaries like a flat pixel buffer.
// This is the same convention the wire protocol serializes; it is also the
// compact at-rest form the transfer cache parks cold masks in.
//
// The encoder walks the storage words in order. A run ends at each pixel
// that differs from the one before it, and w ^ (w<<1 | prev) marks those
// pixels of a word at once (prev is the pixel before its bit 0, an implicit
// 0 at the start); a row's last word drops its padding bits.
func (m *Bitmask) AppendRuns(dst []uint32) []uint32 {
	tail, lastBit, wpr := m.tailMask(), uint(m.Width-1)&(wordBits-1), m.wpr
	prev, base, start, k := uint64(0), 0, 0, 0
	for _, w := range m.words {
		d, step := w^(w<<1|prev), wordBits
		prev = w >> (wordBits - 1)
		if k++; k == wpr {
			k, step = 0, int(lastBit)+1
			d &= tail
			prev = w >> lastBit & 1
		}
		for ; d != 0; d &= d - 1 {
			at := base + bits.TrailingZeros64(d)
			dst = append(dst, uint32(at-start))
			start = at
		}
		base += step
	}
	return append(dst, uint32(base-start))
}

// AppendRunsBE appends the AppendRuns stream to dst as big-endian uint32s,
// the wire protocol's run encoding, so a serializer can write a mask's runs
// straight into its message buffer. The loop is AppendRuns' with another
// append.
func (m *Bitmask) AppendRunsBE(dst []byte) []byte {
	tail, lastBit, wpr := m.tailMask(), uint(m.Width-1)&(wordBits-1), m.wpr
	prev, base, start, k := uint64(0), 0, 0, 0
	for _, w := range m.words {
		d, step := w^(w<<1|prev), wordBits
		prev = w >> (wordBits - 1)
		if k++; k == wpr {
			k, step = 0, int(lastBit)+1
			d &= tail
			prev = w >> lastBit & 1
		}
		for ; d != 0; d &= d - 1 {
			at := base + bits.TrailingZeros64(d)
			dst = binary.BigEndian.AppendUint32(dst, uint32(at-start))
			start = at
		}
		base += step
	}
	return binary.BigEndian.AppendUint32(dst, uint32(base-start))
}

// RunCount returns len(m.AppendRuns(nil)) without building the runs: one
// more than the number of pixels that differ from the one before them,
// counted with AppendRuns' word scan and a popcount.
func (m *Bitmask) RunCount() int {
	tail, lastBit, wpr := m.tailMask(), uint(m.Width-1)&(wordBits-1), m.wpr
	prev, changes, k := uint64(0), 0, 0
	for _, w := range m.words {
		d := w ^ (w<<1 | prev)
		prev = w >> (wordBits - 1)
		if k++; k == wpr {
			k = 0
			d &= tail
			prev = w >> lastBit & 1
		}
		changes += bits.OnesCount64(d)
	}
	return changes + 1
}

// FillRuns sets pixels from an alternating 0/1 run-length stream as produced
// by AppendRuns. The mask must be cleared (freshly allocated, pool.Get, or
// Clear'd) and the runs must sum to exactly Width*Height pixels.
func (m *Bitmask) FillRuns(runs []uint32) {
	offset := 0
	ones := false
	for _, r := range runs {
		if ones {
			m.FillSpan(offset, int(r))
		}
		offset += int(r)
		ones = !ones
	}
	if offset != m.Width*m.Height {
		panic(fmt.Sprintf("mask: FillRuns covered %d pixels of %dx%d", offset, m.Width, m.Height))
	}
}

// setRowSpan sets pixels [x0, x1) of row y; bounds must be valid.
func (m *Bitmask) setRowSpan(y, x0, x1 int) {
	row := m.row(y)
	for x0 < x1 {
		k, b := x0>>6, x0&63
		take := min(wordBits-b, x1-x0)
		row[k] |= maskN(take) << uint(b)
		x0 += take
	}
}

// BoundingBox returns the tight bounding box of the set pixels. An empty
// mask yields an empty box. Zero words are skipped; the per-row extrema
// come from trailing/leading-zero counts of the first/last non-zero word.
func (m *Bitmask) BoundingBox() Box {
	minX, maxX := m.Width, 0
	minY, maxY := -1, 0
	for y := 0; y < m.Height; y++ {
		row := m.row(y)
		first := -1
		for k := 0; k < m.wpr; k++ {
			if row[k] != 0 {
				first = k
				break
			}
		}
		if first < 0 {
			continue
		}
		last := first
		for k := m.wpr - 1; k > first; k-- {
			if row[k] != 0 {
				last = k
				break
			}
		}
		if minY < 0 {
			minY = y
		}
		maxY = y + 1
		if x := first*wordBits + bits.TrailingZeros64(row[first]); x < minX {
			minX = x
		}
		if x := last*wordBits + wordBits - bits.LeadingZeros64(row[last]); x > maxX {
			maxX = x
		}
	}
	if minY < 0 {
		return Box{}
	}
	return Box{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
}

// CenterOfMass returns the centroid of the set pixels, or ok=false for an
// empty mask.
func (m *Bitmask) CenterOfMass() (geom.Vec2, bool) {
	sx, sy, n := 0, 0, 0
	for y := 0; y < m.Height; y++ {
		rowSum, rowN := 0, 0
		for k, w := range m.row(y) {
			rowN += bits.OnesCount64(w)
			for w != 0 {
				rowSum += k*wordBits + bits.TrailingZeros64(w)
				w &= w - 1
			}
		}
		sx += rowSum
		sy += y * rowN
		n += rowN
	}
	if n == 0 {
		return geom.Vec2{}, false
	}
	return geom.V2(float64(sx)/float64(n), float64(sy)/float64(n)), true
}

// Box is an axis-aligned bounding box with inclusive min and exclusive max
// pixel coordinates, matching Go's image.Rectangle convention.
type Box struct {
	MinX, MinY, MaxX, MaxY int
}

// Empty reports whether the box contains no pixels.
func (b Box) Empty() bool { return b.MaxX <= b.MinX || b.MaxY <= b.MinY }

// Width returns the box width in pixels (zero when empty).
func (b Box) Width() int {
	if b.Empty() {
		return 0
	}
	return b.MaxX - b.MinX
}

// Height returns the box height in pixels (zero when empty).
func (b Box) Height() int {
	if b.Empty() {
		return 0
	}
	return b.MaxY - b.MinY
}

// Area returns the number of pixels covered by the box.
func (b Box) Area() int { return b.Width() * b.Height() }

// Intersect returns the overlapping region of b and o.
func (b Box) Intersect(o Box) Box {
	out := Box{
		MinX: max(b.MinX, o.MinX), MinY: max(b.MinY, o.MinY),
		MaxX: min(b.MaxX, o.MaxX), MaxY: min(b.MaxY, o.MaxY),
	}
	if out.Empty() {
		return Box{}
	}
	return out
}

// UnionBox returns the smallest box containing both b and o.
func (b Box) UnionBox(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	return Box{
		MinX: min(b.MinX, o.MinX), MinY: min(b.MinY, o.MinY),
		MaxX: max(b.MaxX, o.MaxX), MaxY: max(b.MaxY, o.MaxY),
	}
}

// IoU computes intersection-over-union between two boxes — the metric used
// by the RoI pruning stage (Section IV-B).
func (b Box) IoU(o Box) float64 {
	inter := b.Intersect(o).Area()
	union := b.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Contains reports whether pixel (x, y) lies in the box.
func (b Box) Contains(x, y int) bool {
	return x >= b.MinX && x < b.MaxX && y >= b.MinY && y < b.MaxY
}

// Expand grows the box by margin pixels on every side, clipped to the given
// image bounds. It implements the "surrounding box" computed from each
// transferred mask in the dynamic anchor placement (Section IV-A).
func (b Box) Expand(margin, imgW, imgH int) Box {
	if b.Empty() {
		return Box{}
	}
	return Box{
		MinX: max(0, b.MinX-margin), MinY: max(0, b.MinY-margin),
		MaxX: min(imgW, b.MaxX+margin), MaxY: min(imgH, b.MaxY+margin),
	}
}

// Center returns the box center in pixel coordinates.
func (b Box) Center() geom.Vec2 {
	return geom.V2(float64(b.MinX+b.MaxX)/2, float64(b.MinY+b.MaxY)/2)
}
