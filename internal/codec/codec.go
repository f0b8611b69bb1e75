// Package codec implements the tile-level frame encoder of edgeIS's
// transmission path (Section V). The paper encodes with Kvazaar (HEVC) on
// the mobile side and decodes with OpenHEVC on the edge; this reproduction
// substitutes a rate/quality model: a frame is divided into fixed-size
// tiles, each assigned a quality level, and the encoder charges bytes as a
// function of tile content complexity and quality. Decoding yields the
// per-pixel quality map the simulated segmentation model consumes.
package codec

import (
	"fmt"
	"math"

	"edgeis/internal/mask"
)

// QualityLevel is a discrete encode quality for a tile, mirroring the
// "different compression levels for each region" of Fig. 8d.
type QualityLevel int

// Quality levels from dropped to lossless-ish.
const (
	// QualitySkip omits the tile entirely (static content already known
	// to the edge).
	QualitySkip QualityLevel = iota
	// QualityLow is heavy compression for irrelevant areas.
	QualityLow
	// QualityMedium is moderate compression for context regions.
	QualityMedium
	// QualityHigh is near-lossless for object and new-content regions.
	QualityHigh
)

// String names the level.
func (q QualityLevel) String() string {
	switch q {
	case QualitySkip:
		return "skip"
	case QualityLow:
		return "low"
	case QualityMedium:
		return "medium"
	case QualityHigh:
		return "high"
	default:
		return fmt.Sprintf("quality(%d)", int(q))
	}
}

// Fidelity converts a level into the (0,1] per-pixel quality the inference
// error model consumes.
func (q QualityLevel) Fidelity() float64 {
	switch q {
	case QualitySkip:
		return 0.05
	case QualityLow:
		return 0.35
	case QualityMedium:
		return 0.7
	case QualityHigh:
		return 0.97
	default:
		return 0.05
	}
}

// bytesPerPixel is the calibrated rate of each level for unit-complexity
// content. High quality approximates intra-coded HEVC (~0.9 bit/px); low
// levels lean on heavy quantization.
func (q QualityLevel) bytesPerPixel() float64 {
	switch q {
	case QualitySkip:
		return 0.0008 // skip flags/markers only
	case QualityLow:
		return 0.012
	case QualityMedium:
		return 0.045
	case QualityHigh:
		return 0.115
	default:
		return 0
	}
}

// TileSize is the tile edge length in pixels (HEVC CTU-like).
const TileSize = 32

// Grid describes the tile layout of a frame.
type Grid struct {
	Width, Height int // frame dimensions in pixels
	Cols, Rows    int
}

// NewGrid computes the tile grid for a frame size.
func NewGrid(width, height int) Grid {
	return Grid{
		Width: width, Height: height,
		Cols: (width + TileSize - 1) / TileSize,
		Rows: (height + TileSize - 1) / TileSize,
	}
}

// Tiles returns the number of tiles.
func (g Grid) Tiles() int { return g.Cols * g.Rows }

// TileAt returns the tile index containing pixel (x, y), clamped to bounds.
func (g Grid) TileAt(x, y int) int {
	c := clampInt(x/TileSize, 0, g.Cols-1)
	r := clampInt(y/TileSize, 0, g.Rows-1)
	return r*g.Cols + c
}

// TileBox returns the pixel box of tile i.
func (g Grid) TileBox(i int) mask.Box {
	r, c := i/g.Cols, i%g.Cols
	return mask.Box{
		MinX: c * TileSize,
		MinY: r * TileSize,
		MaxX: minInt((c+1)*TileSize, g.Width),
		MaxY: minInt((r+1)*TileSize, g.Height),
	}
}

// TilesInBox returns the indices of all tiles intersecting the pixel box.
func (g Grid) TilesInBox(b mask.Box) []int {
	if b.Empty() {
		return nil
	}
	c0 := clampInt(b.MinX/TileSize, 0, g.Cols-1)
	c1 := clampInt((b.MaxX-1)/TileSize, 0, g.Cols-1)
	r0 := clampInt(b.MinY/TileSize, 0, g.Rows-1)
	r1 := clampInt((b.MaxY-1)/TileSize, 0, g.Rows-1)
	out := make([]int, 0, (c1-c0+1)*(r1-r0+1))
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			out = append(out, r*g.Cols+c)
		}
	}
	return out
}

// EncodedFrame is the output of the tile encoder: per-tile quality levels
// and the modelled byte cost.
type EncodedFrame struct {
	Grid     Grid
	Levels   []QualityLevel
	Bytes    int
	EncodeMs float64
}

// Complexity estimates per-tile content complexity in [0.2, 1.5] from the
// amount of object coverage (objects are high-frequency content, empty
// ground is flat). It substitutes for the codec's entropy estimate.
func Complexity(g Grid, objectCover []float64, tile int) float64 {
	if objectCover == nil {
		return 1
	}
	return 0.2 + 1.3*clamp01(objectCover[tile])
}

// Encode models encoding a frame with the given per-tile levels.
// objectCover (optional, len == Tiles()) is the fraction of each tile
// covered by objects, driving the complexity term of the rate model.
func Encode(g Grid, levels []QualityLevel, objectCover []float64) (*EncodedFrame, error) {
	if len(levels) != g.Tiles() {
		return nil, fmt.Errorf("codec: %d levels for %d tiles", len(levels), g.Tiles())
	}
	totalBytes := 0.0
	encodeMs := 0.0
	for i, lvl := range levels {
		b := g.TileBox(i)
		px := float64(b.Area())
		cx := Complexity(g, objectCover, i)
		totalBytes += px * lvl.bytesPerPixel() * cx
		// Encoding cost grows with quality; skip tiles are nearly free.
		encodeMs += px * encodeCostPerPixel(lvl) * cx
	}
	return &EncodedFrame{
		Grid:     g,
		Levels:   append([]QualityLevel(nil), levels...),
		Bytes:    int(math.Ceil(totalBytes)),
		EncodeMs: encodeMs,
	}, nil
}

// EncodeUniform encodes the whole frame at a single level — the behaviour
// of the non-tile-aware baselines.
func EncodeUniform(g Grid, level QualityLevel, objectCover []float64) *EncodedFrame {
	levels := make([]QualityLevel, g.Tiles())
	for i := range levels {
		levels[i] = level
	}
	ef, err := Encode(g, levels, objectCover)
	if err != nil {
		panic(err) // cannot happen: levels sized from the grid
	}
	return ef
}

// encodeCostPerPixel is the per-pixel encode time (ms) by level, calibrated
// to a mobile HEVC encoder (~8 ms for a high-quality 640x480 frame).
func encodeCostPerPixel(q QualityLevel) float64 {
	switch q {
	case QualitySkip:
		return 0.5e-6
	case QualityLow:
		return 8e-6
	case QualityMedium:
		return 16e-6
	case QualityHigh:
		return 26e-6
	default:
		return 0
	}
}

// QualityAt returns the decoded fidelity at a pixel — the function handed
// to segmodel.Input.Quality.
func (e *EncodedFrame) QualityAt(x, y int) float64 {
	return e.Levels[e.Grid.TileAt(x, y)].Fidelity()
}

// DecodeMs models the edge-side decode latency (fraction of encode cost).
func (e *EncodedFrame) DecodeMs() float64 {
	return 0.3 * e.EncodeMs
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
