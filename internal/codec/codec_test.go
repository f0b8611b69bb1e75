package codec

import (
	"testing"
	"testing/quick"

	"edgeis/internal/mask"
)

func TestQualityLevelStringsAndFidelity(t *testing.T) {
	levels := []QualityLevel{QualitySkip, QualityLow, QualityMedium, QualityHigh}
	prev := -1.0
	for _, q := range levels {
		if q.String() == "" {
			t.Error("empty level name")
		}
		f := q.Fidelity()
		if f <= prev {
			t.Errorf("fidelity not increasing at %v: %v <= %v", q, f, prev)
		}
		if f <= 0 || f > 1 {
			t.Errorf("fidelity out of range: %v", f)
		}
		prev = f
	}
	if QualityLevel(99).String() == "" {
		t.Error("unknown level should stringify")
	}
}

func TestGridLayout(t *testing.T) {
	g := NewGrid(640, 480)
	if g.Cols != 20 || g.Rows != 15 {
		t.Fatalf("grid = %dx%d", g.Cols, g.Rows)
	}
	if g.Tiles() != 300 {
		t.Fatalf("tiles = %d", g.Tiles())
	}
	// Non-multiple sizes round up.
	g2 := NewGrid(100, 50)
	if g2.Cols != 4 || g2.Rows != 2 {
		t.Errorf("grid = %dx%d, want 4x2", g2.Cols, g2.Rows)
	}
	// Edge tiles are clipped to the frame.
	last := g2.TileBox(g2.Tiles() - 1)
	if last.MaxX != 100 || last.MaxY != 50 {
		t.Errorf("last tile box = %+v", last)
	}
}

func TestTileAtRoundTrip(t *testing.T) {
	g := NewGrid(640, 480)
	f := func(x, y uint16) bool {
		px := int(x) % 640
		py := int(y) % 480
		tile := g.TileAt(px, py)
		return g.TileBox(tile).Contains(px, py)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// Out-of-range pixels clamp instead of panicking.
	if g.TileAt(-5, -5) != 0 {
		t.Error("negative pixel should clamp to tile 0")
	}
	if g.TileAt(10000, 10000) != g.Tiles()-1 {
		t.Error("overflow pixel should clamp to last tile")
	}
}

func TestTilesInBox(t *testing.T) {
	g := NewGrid(640, 480)
	tiles := g.TilesInBox(mask.Box{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64})
	if len(tiles) != 4 {
		t.Errorf("got %d tiles, want 4", len(tiles))
	}
	if got := g.TilesInBox(mask.Box{}); got != nil {
		t.Error("empty box should yield no tiles")
	}
	all := g.TilesInBox(mask.Box{MinX: 0, MinY: 0, MaxX: 640, MaxY: 480})
	if len(all) != g.Tiles() {
		t.Errorf("full box covers %d tiles, want %d", len(all), g.Tiles())
	}
}

func TestEncodeRateMonotoneInQuality(t *testing.T) {
	g := NewGrid(640, 480)
	prev := -1
	for _, q := range []QualityLevel{QualitySkip, QualityLow, QualityMedium, QualityHigh} {
		ef := EncodeUniform(g, q, nil)
		if ef.Bytes <= prev {
			t.Errorf("bytes not increasing at %v: %d <= %d", q, ef.Bytes, prev)
		}
		prev = ef.Bytes
	}
}

func TestEncodeMixedCheaperThanUniformHigh(t *testing.T) {
	// The point of CFRS: selective quality cuts bytes versus all-high.
	g := NewGrid(640, 480)
	high := EncodeUniform(g, QualityHigh, nil)
	levels := make([]QualityLevel, g.Tiles())
	for i := range levels {
		levels[i] = QualityLow
	}
	// One object's worth of high tiles.
	for _, tl := range g.TilesInBox(mask.Box{MinX: 200, MinY: 150, MaxX: 360, MaxY: 280}) {
		levels[tl] = QualityHigh
	}
	mixed, err := Encode(g, levels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Bytes >= high.Bytes/2 {
		t.Errorf("mixed %d bytes vs uniform-high %d: want < 50%%", mixed.Bytes, high.Bytes)
	}
}

func TestEncodeComplexityRaisesBytes(t *testing.T) {
	g := NewGrid(320, 240)
	flat := make([]float64, g.Tiles())
	busy := make([]float64, g.Tiles())
	for i := range busy {
		busy[i] = 1
	}
	a := EncodeUniform(g, QualityHigh, flat)
	b := EncodeUniform(g, QualityHigh, busy)
	if b.Bytes <= a.Bytes {
		t.Errorf("busy content %d bytes <= flat %d", b.Bytes, a.Bytes)
	}
}

func TestEncodeLevelsMismatch(t *testing.T) {
	g := NewGrid(320, 240)
	if _, err := Encode(g, make([]QualityLevel, 3), nil); err == nil {
		t.Error("expected error for wrong level count")
	}
}

func TestQualityAt(t *testing.T) {
	g := NewGrid(64, 64)
	levels := make([]QualityLevel, g.Tiles())
	for i := range levels {
		levels[i] = QualityLow
	}
	levels[0] = QualityHigh
	ef, err := Encode(g, levels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ef.QualityAt(5, 5) != QualityHigh.Fidelity() {
		t.Error("tile 0 quality wrong")
	}
	if ef.QualityAt(40, 40) != QualityLow.Fidelity() {
		t.Error("other tile quality wrong")
	}
}

func TestEncodeCostOrdering(t *testing.T) {
	g := NewGrid(640, 480)
	low := EncodeUniform(g, QualityLow, nil)
	high := EncodeUniform(g, QualityHigh, nil)
	if high.EncodeMs <= low.EncodeMs {
		t.Error("high quality should cost more encode time")
	}
	if high.DecodeMs() <= 0 || high.DecodeMs() >= high.EncodeMs {
		t.Error("decode cost should be positive and below encode cost")
	}
	// Calibration: a full high-quality 640x480 frame encodes in ~5-15 ms.
	if high.EncodeMs < 3 || high.EncodeMs > 20 {
		t.Errorf("encode cost %.1f ms out of calibrated range", high.EncodeMs)
	}
}

func TestHighQualityFrameSizeRealistic(t *testing.T) {
	// A 640x480 all-high frame should land in the tens-of-KB range a real
	// HEVC intra frame occupies, and a CFRS-style mixed frame well below.
	g := NewGrid(640, 480)
	high := EncodeUniform(g, QualityHigh, nil)
	if high.Bytes < 20_000 || high.Bytes > 80_000 {
		t.Errorf("uniform-high frame = %d bytes, want 20-80 KB", high.Bytes)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	g := NewGrid(320, 240)
	levels := make([]QualityLevel, g.Tiles())
	for i := range levels {
		levels[i] = QualityLevel(1 + i%3)
	}
	a, err := Encode(g, levels, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(g, levels, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bytes != b.Bytes || a.EncodeMs != b.EncodeMs {
		t.Error("encode nondeterministic")
	}
}

func TestEncodePreservesLevelsCopy(t *testing.T) {
	// The encoded frame must own its levels: mutating the caller's slice
	// after Encode must not change QualityAt results.
	g := NewGrid(64, 64)
	levels := make([]QualityLevel, g.Tiles())
	for i := range levels {
		levels[i] = QualityHigh
	}
	ef, err := Encode(g, levels, nil)
	if err != nil {
		t.Fatal(err)
	}
	levels[0] = QualitySkip
	if ef.QualityAt(5, 5) != QualityHigh.Fidelity() {
		t.Error("encoded frame aliases the caller's level slice")
	}
}
