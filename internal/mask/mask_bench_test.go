package mask

import "testing"

func benchMask(w, h int) *Bitmask {
	m := New(w, h)
	for y := h / 4; y < 3*h/4; y++ {
		for x := w / 4; x < 3*w/4; x++ {
			m.Set(x, y)
		}
	}
	return m
}

func BenchmarkIoU(b *testing.B) {
	a := benchMask(320, 240)
	c := a.Translate(5, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		IoU(a, c)
	}
}

// BenchmarkIoUScalar times the retained byte-per-pixel reference on the same
// fixture, so `go test -bench IoU` shows the packed speedup directly; the
// full packed-vs-scalar sweep lives in cmd/edgeis-kernelbench.
func BenchmarkIoUScalar(b *testing.B) {
	a := benchMask(320, 240).ToScalar()
	c := a.Translate(5, 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScalarIoU(a, c)
	}
}

func BenchmarkExtractContours(b *testing.B) {
	m := benchMask(320, 240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ExtractContours(m, 8)
	}
}

// BenchmarkLargestContour is the wire and transfer path: the longest
// contour of the same fixture, simplified to the 160-point budget.
func BenchmarkLargestContour(b *testing.B) {
	m := benchMask(320, 240)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LargestContour(m, 8, 160)
	}
}

func BenchmarkFillPolygon(b *testing.B) {
	m := benchMask(320, 240)
	c := ExtractContours(m, 8)[0]
	s := SimplifyContour(c, 160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FillPolygon(s, 320, 240)
	}
}

// BenchmarkFillPolygonScalar is the scalar counterpart of
// BenchmarkFillPolygon (same contour fixture).
func BenchmarkFillPolygonScalar(b *testing.B) {
	m := benchMask(320, 240)
	c := ExtractContours(m, 8)[0]
	s := SimplifyContour(c, 160)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScalarFillPolygon(s, 320, 240)
	}
}

func BenchmarkBoundaryNoise(b *testing.B) {
	m := benchMask(320, 240)
	rng := func() float64 { return 0.5 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.BoundaryNoise(0.9, rng)
	}
}
