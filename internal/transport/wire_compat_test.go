package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"edgeis/internal/mask"
)

// TestMaskWireFormatGolden pins the mask wire encoding to the exact bytes
// the pre-packed (byte-per-pixel) implementation produced: big-endian i32
// width, height and run count, then alternating run lengths of 0s and 1s
// over the row-major pixel stream, starting with 0s. The golden blob is
// hand-assembled, so any drift in either the RLE or the packed<->byte
// boundary conversion fails loudly — old peers must keep decoding us.
func TestMaskWireFormatGolden(t *testing.T) {
	// 5x3 mask:  . X X . .
	//            . . . . .
	//            X X X X X
	// Flat stream: 0,1,1,0,0,0,0,0,0,0,1,1,1,1,1 -> runs 1,2,7,5.
	m := mask.New(5, 3)
	m.Set(1, 0)
	m.Set(2, 0)
	for x := 0; x < 5; x++ {
		m.Set(x, 2)
	}
	golden := []byte{
		0, 0, 0, 5, // width
		0, 0, 0, 3, // height
		0, 0, 0, 4, // run count
		0, 0, 0, 1, // 1 zero
		0, 0, 0, 2, // 2 ones
		0, 0, 0, 7, // 7 zeros
		0, 0, 0, 5, // 5 ones
	}
	got := appendMask(nil, m)
	if !bytes.Equal(got, golden) {
		t.Fatalf("appendMask = % x\nwant        % x", got, golden)
	}
	back, err := decodeMask(golden)
	if err != nil {
		t.Fatalf("decodeMask: %v", err)
	}
	if mask.IoU(back, m) != 1 {
		t.Fatal("golden blob did not decode to the original mask")
	}
}

// TestMaskWireFormatCrossVersion round-trips masks wider than one storage
// word through encode/decode and checks the byte-per-pixel stream the wire
// sees is unchanged by the packed representation (non-aligned widths
// exercise the tail-word boundary conversion).
func TestMaskWireFormatCrossVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, sz := range [][2]int{{64, 4}, {65, 4}, {127, 3}, {320, 240}} {
		m := mask.New(sz[0], sz[1])
		for i := 0; i < sz[0]*sz[1]; i++ {
			if rng.Float64() < 0.35 {
				m.Set(i%sz[0], i/sz[0])
			}
		}
		// The wire payload is defined over the flat byte stream; simulate
		// an old byte-per-pixel peer by re-encoding from that stream.
		flat := m.Bytes()
		peer := mask.FromBytes(sz[0], sz[1], flat)
		if !bytes.Equal(appendMask(nil, m), appendMask(nil, peer)) {
			t.Fatalf("size %v: packed encoding differs from byte-stream peer encoding", sz)
		}
		back, err := decodeMask(appendMask(nil, m))
		if err != nil {
			t.Fatalf("size %v: decode: %v", sz, err)
		}
		if mask.IoU(back, m) != 1 {
			t.Fatalf("size %v: wire round trip corrupted mask", sz)
		}
	}
}
