// Package transport implements the real network path of edgeIS: a
// length-prefixed binary protocol over TCP carrying offloaded frames from
// the mobile client to the edge server and segmentation results back
// (masks travel as contour vertex lists, the compact representation
// Section VI-A serializes with Boost in the paper).
//
// The simulation engine (package pipeline) models transmission analytically
// for experiments; this package is the deployable counterpart used by
// cmd/edgeis-server and cmd/edgeis-client, and its tests exercise the
// protocol end to end over real sockets.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"edgeis/internal/accel"
	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/segmodel"
)

// Protocol limits.
const (
	// MaxMessageBytes bounds a single message; larger reads are rejected
	// to keep a malformed peer from exhausting memory.
	MaxMessageBytes = 16 << 20
	// protocolVersion is checked on every message.
	protocolVersion = 1
)

// Message type tags.
const (
	// TypeFrame carries an offloaded frame (client -> server).
	TypeFrame uint8 = iota + 1
	// TypeResult carries segmentation output (server -> client).
	TypeResult
	// TypeError carries a server-side failure description.
	TypeError
	// TypeReject reports that the edge shed one frame at admission (its
	// scheduler queue was full). Unlike TypeError it is per-frame and
	// non-fatal: the connection keeps serving later frames.
	TypeReject
	// TypeShed reports that the edge displaced one queued frame in favour of
	// a fresher frame from the same session (latest-wins admission). It
	// carries a reason code; like TypeReject it is per-frame and non-fatal.
	TypeShed
	// TypeResume opens a connection by claiming a session identity
	// (client -> server, first message only). A fleet client migrating off a
	// dead replica sends it so the target replica adopts the session —
	// carrying the accounting identity over while knowing the feature cache
	// and guidance continuity died with the old replica and must be rebuilt
	// (the first post-migration frame is forced to be a keyframe).
	TypeResume
	// TypeResumeAck answers TypeResume (server -> client). It echoes the
	// session key, reports whether the session was adopted, and advertises
	// the server's known fleet peers so a client dialed at one address
	// discovers the replica set it can fail over to.
	TypeResumeAck
)

// Shed reason codes carried by TypeShed.
const (
	// ShedStaleReplaced: the frame was queued but a fresher frame from the
	// same session arrived at a full queue and took its slot.
	ShedStaleReplaced uint8 = 1
)

// Errors.
var (
	// ErrTooLarge indicates a message exceeding MaxMessageBytes.
	ErrTooLarge = errors.New("transport: message too large")
	// ErrBadMessage indicates a framing or version violation.
	ErrBadMessage = errors.New("transport: malformed message")
)

// FrameMsg is an offloaded frame. In deployment the payload would be HEVC
// tiles; here the synthetic frame content (object truths standing in for
// pixels) rides along with the CIIA guidance, and Padding inflates the wire
// size to the codec's modelled byte count so transfers exercise realistic
// volumes.
type FrameMsg struct {
	FrameIndex int32
	Width      int32
	Height     int32
	Seed       int64
	Objects    []segmodel.ObjectTruth
	// QualityLevels is the per-tile fidelity map (empty = lossless).
	QualityLevels []float32
	TileCols      int32
	// Guidance areas (nil = vanilla inference).
	Areas []accel.Area
	// PaddingBytes inflates the encoded message to the modelled size.
	PaddingBytes int32
}

// ResultMsg is a segmentation result. Masks are shipped as simplified
// contours and re-rasterized client-side.
type ResultMsg struct {
	FrameIndex int32
	InferMs    float64
	Detections []WireDetection
}

// WireDetection is one detection on the wire.
type WireDetection struct {
	ObjectID int32
	Label    int32
	Score    float64
	Box      mask.Box
	// Contour is empty for box-only results.
	Contour []geom.Vec2
	// Width/Height rebuild the mask raster.
	Width, Height int32
}

// ToDetection reconstructs the dense mask from the contour.
func (w *WireDetection) ToDetection() segmodel.Detection {
	d := segmodel.Detection{
		ObjectID: int(w.ObjectID),
		Label:    int(w.Label),
		Score:    w.Score,
		Box:      w.Box,
	}
	if len(w.Contour) >= 3 {
		d.Mask = mask.FillPolygon(w.Contour, int(w.Width), int(w.Height))
	}
	return d
}

// FromDetection converts a detection for the wire, compressing the mask to
// at most maxContour vertices.
func FromDetection(d segmodel.Detection, maxContour int) WireDetection {
	w := WireDetection{
		ObjectID: int32(d.ObjectID),
		Label:    int32(d.Label),
		Score:    d.Score,
		Box:      d.Box,
	}
	if d.Mask != nil {
		w.Width = int32(d.Mask.Width)
		w.Height = int32(d.Mask.Height)
		w.Contour = mask.LargestContour(d.Mask, 8, maxContour)
	}
	return w
}

// writer accumulates binary fields.
type writer struct{ buf []byte }

func (w *writer) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *writer) i32(v int32)   { w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(v)) }
func (w *writer) i64(v int64)   { w.buf = binary.BigEndian.AppendUint64(w.buf, uint64(v)) }
func (w *writer) f64(v float64) { w.buf = binary.BigEndian.AppendUint64(w.buf, math.Float64bits(v)) }
func (w *writer) f32(v float32) { w.buf = binary.BigEndian.AppendUint32(w.buf, math.Float32bits(v)) }
func (w *writer) bytes(b []byte) {
	w.i32(int32(len(b)))
	w.buf = append(w.buf, b...)
}

// reader consumes binary fields with bounds checking.
type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if r.off+n > len(r.buf) {
		r.err = ErrBadMessage
		return false
	}
	return true
}

// remaining returns the unread byte count — element-count fields are
// validated against it before allocating, so a tiny message claiming a
// huge count is rejected instead of triggering a large allocation.
func (r *reader) remaining() int { return len(r.buf) - r.off }

// done reports whether the message was consumed exactly. Trailing bytes
// are a framing violation: the length prefix must match the content.
func (r *reader) done() bool {
	if r.err != nil {
		return false
	}
	if r.off != len(r.buf) {
		r.err = ErrBadMessage
		return false
	}
	return true
}

func (r *reader) u8() uint8 {
	if !r.need(1) {
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *reader) i32() int32 {
	if !r.need(4) {
		return 0
	}
	v := int32(binary.BigEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	return v
}

func (r *reader) i64() int64 {
	if !r.need(8) {
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *reader) f64() float64 {
	if !r.need(8) {
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

func (r *reader) f32() float32 {
	if !r.need(4) {
		return 0
	}
	v := math.Float32frombits(binary.BigEndian.Uint32(r.buf[r.off:]))
	r.off += 4
	return v
}

func (r *reader) bytes() []byte {
	n := int(r.i32())
	if n < 0 || !r.need(n) {
		r.err = ErrBadMessage
		return nil
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v
}

// appendMask appends m's run-length encoding to dst: big-endian i32 width,
// height and run count, then the runs (alternating lengths of 0s and 1s,
// starting with 0s). The runs cover the row-major pixel stream the mask
// package exposed before the word-packed rewrite, so the wire bytes stay
// identical across versions (pinned by TestMaskWireFormatGolden);
// mask.AppendRunsBE writes exactly that stream straight from the packed
// words.
func appendMask(dst []byte, m *mask.Bitmask) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Width))
	dst = binary.BigEndian.AppendUint32(dst, uint32(m.Height))
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0) // run count, patched below
	dst = m.AppendRunsBE(dst)
	binary.BigEndian.PutUint32(dst[at:], uint32((len(dst)-at-4)/4))
	return dst
}

// decodeMask unpacks an RLE mask.
func decodeMask(b []byte) (*mask.Bitmask, error) {
	r := reader{buf: b}
	width := int(r.i32())
	height := int(r.i32())
	n := int(r.i32())
	if r.err != nil || width <= 0 || height <= 0 || width*height > MaxMessageBytes {
		return nil, ErrBadMessage
	}
	if n < 0 || 4*n > r.remaining() {
		return nil, ErrBadMessage
	}
	m := mask.New(width, height)
	total := width * height
	idx := 0
	cur := uint8(0)
	for i := 0; i < n; i++ {
		run := int(r.i32())
		if r.err != nil || run < 0 || idx+run > total {
			return nil, ErrBadMessage
		}
		if cur == 1 {
			m.FillSpan(idx, run)
		}
		idx += run
		cur ^= 1
	}
	if r.err != nil || idx != total || r.remaining() != 0 {
		return nil, ErrBadMessage
	}
	return m, nil
}

// MarshalFrame encodes a FrameMsg (without the outer length prefix). It
// sizes the message first and makes its one allocation at that size; each
// object's mask is run-length encoded in place.
func MarshalFrame(f *FrameMsg) []byte {
	w := writer{buf: make([]byte, 0, frameSize(f))}
	w.u8(protocolVersion)
	w.u8(TypeFrame)
	w.i32(f.FrameIndex)
	w.i32(f.Width)
	w.i32(f.Height)
	w.i64(f.Seed)
	w.i32(int32(len(f.Objects)))
	for _, o := range f.Objects {
		w.i32(int32(o.ObjectID))
		w.i32(int32(o.Label))
		w.i32(int32(o.Box.MinX))
		w.i32(int32(o.Box.MinY))
		w.i32(int32(o.Box.MaxX))
		w.i32(int32(o.Box.MaxY))
		at := len(w.buf)
		w.i32(0) // mask blob length, patched below
		w.buf = appendMask(w.buf, o.Visible)
		binary.BigEndian.PutUint32(w.buf[at:], uint32(len(w.buf)-at-4))
	}
	w.i32(f.TileCols)
	w.i32(int32(len(f.QualityLevels)))
	for _, q := range f.QualityLevels {
		w.f32(q)
	}
	w.i32(int32(len(f.Areas)))
	for _, a := range f.Areas {
		w.i32(int32(a.Box.MinX))
		w.i32(int32(a.Box.MinY))
		w.i32(int32(a.Box.MaxX))
		w.i32(int32(a.Box.MaxY))
		w.i32(int32(a.Label))
		known := int32(0)
		if a.Known {
			known = 1
		}
		w.i32(known)
	}
	w.i32(f.PaddingBytes)
	if f.PaddingBytes > 0 {
		w.buf = append(w.buf, make([]byte, f.PaddingBytes)...)
	}
	return w.buf
}

// frameSize is the exact length of MarshalFrame's output for f.
func frameSize(f *FrameMsg) int {
	n := 2 + 4 + 4 + 4 + 8 + 4 // version, type, index, width, height, seed, object count
	for _, o := range f.Objects {
		// id, label, box, blob length; the blob is appendMask's output
		n += 6*4 + 4 + 12 + 4*o.Visible.RunCount()
	}
	n += 4 + 4 + 4*len(f.QualityLevels) // tile columns, level count, levels
	n += 4 + 6*4*len(f.Areas)           // area count, areas
	n += 4                              // padding length
	if f.PaddingBytes > 0 {
		n += int(f.PaddingBytes)
	}
	return n
}

// UnmarshalFrame decodes a FrameMsg.
func UnmarshalFrame(b []byte) (*FrameMsg, error) {
	r := reader{buf: b}
	if r.u8() != protocolVersion || r.u8() != TypeFrame {
		return nil, ErrBadMessage
	}
	f := &FrameMsg{
		FrameIndex: r.i32(),
		Width:      r.i32(),
		Height:     r.i32(),
		Seed:       r.i64(),
	}
	nObj := int(r.i32())
	// Each object needs at least its six i32 fields plus a mask header.
	if r.err != nil || nObj < 0 || nObj > 4096 || 28*nObj > r.remaining() {
		return nil, ErrBadMessage
	}
	f.Objects = make([]segmodel.ObjectTruth, 0, nObj)
	for i := 0; i < nObj; i++ {
		o := segmodel.ObjectTruth{
			ObjectID: int(r.i32()),
			Label:    int(r.i32()),
		}
		o.Box = mask.Box{
			MinX: int(r.i32()), MinY: int(r.i32()),
			MaxX: int(r.i32()), MaxY: int(r.i32()),
		}
		mb := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		m, err := decodeMask(mb)
		if err != nil {
			return nil, err
		}
		o.Visible = m
		f.Objects = append(f.Objects, o)
	}
	f.TileCols = r.i32()
	nQ := int(r.i32())
	if r.err != nil || nQ < 0 || nQ > 1<<20 || 4*nQ > r.remaining() {
		return nil, ErrBadMessage
	}
	f.QualityLevels = make([]float32, nQ)
	for i := range f.QualityLevels {
		f.QualityLevels[i] = r.f32()
	}
	nA := int(r.i32())
	if r.err != nil || nA < 0 || nA > 4096 || 24*nA > r.remaining() {
		return nil, ErrBadMessage
	}
	f.Areas = make([]accel.Area, nA)
	for i := range f.Areas {
		f.Areas[i].Box = mask.Box{
			MinX: int(r.i32()), MinY: int(r.i32()),
			MaxX: int(r.i32()), MaxY: int(r.i32()),
		}
		f.Areas[i].Label = int(r.i32())
		f.Areas[i].Known = r.i32() == 1
	}
	f.PaddingBytes = r.i32()
	if r.err != nil {
		return nil, r.err
	}
	// The padding must actually be present and account for every byte left:
	// a truncated or over-long message is rejected rather than silently
	// reinterpreted.
	if f.PaddingBytes < 0 || int(f.PaddingBytes) != r.remaining() {
		return nil, ErrBadMessage
	}
	return f, nil
}

// MarshalResult encodes a ResultMsg.
func MarshalResult(m *ResultMsg) []byte {
	var w writer
	w.u8(protocolVersion)
	w.u8(TypeResult)
	w.i32(m.FrameIndex)
	w.f64(m.InferMs)
	w.i32(int32(len(m.Detections)))
	for _, d := range m.Detections {
		w.i32(d.ObjectID)
		w.i32(d.Label)
		w.f64(d.Score)
		w.i32(int32(d.Box.MinX))
		w.i32(int32(d.Box.MinY))
		w.i32(int32(d.Box.MaxX))
		w.i32(int32(d.Box.MaxY))
		w.i32(d.Width)
		w.i32(d.Height)
		w.i32(int32(len(d.Contour)))
		for _, v := range d.Contour {
			w.f32(float32(v.X))
			w.f32(float32(v.Y))
		}
	}
	return w.buf
}

// UnmarshalResult decodes a ResultMsg.
func UnmarshalResult(b []byte) (*ResultMsg, error) {
	r := reader{buf: b}
	if r.u8() != protocolVersion || r.u8() != TypeResult {
		return nil, ErrBadMessage
	}
	m := &ResultMsg{
		FrameIndex: r.i32(),
		InferMs:    r.f64(),
	}
	n := int(r.i32())
	// Each detection needs at least its fixed 44-byte header.
	if r.err != nil || n < 0 || n > 4096 || 44*n > r.remaining() {
		return nil, ErrBadMessage
	}
	m.Detections = make([]WireDetection, 0, n)
	for i := 0; i < n; i++ {
		d := WireDetection{
			ObjectID: r.i32(),
			Label:    r.i32(),
			Score:    r.f64(),
		}
		d.Box = mask.Box{
			MinX: int(r.i32()), MinY: int(r.i32()),
			MaxX: int(r.i32()), MaxY: int(r.i32()),
		}
		d.Width = r.i32()
		d.Height = r.i32()
		nc := int(r.i32())
		if r.err != nil || nc < 0 || nc > 1<<18 || 8*nc > r.remaining() {
			return nil, ErrBadMessage
		}
		d.Contour = make([]geom.Vec2, nc)
		for j := range d.Contour {
			d.Contour[j] = geom.V2(float64(r.f32()), float64(r.f32()))
		}
		m.Detections = append(m.Detections, d)
	}
	if !r.done() {
		return nil, r.err
	}
	return m, nil
}

// MarshalError encodes a TypeError message carrying a failure description.
func MarshalError(msg string) []byte {
	var w writer
	w.u8(protocolVersion)
	w.u8(TypeError)
	w.bytes([]byte(msg))
	return w.buf
}

// UnmarshalError decodes a TypeError message.
func UnmarshalError(b []byte) (string, error) {
	r := reader{buf: b}
	if r.u8() != protocolVersion || r.u8() != TypeError {
		return "", ErrBadMessage
	}
	text := r.bytes()
	if !r.done() {
		return "", r.err
	}
	return string(text), nil
}

// MarshalReject encodes a TypeReject message for one shed frame.
func MarshalReject(frameIndex int32) []byte {
	var w writer
	w.u8(protocolVersion)
	w.u8(TypeReject)
	w.i32(frameIndex)
	return w.buf
}

// UnmarshalReject decodes a TypeReject message, returning the shed frame's
// index.
func UnmarshalReject(b []byte) (int32, error) {
	r := reader{buf: b}
	if r.u8() != protocolVersion || r.u8() != TypeReject {
		return 0, ErrBadMessage
	}
	idx := r.i32()
	if !r.done() {
		return 0, r.err
	}
	return idx, nil
}

// MarshalShed encodes a TypeShed message for one displaced frame.
func MarshalShed(frameIndex int32, reason uint8) []byte {
	var w writer
	w.u8(protocolVersion)
	w.u8(TypeShed)
	w.i32(frameIndex)
	w.u8(reason)
	return w.buf
}

// UnmarshalShed decodes a TypeShed message, returning the displaced frame's
// index and the reason code.
func UnmarshalShed(b []byte) (int32, uint8, error) {
	r := reader{buf: b}
	if r.u8() != protocolVersion || r.u8() != TypeShed {
		return 0, 0, ErrBadMessage
	}
	idx := r.i32()
	reason := r.u8()
	if !r.done() {
		return 0, 0, r.err
	}
	return idx, reason, nil
}

// Resume-handshake limits: a session key is an identity token, not a
// payload, and a peer list is a handful of host:port strings.
const (
	maxSessionKeyBytes = 256
	maxFleetPeers      = 256
)

// ResumeMsg is the session-resume handshake a fleet client sends as the
// first message on a new connection. SessionKey is the stable cross-replica
// session identity; LastKeyframeEpoch is the frame index of the last
// keyframe result the client holds (-1 when it has none), which tells the
// adopting replica how stale the client's world is — the replica's own
// feature cache for this session starts cold either way, so the first
// frame after migration is served as a forced keyframe.
type ResumeMsg struct {
	SessionKey        string
	LastKeyframeEpoch int64
}

// ResumeAckMsg answers a ResumeMsg. Adopted reports whether the server
// attached the connection to the claimed session identity; Peers is the
// server's fleet peer list (its own address first when configured) so the
// client learns the replica set for failover.
type ResumeAckMsg struct {
	SessionKey string
	Adopted    bool
	Peers      []string
}

// MarshalResume encodes a TypeResume handshake.
func MarshalResume(m *ResumeMsg) []byte {
	var w writer
	w.u8(protocolVersion)
	w.u8(TypeResume)
	w.bytes([]byte(m.SessionKey))
	w.i64(m.LastKeyframeEpoch)
	return w.buf
}

// UnmarshalResume decodes a TypeResume handshake.
func UnmarshalResume(b []byte) (*ResumeMsg, error) {
	r := reader{buf: b}
	if r.u8() != protocolVersion || r.u8() != TypeResume {
		return nil, ErrBadMessage
	}
	key := r.bytes()
	if r.err != nil || len(key) == 0 || len(key) > maxSessionKeyBytes {
		return nil, ErrBadMessage
	}
	m := &ResumeMsg{SessionKey: string(key), LastKeyframeEpoch: r.i64()}
	if !r.done() {
		return nil, r.err
	}
	return m, nil
}

// MarshalResumeAck encodes a TypeResumeAck reply.
func MarshalResumeAck(m *ResumeAckMsg) []byte {
	var w writer
	w.u8(protocolVersion)
	w.u8(TypeResumeAck)
	w.bytes([]byte(m.SessionKey))
	adopted := uint8(0)
	if m.Adopted {
		adopted = 1
	}
	w.u8(adopted)
	w.i32(int32(len(m.Peers)))
	for _, p := range m.Peers {
		w.bytes([]byte(p))
	}
	return w.buf
}

// UnmarshalResumeAck decodes a TypeResumeAck reply.
func UnmarshalResumeAck(b []byte) (*ResumeAckMsg, error) {
	r := reader{buf: b}
	if r.u8() != protocolVersion || r.u8() != TypeResumeAck {
		return nil, ErrBadMessage
	}
	key := r.bytes()
	if r.err != nil || len(key) == 0 || len(key) > maxSessionKeyBytes {
		return nil, ErrBadMessage
	}
	m := &ResumeAckMsg{SessionKey: string(key), Adopted: r.u8() == 1}
	n := int(r.i32())
	// Each peer needs at least its 4-byte length prefix.
	if r.err != nil || n < 0 || n > maxFleetPeers || 4*n > r.remaining() {
		return nil, ErrBadMessage
	}
	m.Peers = make([]string, 0, n)
	for i := 0; i < n; i++ {
		p := r.bytes()
		if r.err != nil || len(p) > maxSessionKeyBytes {
			return nil, ErrBadMessage
		}
		m.Peers = append(m.Peers, string(p))
	}
	if !r.done() {
		return nil, r.err
	}
	return m, nil
}

// MessageType peeks a payload's type tag without decoding the body.
func MessageType(b []byte) (uint8, error) {
	if len(b) < 2 || b[0] != protocolVersion {
		return 0, ErrBadMessage
	}
	return b[1], nil
}

// WriteMessage writes a length-prefixed message to the stream.
func WriteMessage(w io.Writer, payload []byte) error {
	if len(payload) > MaxMessageBytes {
		return ErrTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("transport: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("transport: write payload: %w", err)
	}
	return nil
}

// ReadMessage reads one length-prefixed message.
func ReadMessage(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxMessageBytes {
		return nil, ErrTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("transport: read payload: %w", err)
	}
	return payload, nil
}
