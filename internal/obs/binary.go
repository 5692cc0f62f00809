package obs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Binary trace format ("tomtrace v1").
//
// JSON lines spend 50-90 bytes per lifecycle event; at full Fig. 9 scale
// that is the difference between a trace you leave on and one you don't.
// The binary format, which every trace producer writes, encodes the same
// Event stream in a few bytes per record:
//
//	header:  8-byte magic "TOMTRACE", uvarint format version (currently 1)
//	record:  kind      string ref (interned, see below)
//	         cycle     zigzag varint delta vs. the previous record
//	         presence  uvarint bitmap, one bit per optional field
//	         fields    in bit order, only those whose presence bit is set
//
// Strings (Kind, Run, Reason) share one interning table: ref 0 introduces a
// new string (uvarint length + bytes) and assigns it the next index; ref k>0
// refers to table entry k-1. Kinds, run labels, and gate reasons form a
// small closed set, so after the first few records every string costs one
// byte.
//
// Integer fields (SM, Stack, PC, Bytes, N, Bit, Kept) are zigzag varint
// deltas against the previous *encoded* value of the same field; a clear
// presence bit means the field holds its zero value (0, nil Bit, empty
// string) and leaves the delta state untouched. The presence bitmap is what
// makes zero unambiguous: an absent field decodes to exactly the zero the
// encoder saw, and a present field — including Stack -1 or a Bit pointer to
// 0 — round-trips verbatim, so the format has no omitempty-style aliasing
// by construction.
//
// The encoding is fully deterministic: the same event stream always
// produces the same bytes (tested property).
const (
	binaryMagic   = "TOMTRACE"
	binaryVersion = 1
)

// Presence bits, in field encode order.
const (
	fRun = 1 << iota
	fSM
	fStack
	fPC
	fReason
	fBytes
	fN
	fBit
	fKept
)

// Delta-state slots for the integer fields.
const (
	dSM = iota
	dStack
	dPC
	dBytes
	dN
	dBit
	dKept
	numDeltas
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// binState is the shared encoder/decoder state: the string intern table and
// the per-field delta accumulators. Encoder and decoder evolve identical
// copies record by record.
type binState struct {
	refs      map[string]uint64 // encoder: string -> 1-based ref
	strs      []string          // decoder: ref-1 -> string (encoder mirrors it for len)
	prevCycle int64
	prev      [numDeltas]int64
}

func newBinState() *binState {
	return &binState{refs: map[string]uint64{}}
}

// appendString encodes s against the intern table.
func (st *binState) appendString(buf []byte, s string) []byte {
	if ref, ok := st.refs[s]; ok {
		return binary.AppendUvarint(buf, ref)
	}
	st.strs = append(st.strs, s)
	st.refs[s] = uint64(len(st.strs))
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendDelta encodes v as a zigzag delta for field slot d.
func (st *binState) appendDelta(buf []byte, d int, v int64) []byte {
	buf = binary.AppendUvarint(buf, zigzag(v-st.prev[d]))
	st.prev[d] = v
	return buf
}

// appendEvent encodes one record.
func (st *binState) appendEvent(buf []byte, ev Event) []byte {
	buf = st.appendString(buf, ev.Kind)
	buf = binary.AppendUvarint(buf, zigzag(ev.Cycle-st.prevCycle))
	st.prevCycle = ev.Cycle

	var mask uint64
	if ev.Run != "" {
		mask |= fRun
	}
	if ev.SM != 0 {
		mask |= fSM
	}
	if ev.Stack != 0 {
		mask |= fStack
	}
	if ev.PC != 0 {
		mask |= fPC
	}
	if ev.Reason != "" {
		mask |= fReason
	}
	if ev.Bytes != 0 {
		mask |= fBytes
	}
	if ev.N != 0 {
		mask |= fN
	}
	if ev.Bit != nil {
		mask |= fBit
	}
	if ev.Kept != 0 {
		mask |= fKept
	}
	buf = binary.AppendUvarint(buf, mask)

	if mask&fRun != 0 {
		buf = st.appendString(buf, ev.Run)
	}
	if mask&fSM != 0 {
		buf = st.appendDelta(buf, dSM, int64(ev.SM))
	}
	if mask&fStack != 0 {
		buf = st.appendDelta(buf, dStack, int64(ev.Stack))
	}
	if mask&fPC != 0 {
		buf = st.appendDelta(buf, dPC, int64(ev.PC))
	}
	if mask&fReason != 0 {
		buf = st.appendString(buf, ev.Reason)
	}
	if mask&fBytes != 0 {
		buf = st.appendDelta(buf, dBytes, int64(ev.Bytes))
	}
	if mask&fN != 0 {
		buf = st.appendDelta(buf, dN, int64(ev.N))
	}
	if mask&fBit != 0 {
		buf = st.appendDelta(buf, dBit, int64(*ev.Bit))
	}
	if mask&fKept != 0 {
		buf = st.appendDelta(buf, dKept, int64(ev.Kept))
	}
	return buf
}

// BinarySink writes events in the binary trace format (the encoding of every
// trace tomsim, tomx and tomserve write). Writes are buffered; call Flush
// before the underlying writer is closed. Like JSONLSink, the first write error is
// retained and later events are dropped. Safe for concurrent Emit.
type BinarySink struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	st      *binState
	scratch []byte
	err     error
}

// NewBinarySink wraps w in a buffered binary-trace encoder and queues the
// version-tagged header; any write error (including the header's) surfaces
// through Flush.
func NewBinarySink(w io.Writer) *BinarySink {
	bw := bufio.NewWriterSize(w, 1<<16)
	s := &BinarySink{bw: bw, st: newBinState()}
	var hdr []byte
	hdr = append(hdr, binaryMagic...)
	hdr = binary.AppendUvarint(hdr, binaryVersion)
	if _, err := bw.Write(hdr); err != nil {
		s.err = err
	}
	return s
}

// Emit writes one event. The first write error is retained (and returned by
// Flush); later events are dropped.
func (s *BinarySink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.scratch = s.st.appendEvent(s.scratch[:0], ev)
	if _, err := s.bw.Write(s.scratch); err != nil {
		s.err = err
	}
}

// Flush drains the buffer and returns the first error seen.
func (s *BinarySink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.bw.Flush()
	return s.err
}

// maxBinaryString bounds interned-string lengths on decode, so a corrupt
// length prefix fails cleanly instead of attempting a huge allocation.
const maxBinaryString = 1 << 16

// BinaryReader decodes a binary trace produced by BinarySink.
type BinaryReader struct {
	br *bufio.Reader
	st *binState
}

// NewBinaryReader validates the header and returns a reader positioned at
// the first record.
func NewBinaryReader(r io.Reader) (*BinaryReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("obs: not a binary trace: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("obs: not a binary trace (magic %q)", magic)
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("obs: binary trace header: %w", err)
	}
	if v == 0 || v > binaryVersion {
		return nil, fmt.Errorf("obs: binary trace version %d not supported (max %d)", v, binaryVersion)
	}
	return &BinaryReader{br: br, st: newBinState()}, nil
}

// readString decodes one interned string.
func (d *BinaryReader) readString() (string, error) {
	ref, err := binary.ReadUvarint(d.br)
	if err != nil {
		return "", err
	}
	if ref > 0 {
		if ref > uint64(len(d.st.strs)) {
			return "", fmt.Errorf("obs: binary trace: string ref %d beyond table size %d", ref, len(d.st.strs))
		}
		return d.st.strs[ref-1], nil
	}
	n, err := binary.ReadUvarint(d.br)
	if err != nil {
		return "", eofIsUnexpected(err)
	}
	if n > maxBinaryString {
		return "", fmt.Errorf("obs: binary trace: string length %d exceeds limit", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(d.br, b); err != nil {
		return "", eofIsUnexpected(err)
	}
	s := string(b)
	d.st.strs = append(d.st.strs, s)
	return s, nil
}

// readDelta decodes one zigzag delta for field slot i.
func (d *BinaryReader) readDelta(i int) (int64, error) {
	u, err := binary.ReadUvarint(d.br)
	if err != nil {
		return 0, eofIsUnexpected(err)
	}
	d.st.prev[i] += unzigzag(u)
	return d.st.prev[i], nil
}

// Next returns the next event, or io.EOF at a clean end of stream. Any
// other error (including io.ErrUnexpectedEOF on a truncated record) means
// the trace is corrupt past this point.
func (d *BinaryReader) Next() (Event, error) {
	var ev Event
	// A clean EOF can only fall on a record boundary, i.e. before the kind.
	kind, err := d.readString()
	if err != nil {
		return ev, err
	}
	ev.Kind = kind
	cu, err := binary.ReadUvarint(d.br)
	if err != nil {
		return ev, eofIsUnexpected(err)
	}
	d.st.prevCycle += unzigzag(cu)
	ev.Cycle = d.st.prevCycle
	mask, err := binary.ReadUvarint(d.br)
	if err != nil {
		return ev, eofIsUnexpected(err)
	}
	if mask&fRun != 0 {
		if ev.Run, err = d.readString(); err != nil {
			return ev, eofIsUnexpected(err)
		}
	}
	var v int64
	if mask&fSM != 0 {
		if v, err = d.readDelta(dSM); err != nil {
			return ev, err
		}
		ev.SM = int(v)
	}
	if mask&fStack != 0 {
		if v, err = d.readDelta(dStack); err != nil {
			return ev, err
		}
		ev.Stack = int(v)
	}
	if mask&fPC != 0 {
		if v, err = d.readDelta(dPC); err != nil {
			return ev, err
		}
		ev.PC = int(v)
	}
	if mask&fReason != 0 {
		if ev.Reason, err = d.readString(); err != nil {
			return ev, eofIsUnexpected(err)
		}
	}
	if mask&fBytes != 0 {
		if v, err = d.readDelta(dBytes); err != nil {
			return ev, err
		}
		ev.Bytes = int(v)
	}
	if mask&fN != 0 {
		if v, err = d.readDelta(dN); err != nil {
			return ev, err
		}
		ev.N = int(v)
	}
	if mask&fBit != 0 {
		if v, err = d.readDelta(dBit); err != nil {
			return ev, err
		}
		ev.Bit = BitValue(int(v))
	}
	if mask&fKept != 0 {
		if v, err = d.readDelta(dKept); err != nil {
			return ev, err
		}
		ev.Kept = int(v)
	}
	return ev, nil
}

// eofIsUnexpected maps a mid-record io.EOF to io.ErrUnexpectedEOF, so only
// a clean record boundary reads as end-of-stream.
func eofIsUnexpected(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
