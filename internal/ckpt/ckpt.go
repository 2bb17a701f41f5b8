// Package ckpt is the checkpoint wire format shared by the campaign
// (measure.Checkpoint) and the daemon (daemon.Checkpoint): one frame, one set
// of primitives, one atomic write path. The two checkpoint kinds lay their
// fields out with the Encoder and read them back with the Decoder; both embed
// accumulator bodies (measure.AccState), whose head measure.Accumulator.State
// appends with these same primitives' append forms (AppendBool, AppendAddr)
// and DecodeBody reads back.
//
// Frame (docs/checkpoint.md has the byte-level tables):
//
//	magic "PTCK" | kind | version | body ... | body length u64 | CRC-32C u32
//
// The body is streamed through a fixed 64 KiB buffer into the writer, so its
// length and checksum trail it. Most of it is accumulator bodies, whose hop
// cells are streamed through that buffer too (Raw, U64), so nothing the size
// of the file is held in memory. The checksum covers every preceding byte of
// the file.
//
// Every value has exactly one encoding (minimal varints, 0/1 booleans, 0/4
// address tags), so decode followed by encode reproduces an accepted file
// byte for byte, and equal states give equal files. The decoder is total on
// arbitrary bytes: it never panics, and every count is checked against the
// bytes that remain before anything is allocated, so allocation is bounded by
// a constant multiple of the input length.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"net/netip"
	"os"

	"repro/internal/atomicio"
)

// Kind says which checkpoint a file holds, so a daemon can never recover from
// a campaign's file or the reverse.
type Kind byte

const (
	KindCampaign Kind = 1
	KindDaemon   Kind = 2
)

func (k Kind) String() string {
	switch k {
	case KindCampaign:
		return "campaign"
	case KindDaemon:
		return "daemon"
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// The ways a file can fail to be a checkpoint, distinguishable with
// errors.Is.
var (
	// ErrLegacyJSON: the file is one of the JSON checkpoints written before
	// the binary format (campaign versions 1-2, daemon version 1).
	ErrLegacyJSON = errors.New("legacy JSON checkpoint (campaign format 2 or older, daemon format 1) from before the binary format; it cannot be resumed by this build — start the run over")
	ErrBadMagic   = errors.New("not a checkpoint file (bad magic)")
	ErrTruncated  = errors.New("checkpoint truncated")
	ErrChecksum   = errors.New("checkpoint checksum mismatch")
	ErrKind       = errors.New("checkpoint of the wrong kind")
	ErrVersion    = errors.New("unsupported checkpoint version")
	// ErrCorrupt: the frame verified but the body is not a canonical
	// encoding (only a foreign writer or a bug produces this).
	ErrCorrupt = errors.New("checkpoint body malformed")
)

const (
	magic      = "PTCK"
	headerLen  = len(magic) + 2 // magic, kind, version
	trailerLen = 8 + 4          // body length, CRC-32C
	bufSize    = 64 << 10
	// maxField is the longest single primitive (a 10-byte varint); Bytes
	// chunks its payload separately.
	maxField = binary.MaxVarintLen64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder appends primitives to a checkpoint body. Errors are sticky: after
// the first failure every call is a no-op and Encode returns the error. It
// writes no addresses: only an accumulator body holds them, in the head
// measure.Accumulator.State appends (AppendAddr), which Raw streams.
type Encoder struct {
	w   io.Writer
	buf []byte
	crc uint32
	n   uint64 // bytes flushed so far
	err error
}

// Encode writes one framed checkpoint to w, calling body to lay out the
// fields.
func Encode(w io.Writer, kind Kind, version uint8, body func(*Encoder)) error {
	e := &Encoder{w: w, buf: make([]byte, 0, bufSize)}
	e.buf = append(e.buf, magic...)
	e.buf = append(e.buf, byte(kind), version)
	body(e)
	e.U64(e.n + uint64(len(e.buf)) - uint64(headerLen))
	e.flush()
	// e.crc now covers everything before the checksum itself.
	e.buf = binary.LittleEndian.AppendUint32(e.buf, e.crc)
	e.flush()
	return e.err
}

// WriteFile installs one framed checkpoint at path atomically
// (atomicio.WriteFileFunc: temp file, fsync, rename, directory fsync).
func WriteFile(path string, kind Kind, version uint8, body func(*Encoder)) error {
	return atomicio.WriteFileFunc(path, func(w io.Writer) error {
		return Encode(w, kind, version, body)
	})
}

func (e *Encoder) flush() {
	if e.err == nil && len(e.buf) > 0 {
		e.crc = crc32.Update(e.crc, castagnoli, e.buf)
		e.n += uint64(len(e.buf))
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// room makes space for n more bytes (n <= maxField).
func (e *Encoder) room(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

// Fail records err (if it is the first) and turns the rest of the encode into
// a no-op.
func (e *Encoder) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// Int appends a zigzag varint (binary.AppendVarint): small magnitudes of
// either sign stay short.
func (e *Encoder) Int(v int64) {
	e.room(maxField)
	e.buf = binary.AppendVarint(e.buf, v)
}

// Len appends a count or length prefix.
func (e *Encoder) Len(n int) {
	e.room(maxField)
	e.buf = binary.AppendUvarint(e.buf, uint64(n))
}

// Bool appends a boolean (AppendBool).
func (e *Encoder) Bool(b bool) {
	e.room(1)
	e.buf = AppendBool(e.buf, b)
}

// AppendBool appends a boolean's one encoding: one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendAddr appends an address that is not IPv6 (its As4 panics on one):
// tag 0 for none, or AppendIPv4 of its four bytes.
func AppendAddr(b []byte, a netip.Addr) []byte {
	if !a.IsValid() {
		return append(b, 0)
	}
	return AppendIPv4(b, a.As4())
}

// AppendIPv4 appends an IPv4 address given as its four bytes: tag 4, then
// the bytes.
func AppendIPv4(b []byte, a4 [4]byte) []byte {
	return append(b, 4, a4[0], a4[1], a4[2], a4[3])
}

// U64 appends a fixed little-endian 64-bit value (hashes, hop cells).
func (e *Encoder) U64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Bytes appends a length-prefixed opaque byte string.
func (e *Encoder) Bytes(p []byte) {
	e.Len(len(p))
	e.Raw(p)
}

// Raw appends p as it is: a run of a body whose length prefix is written
// already (measure.Checkpoint.Encode streams an accumulator body in runs).
func (e *Encoder) Raw(p []byte) {
	for len(p) > 0 {
		if len(e.buf) == cap(e.buf) {
			e.flush()
		}
		n := copy(e.buf[len(e.buf):cap(e.buf)], p)
		e.buf = e.buf[:len(e.buf)+n]
		p = p[n:]
	}
}

// Decoder reads primitives back from a verified checkpoint body. Errors are
// sticky: after the first failure every read returns a zero value and every
// Len returns 0, so decoding loops wind down without special cases.
type Decoder struct {
	buf []byte
	off int
	// base is buf's offset in what the caller decodes, for error messages.
	base int
	err  error
}

// Decode verifies data's frame — magic, kind, version, length, checksum, in
// that order, each with its own error — then calls body to read the fields
// and requires it to consume the body exactly.
func Decode(data []byte, kind Kind, version uint8, body func(*Decoder)) error {
	if len(data) > 0 && data[0] == '{' {
		return ErrLegacyJSON
	}
	if len(data) < len(magic) {
		return ErrTruncated
	}
	if string(data[:len(magic)]) != magic {
		return ErrBadMagic
	}
	if len(data) < headerLen {
		return ErrTruncated
	}
	if k := Kind(data[len(magic)]); k != kind {
		return fmt.Errorf("%w: a %v checkpoint, want %v", ErrKind, k, kind)
	}
	if v := data[len(magic)+1]; v != version {
		return fmt.Errorf("%w: version %d, want %d", ErrVersion, v, version)
	}
	if len(data) < headerLen+trailerLen {
		return ErrTruncated
	}
	end := len(data) - trailerLen
	if binary.LittleEndian.Uint64(data[end:]) != uint64(end-headerLen) {
		return ErrTruncated
	}
	if crc32.Checksum(data[:end+8], castagnoli) != binary.LittleEndian.Uint32(data[end+8:]) {
		return ErrChecksum
	}
	return decode(data[headerLen:end], headerLen, body)
}

// DecodeBody calls body to read the fields of a bare body — one written
// without a frame, as measure.Accumulator.State writes an accumulator — and
// requires it to consume data exactly.
func DecodeBody(data []byte, body func(*Decoder)) error {
	return decode(data, 0, body)
}

func decode(data []byte, base int, body func(*Decoder)) error {
	d := &Decoder{buf: data, base: base}
	body(d)
	if d.err == nil && d.off != len(d.buf) {
		d.corrupt("%d bytes after the last field", len(d.buf)-d.off)
	}
	return d.err
}

// ReadFile reads path and decodes it as Decode does. The os error is
// returned unwrapped, so callers can test it with os.IsNotExist.
func ReadFile(path string, kind Kind, version uint8, body func(*Decoder)) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Decode(data, kind, version, body)
}

// Fail records err (if it is the first) and turns the rest of the decode into
// a no-op.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
		d.off = len(d.buf)
	}
}

func (d *Decoder) corrupt(format string, args ...any) {
	d.Fail(fmt.Errorf("%w: at byte %d: %s", ErrCorrupt, d.base+d.off, fmt.Sprintf(format, args...)))
}

// take returns the next n bytes, or nil after recording the overrun.
func (d *Decoder) take(n int) []byte {
	if n > len(d.buf)-d.off {
		d.corrupt("field of %d bytes overruns the body", n)
		return nil
	}
	p := d.buf[d.off : d.off+n]
	d.off += n
	return p
}

// uvarint reads an unsigned varint, refusing non-minimal encodings.
func (d *Decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.corrupt("bad varint")
		return 0
	}
	if n != (bits.Len64(v|1)+6)/7 {
		d.corrupt("non-minimal varint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Len reads a count of elements that each occupy at least minBytes of input
// and checks it against the bytes remaining, so the caller can allocate count
// elements knowing the input really is that long.
func (d *Decoder) Len(minBytes int) int {
	v := d.uvarint()
	if v > uint64(len(d.buf)-d.off)/uint64(minBytes) {
		d.corrupt("count %d overruns the body", v)
		return 0
	}
	return int(v)
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() bool {
	p := d.take(1)
	if p == nil {
		return false
	}
	if p[0] > 1 {
		d.corrupt("boolean byte %#x", p[0])
	}
	return p[0] == 1
}

// U64 reads a fixed little-endian 64-bit value.
func (d *Decoder) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// U64s reads n fixed little-endian 64-bit values, as an accumulator body
// holds its hop cells (measure.Accumulator.State), into a fresh slice (nil
// when n is 0), checking n against the bytes remaining before it allocates.
func (d *Decoder) U64s(n int) []uint64 {
	if n < 0 || n > (len(d.buf)-d.off)/8 {
		d.corrupt("%d fixed 64-bit values overrun the body", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := d.take(8 * n)
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = binary.LittleEndian.Uint64(p[8*i:])
	}
	return vs
}

// Addr reads an address AppendAddr or AppendIPv4 wrote: tag 0 for none, tag
// 4 and four bytes for IPv4.
func (d *Decoder) Addr() netip.Addr {
	switch tag := d.take(1); {
	case tag == nil || tag[0] == 0:
	case tag[0] == 4:
		if p := d.take(4); p != nil {
			return netip.AddrFrom4([4]byte(p))
		}
	default:
		d.corrupt("address tag %#x", tag[0])
	}
	return netip.Addr{}
}

// Bytes reads a length-prefixed byte string (nil when empty). It is a slice
// of the data being decoded, not a copy.
func (d *Decoder) Bytes() []byte {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	return d.take(n)[:n:n]
}
