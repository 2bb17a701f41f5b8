// Package ckpt is the checkpoint wire format shared by the campaign
// (measure.Checkpoint) and the daemon (daemon.Checkpoint): one frame, one set
// of primitives, one atomic write path. The two checkpoint kinds lay their
// fields out with the Encoder and read them back with the Decoder; both embed
// the same measure.AccState body.
//
// Frame (docs/checkpoint.md has the byte-level tables):
//
//	magic "PTCK" | kind | version | body ... | body length u64 | CRC-32C u32
//
// The body is streamed through a fixed 64 KiB buffer into the writer — a
// checkpoint is never materialized in memory — so its length and checksum
// trail it. The checksum covers every preceding byte of the file.
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
// the first failure every call is a no-op and Encode returns the error.
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

// uvarint appends an unsigned varint, the base of Int and Len.
func (e *Encoder) uvarint(v uint64) {
	e.room(maxField)
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Int appends a zigzag varint: small magnitudes of either sign stay short.
func (e *Encoder) Int(v int64) { e.uvarint(uint64(v<<1) ^ uint64(v>>63)) }

// Len appends a count or length prefix.
func (e *Encoder) Len(n int) { e.uvarint(uint64(n)) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(b bool) {
	e.room(1)
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// U64 appends a fixed little-endian 64-bit value (hashes).
func (e *Encoder) U64(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// U64s appends fixed little-endian 64-bit values back to back, with no count:
// the caller's layout says how many there are. In memory and on disk a value
// is the same eight bytes, so this is a copy through the buffer.
func (e *Encoder) U64s(vs []uint64) {
	for len(vs) > 0 {
		if cap(e.buf)-len(e.buf) < 8 {
			e.flush()
		}
		n := min(len(vs), (cap(e.buf)-len(e.buf))/8)
		for _, v := range vs[:n] {
			e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
		}
		vs = vs[n:]
	}
}

// Addr appends an address: tag 0 for the invalid address (a star hop), tag 4
// followed by the four bytes of an IPv4 address.
func (e *Encoder) Addr(a netip.Addr) {
	e.room(5)
	switch {
	case !a.IsValid():
		e.buf = append(e.buf, 0)
	case a.Is4():
		b := a.As4()
		e.buf = append(e.buf, 4, b[0], b[1], b[2], b[3])
	default:
		e.Fail(fmt.Errorf("ckpt: cannot encode non-IPv4 address %v", a))
	}
}

// Bytes appends a length-prefixed opaque byte string.
func (e *Encoder) Bytes(p []byte) {
	e.Len(len(p))
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
	err error
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
	d := &Decoder{buf: data[headerLen:end]}
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
	d.Fail(fmt.Errorf("%w: at byte %d: %s", ErrCorrupt, headerLen+d.off, fmt.Sprintf(format, args...)))
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

// U64s reads n values written by Encoder.U64s into a fresh slice (nil when n
// is 0), checking n against the bytes remaining before it allocates.
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

// Addr reads an address written by Encoder.Addr.
func (d *Decoder) Addr() netip.Addr {
	tag := d.take(1)
	if tag == nil {
		return netip.Addr{}
	}
	switch tag[0] {
	case 0:
		return netip.Addr{}
	case 4:
		p := d.take(4)
		if p == nil {
			return netip.Addr{}
		}
		return netip.AddrFrom4([4]byte(p))
	}
	d.corrupt("address tag %#x", tag[0])
	return netip.Addr{}
}

// Bytes reads a length-prefixed byte string into a fresh slice (nil when
// empty).
func (d *Decoder) Bytes() []byte {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	return append([]byte(nil), d.take(n)...)
}
