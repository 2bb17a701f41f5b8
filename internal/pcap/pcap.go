// Package pcap reads and writes the classic pcap capture format
// (https://datatracker.ietf.org/doc/draft-ietf-opsawg-pcap/), the lingua
// franca of packet tooling: anything this package writes opens in
// tcpdump/tshark, and LINKTYPE_RAW captures taken elsewhere replay through
// the tracer.
//
// The live layer's probes and responses are raw IPv4 datagrams (the
// transport injects full headers via IP_HDRINCL and receives full headers
// from the raw sockets), so captures use LINKTYPE_RAW — each record's
// bytes start at the IP version nibble, no link-layer framing — and the
// readers refuse every other link type (errLinkType) rather than hand
// Ethernet frames to code that expects IP headers. Writers always emit the
// nanosecond-resolution magic in little-endian byte order; readers accept
// all four dialects (micro/nano × little/big endian).
//
// There are two readers over one set of header decoders. Reader streams:
// one record at a time, each freshly allocated. Scanner frames a capture
// already in memory: one record at a time, each a sub-slice of the input,
// with no allocation at all; ReadAll reads its input whole and collects
// what a Scanner frames. A record's timestamp is Unix nanoseconds.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

const (
	// magicNano and magicMicro are the file magics for nanosecond- and
	// microsecond-resolution captures, as written in the file's own byte
	// order (reading them "backwards" reveals a foreign-endian file).
	magicNano  = 0xa1b23c4d
	magicMicro = 0xa1b2c3d4

	// linkTypeRaw is LINKTYPE_RAW: packet bytes begin at the IPv4/IPv6
	// header. The only link type written, and the only one read.
	linkTypeRaw = 101

	// snapLen is the capture length written into new files. Probes and
	// responses are single datagrams well under one MTU, so nothing is
	// ever truncated at this snap length.
	snapLen = 65535

	fileHeaderLen   = 24
	recordHeaderLen = 16

	// maxRecordLen bounds a record's claimed capture length so corrupt or
	// adversarial headers cannot force huge allocations (fuzzed).
	maxRecordLen = 1 << 20
)

// Errors the readers distinguish: a file that is not pcap at all, one that
// ends mid-structure (a torn write), and a well-formed capture of some
// other link layer (an Ethernet capture from tcpdump, say).
var (
	errBadMagic  = errors.New("pcap: bad magic (not a pcap file)")
	ErrTruncated = errors.New("pcap: truncated file")
	errLinkType  = errors.New("pcap: unsupported link type")
)

// Record is one captured packet: its capture timestamp and its bytes
// starting at the IP header (LINKTYPE_RAW).
type Record struct {
	TS   int64 // Unix nanoseconds
	Data []byte
}

// Writer streams records to w in classic pcap format. Not safe for
// concurrent use; the Capture sink adds the locking the live taps need.
type Writer struct {
	w   io.Writer
	buf [recordHeaderLen]byte
}

// NewWriter writes the global header (nanosecond magic, version 2.4,
// LINKTYPE_RAW, little-endian) and returns a Writer for the records.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [fileHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], magicNano)
	le.PutUint16(hdr[4:], 2) // version major
	le.PutUint16(hdr[6:], 4) // version minor
	// hdr[8:16]: thiszone and sigfigs, zero by convention.
	le.PutUint32(hdr[16:], snapLen)
	le.PutUint32(hdr[20:], linkTypeRaw)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing file header: %w", err)
	}
	return &Writer{w: w}, nil
}

// WritePacket appends one record. The timestamp is split into Unix
// seconds plus nanoseconds; data is written in full (callers never exceed
// snapLen, so incl_len == orig_len always).
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	if len(data) > snapLen {
		return fmt.Errorf("pcap: packet of %d bytes exceeds snap length %d", len(data), snapLen)
	}
	le := binary.LittleEndian
	le.PutUint32(w.buf[0:], uint32(ts.Unix()))
	le.PutUint32(w.buf[4:], uint32(ts.Nanosecond()))
	le.PutUint32(w.buf[8:], uint32(len(data)))
	le.PutUint32(w.buf[12:], uint32(len(data)))
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

// format is what a capture's file header fixes for every record after it:
// byte order and timestamp resolution.
type format struct {
	bigEndian bool
	nano      bool
}

func (f format) u32(b []byte) uint32 {
	if f.bigEndian {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// parseFileHeader decodes the global header (hdr holds exactly
// fileHeaderLen bytes), detecting byte order and timestamp resolution from
// the magic. Every record this package returns is documented to start at
// the IP header, so any link type but LINKTYPE_RAW is refused here, once,
// for the streaming and the in-memory reader alike.
func parseFileHeader(hdr []byte) (format, error) {
	var f format
	switch magic := binary.LittleEndian.Uint32(hdr[0:]); magic {
	case magicNano:
		f.nano = true
	case magicMicro:
	default:
		f.bigEndian = true
		switch magic := binary.BigEndian.Uint32(hdr[0:]); magic {
		case magicNano:
			f.nano = true
		case magicMicro:
		default:
			return format{}, fmt.Errorf("%w: 0x%08x", errBadMagic, magic)
		}
	}
	if lt := f.u32(hdr[20:]); lt != linkTypeRaw {
		return format{}, fmt.Errorf("%w: file has link type %d%s, need LINKTYPE_RAW (%d): records must start at the IP header, with no link-layer framing",
			errLinkType, lt, linkTypeName(lt), linkTypeRaw)
	}
	return f, nil
}

// linkTypeName names the link types a capture taken with stock tools is
// likely to carry, for the refusal message.
func linkTypeName(lt uint32) string {
	switch lt {
	case 0:
		return " (BSD loopback)"
	case 1:
		return " (Ethernet)"
	case 113:
		return " (Linux cooked capture)"
	case 276:
		return " (Linux cooked capture v2)"
	}
	return ""
}

// recordHeader decodes one record header (hdr holds exactly recordHeaderLen
// bytes) into the capture timestamp, Unix nanoseconds, and the number of
// data bytes that follow, refusing impossible values: a capture length above
// maxRecordLen or a sub-second fraction of a second or more.
func (f format) recordHeader(hdr []byte) (ts int64, incl int, err error) {
	frac := f.u32(hdr[4:])
	n := f.u32(hdr[8:])
	if n > maxRecordLen {
		return 0, 0, fmt.Errorf("pcap: record claims %d bytes captured (max %d): corrupt header", n, maxRecordLen)
	}
	nsec := int64(frac)
	if f.nano {
		if frac >= 1e9 {
			return 0, 0, fmt.Errorf("pcap: record timestamp has %d nanoseconds: corrupt header", frac)
		}
	} else {
		if frac >= 1e6 {
			return 0, 0, fmt.Errorf("pcap: record timestamp has %d microseconds: corrupt header", frac)
		}
		nsec *= 1000
	}
	// A uint32 of seconds times 1e9 stays below 2^63: no overflow.
	return int64(f.u32(hdr[0:]))*1e9 + nsec, int(n), nil
}

// The truncation errors, shared so a torn file reads the same through
// either reader.
func errShortFileHeader(n int) error {
	if n == 0 {
		return fmt.Errorf("%w: empty input", ErrTruncated)
	}
	return fmt.Errorf("%w: file header is %d bytes, need %d", ErrTruncated, n, fileHeaderLen)
}

func errShortRecordHeader(n int) error {
	return fmt.Errorf("%w: record header cut at %d of %d bytes", ErrTruncated, n, recordHeaderLen)
}

func errShortRecordData(n, incl int) error {
	return fmt.Errorf("%w: record data cut at %d of %d bytes", ErrTruncated, n, incl)
}

// Reader iterates the records of a pcap stream in capture order, holding
// one record at a time. For a capture already in memory use Scanner, which
// slices it instead of copying.
type Reader struct {
	r   io.Reader
	f   format
	buf [recordHeaderLen]byte
}

// NewReader parses the global header. It returns errBadMagic for non-pcap
// input, ErrTruncated for a header cut short and errLinkType for a capture
// whose records do not start at the IP header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [fileHeaderLen]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return nil, errShortFileHeader(n)
		}
		return nil, fmt.Errorf("pcap: reading file header: %w", err)
	}
	f, err := parseFileHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	return &Reader{r: r, f: f}, nil
}

// Next returns the next record, io.EOF at a clean end of stream, or
// ErrTruncated if the stream ends inside a record. The returned Data is
// freshly allocated and owned by the caller.
func (r *Reader) Next() (Record, error) {
	if n, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if n == 0 && err == io.EOF {
			return Record{}, io.EOF
		}
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return Record{}, errShortRecordHeader(n)
		}
		return Record{}, fmt.Errorf("pcap: reading record header: %w", err)
	}
	ts, incl, err := r.f.recordHeader(r.buf[:])
	if err != nil {
		return Record{}, err
	}
	data := make([]byte, incl)
	if n, err := io.ReadFull(r.r, data); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			return Record{}, errShortRecordData(n, incl)
		}
		return Record{}, fmt.Errorf("pcap: reading record data: %w", err)
	}
	return Record{TS: ts, Data: data}, nil
}

// Scanner frames the records of a capture held in memory, in capture order:
// the same header decoders and the same errors as the streaming Reader, but
// each Record's Data is a sub-slice of the input — capacity clipped to its
// length, so an append to one record reallocates instead of overwriting its
// neighbour — and framing allocates nothing. Treat the Data as read-only, or
// copy it.
type Scanner struct {
	b   []byte
	off int // start of the next record header
	f   format
	rec Record
	err error
}

// NewScanner decodes b's file header, with the errors of NewReader, and
// returns a Scanner positioned before the first record.
func NewScanner(b []byte) (*Scanner, error) {
	if len(b) < fileHeaderLen {
		return nil, errShortFileHeader(len(b))
	}
	f, err := parseFileHeader(b[:fileHeaderLen])
	if err != nil {
		return nil, err
	}
	return &Scanner{b: b, off: fileHeaderLen, f: f}, nil
}

// Next frames the next record, which Record then returns. It reports false
// at the end of the input and at the first corrupt or truncated record,
// which Err then returns; the records framed before it are complete.
func (s *Scanner) Next() bool {
	rest := s.b[s.off:]
	if s.err != nil || len(rest) == 0 {
		return false
	}
	if len(rest) < recordHeaderLen {
		s.err = errShortRecordHeader(len(rest))
		return false
	}
	ts, incl, err := s.f.recordHeader(rest[:recordHeaderLen])
	if err != nil {
		s.err = err
		return false
	}
	rest = rest[recordHeaderLen:]
	if len(rest) < incl {
		s.err = errShortRecordData(len(rest), incl)
		return false
	}
	s.rec = Record{TS: ts, Data: rest[:incl:incl]}
	s.off += recordHeaderLen + incl
	return true
}

// Record returns the record the last successful Next framed.
func (s *Scanner) Record() Record { return s.rec }

// Err returns the error that ended the scan, or nil at a clean end.
func (s *Scanner) Err() error { return s.err }

// ReadAll reads r to its end and collects every record a Scanner frames
// from it. The records share the one buffer read: treat their Data as
// read-only, or copy it. On an error the complete records before it are
// returned with it.
func ReadAll(r io.Reader) ([]Record, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("pcap: reading capture: %w", err)
	}
	s, err := NewScanner(b)
	if err != nil {
		return nil, err
	}
	var recs []Record
	for s.Next() {
		recs = append(recs, s.Record())
	}
	return recs, s.Err()
}
