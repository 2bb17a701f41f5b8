package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"strings"
	"testing"

	. "repro/internal/ckpt"
	"repro/internal/ckpt/ckpttest"
)

// bufSize is the encoder's buffer: no single write may exceed it.
const bufSize = 64 << 10

const headerLen = ckpttest.HeaderLen

var frame = ckpttest.Frame

// sizeWriter records the size of every Write, to show the encoder streams.
type sizeWriter struct {
	bytes.Buffer
	largest int
}

func (w *sizeWriter) Write(p []byte) (int, error) {
	w.largest = max(w.largest, len(p))
	return w.Buffer.Write(p)
}

var (
	sampleInts = []int64{0, 1, -1, 63, 64, -64, -65, 1 << 20, math.MaxInt64, math.MinInt64}
	sampleAddr = netip.MustParseAddr("10.0.1.17")
	// sampleBlob is longer than the encoder's buffer, so Bytes must chunk.
	sampleBlob = bytes.Repeat([]byte("transport cursor "), 3*bufSize/17)
	// sampleU64s is a run of fixed values longer than the encoder's buffer.
	sampleU64s = func() []uint64 {
		vs := make([]uint64, bufSize/4)
		for i := range vs {
			vs[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		return vs
	}()
)

func encodeSample(e *Encoder) {
	for _, v := range sampleInts {
		e.Int(v)
	}
	e.Bool(true)
	e.Bool(false)
	e.U64(0x0123456789abcdef)
	e.Bytes(sampleBlob)
	e.Bytes(nil)
	// A byte string streamed in runs, as an accumulator body is: its length
	// prefix, then runs of it and fixed values between them.
	e.Len(len(sampleRuns()))
	e.Raw(sampleBlob[:7])
	for _, v := range sampleU64s {
		e.U64(v)
	}
	e.Raw(sampleBlob[7:])
	// Enough small fields to cross the buffer boundary many times.
	e.Len(100_000)
	for i := 0; i < 100_000; i++ {
		e.Int(int64(i))
	}
}

// sampleRuns is what encodeSample streams in runs, as one byte string.
func sampleRuns() []byte {
	b := slices.Clone(sampleBlob[:7])
	for _, v := range sampleU64s {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return append(b, sampleBlob[7:]...)
}

func decodeSample(t *testing.T) func(*Decoder) {
	return func(d *Decoder) {
		for _, want := range sampleInts {
			if got := d.Int(); got != want {
				t.Errorf("Int = %d, want %d", got, want)
			}
		}
		if !d.Bool() || d.Bool() {
			t.Error("Bool pair wrong")
		}
		if got := d.U64(); got != 0x0123456789abcdef {
			t.Errorf("U64 = %#x", got)
		}
		if got := d.Bytes(); !bytes.Equal(got, sampleBlob) {
			t.Errorf("Bytes: %d bytes, want %d", len(got), len(sampleBlob))
		}
		if got := d.Bytes(); got != nil {
			t.Errorf("empty Bytes = %v, want nil", got)
		}
		if got := d.Bytes(); !bytes.Equal(got, sampleRuns()) {
			t.Errorf("Bytes streamed in runs: %d bytes, want %d", len(got), len(sampleRuns()))
		}
		n := d.Len(1)
		for i := 0; i < n; i++ {
			if got := d.Int(); got != int64(i) {
				t.Fatalf("field %d = %d", i, got)
			}
		}
	}
}

func TestRoundTripStreams(t *testing.T) {
	var w sizeWriter
	if err := Encode(&w, KindCampaign, 3, encodeSample); err != nil {
		t.Fatal(err)
	}
	if w.largest > bufSize {
		t.Errorf("a single write of %d bytes: the encoder must stream through its %d-byte buffer", w.largest, bufSize)
	}
	if err := Decode(w.Bytes(), KindCampaign, 3, decodeSample(t)); err != nil {
		t.Fatal(err)
	}
	// Not consuming the whole body is an error, not silence.
	err := Decode(w.Bytes(), KindCampaign, 3, func(d *Decoder) { d.Int() })
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("partial read returned %v, want ErrCorrupt", err)
	}
}

// TestDecodeBody: a bare body — addresses and fixed values included, which
// only accumulator bodies hold — decodes with no frame around it, and must
// be read to its last byte. Its addresses and booleans are written with the
// append forms, byte for byte the encodings the decoder reads.
func TestDecodeBody(t *testing.T) {
	a4 := sampleAddr.As4()
	body := AppendBool(AppendBool(AppendIPv4(AppendAddr(AppendAddr(nil, sampleAddr), netip.Addr{}), a4), true), false)
	if want := []byte{4, 10, 0, 1, 17, 0, 4, 10, 0, 1, 17, 1, 0}; !bytes.Equal(body, want) {
		t.Fatalf("append forms wrote %x, want %x", body, want)
	}
	for _, v := range sampleU64s {
		body = binary.LittleEndian.AppendUint64(body, v)
	}
	read := func(d *Decoder) {
		if got := d.Addr(); got != sampleAddr {
			t.Errorf("Addr = %v", got)
		}
		if got := d.Addr(); got.IsValid() {
			t.Errorf("invalid Addr decoded as %v", got)
		}
		if got := d.Addr(); got != sampleAddr {
			t.Errorf("Addr of AppendIPv4 = %v", got)
		}
		if !d.Bool() || d.Bool() {
			t.Error("Bool pair of AppendBool wrong")
		}
		if got := d.U64s(len(sampleU64s)); !slices.Equal(got, sampleU64s) {
			t.Errorf("U64s: %d values, want %d", len(got), len(sampleU64s))
		}
		if got := d.U64s(0); got != nil {
			t.Errorf("U64s(0) = %v, want nil", got)
		}
	}
	if err := DecodeBody(body, read); err != nil {
		t.Fatal(err)
	}
	err := DecodeBody(append(body, 0), read)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("at byte %d", len(body))) {
		t.Errorf("a byte after the last field: got %v, want ErrCorrupt at byte %d", err, len(body))
	}
}

func TestFrameErrorsAreDistinct(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, KindDaemon, 2, func(e *Encoder) { e.Bytes([]byte("some body bytes")) }); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if want := frame(KindDaemon, 2, append([]byte{15}, "some body bytes"...)); !bytes.Equal(good, want) {
		t.Fatalf("frame layout drifted:\n got %x\nwant %x", good, want)
	}
	read := func(d *Decoder) { d.Bytes() }
	mutate := func(i int, b byte) []byte {
		out := bytes.Clone(good)
		out[i] = b
		return out
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"intact", good, nil},
		{"empty", nil, ErrTruncated},
		{"legacy JSON", []byte(`{"Version":2,"Digest":1}`), ErrLegacyJSON},
		{"foreign file", []byte("\xd4\xc3\xb2\xa1 a pcap, say"), ErrBadMagic},
		{"header only", good[:headerLen], ErrTruncated},
		{"cut mid-body", good[:len(good)-7], ErrTruncated},
		{"cut by one byte", good[:len(good)-1], ErrTruncated},
		{"other kind", mutate(4, byte(KindCampaign)), ErrKind},
		{"other version", mutate(5, 99), ErrVersion},
		{"flipped body bit", mutate(headerLen+3, good[headerLen+3]^0x10), ErrChecksum},
		{"flipped checksum bit", mutate(len(good)-1, good[len(good)-1]^1), ErrChecksum},
	} {
		if err := Decode(tc.data, KindDaemon, 2, read); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecoderRefusesNonCanonicalBodies(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
		read func(*Decoder)
	}{
		{"non-minimal varint", []byte{0x80, 0x00}, func(d *Decoder) { d.Int() }},
		{"varint overflow", bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Int() }},
		{"varint cut short", []byte{0x80}, func(d *Decoder) { d.Int() }},
		{"boolean 2", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"address tag 6", []byte{6, 1, 2, 3, 4}, func(d *Decoder) { d.Addr() }},
		{"address cut short", []byte{4, 1, 2}, func(d *Decoder) { d.Addr() }},
		{"fixed field cut short", []byte{1, 2, 3}, func(d *Decoder) { d.U64() }},
		{"byte string longer than the body", []byte{200, 1, 'x'}, func(d *Decoder) { d.Bytes() }},
		{"fixed values longer than the body", make([]byte, 15), func(d *Decoder) { d.U64s(2) }},
	} {
		err := Decode(frame(KindCampaign, 3, tc.body), KindCampaign, 3, tc.read)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// TestLenBoundsAllocation: a count is only believed when the body is long
// enough to hold that many elements, whatever the count claims.
func TestLenBoundsAllocation(t *testing.T) {
	body := binary.AppendUvarint(nil, 1<<40)
	body = append(body, make([]byte, 90)...)
	var got int
	err := Decode(frame(KindCampaign, 3, body), KindCampaign, 3, func(d *Decoder) { got = d.Len(9) })
	if !errors.Is(err, ErrCorrupt) || got != 0 {
		t.Errorf("Len(9) believed a count of 2^40 in a 90-byte body: n=%d err=%v", got, err)
	}
	body = append([]byte{10}, make([]byte, 90)...)
	err = Decode(frame(KindCampaign, 3, body), KindCampaign, 3, func(d *Decoder) {
		if n := d.Len(9); n != 10 {
			t.Errorf("Len(9) = %d, want 10 (90 bytes remain)", n)
		}
		if n := d.Len(9); n != 0 {
			t.Errorf("second Len = %d", n)
		}
	})
	if !errors.Is(err, ErrCorrupt) {
		// The second Len read a zero count; 88 unread bytes remain.
		t.Errorf("unread tail: %v", err)
	}
	// After a failure every read is a zero value, so loops wind down.
	err = Decode(frame(KindCampaign, 3, []byte{2}), KindCampaign, 3, func(d *Decoder) {
		d.Bool()
		if d.Int() != 0 || d.Len(1) != 0 || d.Bytes() != nil || d.Addr().IsValid() {
			t.Error("reads after a failure must return zero values")
		}
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("got %v", err)
	}
}

func TestEncoderErrorsAreSticky(t *testing.T) {
	var buf bytes.Buffer
	failed := errors.New("a field with no encoding")
	err := Encode(&buf, KindCampaign, 3, func(e *Encoder) {
		e.Fail(failed)
		e.Int(7)
	})
	if !errors.Is(err, failed) {
		t.Fatalf("got %v, want the first failure", err)
	}
	if buf.Len() != 0 {
		t.Errorf("%d bytes written after the encode failed", buf.Len())
	}
}
