package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// samplePackets are small but realistic LINKTYPE_RAW payloads: each starts
// at the IPv4 version nibble, like every record the live taps produce.
func samplePackets() [][]byte {
	return [][]byte{
		{0x45, 0x00, 0x00, 0x1c, 0x00, 0x01, 0x00, 0x00, 0x01, 0x11},
		{0x45, 0x00, 0x00, 0x38, 0x12, 0x34, 0x00, 0x00, 0x40, 0x01, 0xde, 0xad},
		{0x46},
		{},
	}
}

// writeSample builds an in-memory capture with known timestamps.
func writeSample(t *testing.T) ([]byte, []Record) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 123456789)
	var want []Record
	for i, pkt := range samplePackets() {
		ts := base.Add(time.Duration(i) * 1500 * time.Nanosecond)
		if err := w.WritePacket(ts, pkt); err != nil {
			t.Fatalf("WritePacket %d: %v", i, err)
		}
		want = append(want, Record{TS: ts, Data: append([]byte(nil), pkt...)})
	}
	return buf.Bytes(), want
}

// stream drains data through the streaming Reader — the reference the
// in-memory path is compared against.
func stream(data []byte) ([]Record, error) {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var recs []Record
	for {
		rec, err := rd.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}

// readBoth reads data through the streaming Reader and through the
// in-memory path and fails unless the two agree record for record and error
// for error, and the in-memory records are clipped sub-slices of data (so
// the in-memory path allocates the record slice and nothing per record). It
// returns the in-memory result.
func readBoth(t testing.TB, data []byte) ([]Record, error) {
	t.Helper()
	want, wantErr := stream(data)
	got, err := parse(data)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("in-memory read failed with %v, streaming read with %v", err, wantErr)
	}
	for _, class := range []error{errBadMagic, ErrTruncated, errLinkType} {
		if errors.Is(err, class) != errors.Is(wantErr, class) {
			t.Fatalf("in-memory error %v and streaming error %v differ in class %v", err, wantErr, class)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("in-memory read returned %d records, streaming read %d (error: %v)", len(got), len(want), err)
	}
	off := fileHeaderLen
	for i := range got {
		if !got[i].TS.Equal(want[i].TS) || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("record %d: in-memory (%v, %x), streaming (%v, %x)", i, got[i].TS, got[i].Data, want[i].TS, want[i].Data)
		}
		if len(got[i].Data) > maxRecordLen {
			t.Fatalf("record of %d bytes escaped the length bound", len(got[i].Data))
		}
		// No per-record allocation: the record is the input's own bytes,
		// clipped so that an append cannot reach the next record.
		off += recordHeaderLen
		if len(got[i].Data) > 0 && &got[i].Data[0] != &data[off] {
			t.Fatalf("record %d does not alias the input at offset %d", i, off)
		}
		if cap(got[i].Data) != len(got[i].Data) {
			t.Fatalf("record %d: cap %d over len %d: an append would overwrite the next record", i, cap(got[i].Data), len(got[i].Data))
		}
		off += len(got[i].Data)
	}
	return got, err
}

func TestRoundTrip(t *testing.T) {
	raw, want := writeSample(t)
	got, err := readBoth(t, raw)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].TS.Equal(want[i].TS) {
			t.Errorf("record %d: ts %v, want %v (nanosecond magic must preserve full resolution)",
				i, got[i].TS, want[i].TS)
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("record %d: data %x, want %x", i, got[i].Data, want[i].Data)
		}
	}
}

// TestGoldenBytes pins the exact on-disk encoding: little-endian nanosecond
// magic, version 2.4, LINKTYPE_RAW, and the 16-byte record header layout.
// If this test breaks, existing corpus captures become unreadable.
func TestGoldenBytes(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Unix(1700000000, 123456789), []byte{0x45, 0x00, 0x00, 0x04}); err != nil {
		t.Fatal(err)
	}
	golden := []byte{
		// file header
		0x4d, 0x3c, 0xb2, 0xa1, // nanosecond magic, little-endian
		0x02, 0x00, 0x04, 0x00, // version 2.4
		0x00, 0x00, 0x00, 0x00, // thiszone
		0x00, 0x00, 0x00, 0x00, // sigfigs
		0xff, 0xff, 0x00, 0x00, // snaplen 65535
		0x65, 0x00, 0x00, 0x00, // LINKTYPE_RAW = 101
		// record header
		0x00, 0xf1, 0x53, 0x65, // ts_sec 1700000000
		0x15, 0xcd, 0x5b, 0x07, // ts_nsec 123456789
		0x04, 0x00, 0x00, 0x00, // incl_len
		0x04, 0x00, 0x00, 0x00, // orig_len
		// record data
		0x45, 0x00, 0x00, 0x04,
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("encoding drifted from the pinned format\ngot:  %x\nwant: %x", buf.Bytes(), golden)
	}
}

func TestEmptyCaptureIsValid(t *testing.T) {
	var buf bytes.Buffer
	if _, err := NewWriter(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := readBoth(t, buf.Bytes())
	if err != nil {
		t.Fatalf("header-only capture must read cleanly: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("got %d records from an empty capture", len(recs))
	}
}

func TestBadMagic(t *testing.T) {
	junk := make([]byte, fileHeaderLen)
	for i := range junk {
		junk[i] = 0xee
	}
	if _, err := readBoth(t, junk); !errors.Is(err, errBadMagic) {
		t.Fatalf("got %v, want errBadMagic", err)
	}
}

func TestTruncation(t *testing.T) {
	raw, want := writeSample(t)
	cuts := []struct {
		name string
		at   int
	}{
		{"empty-input", 0},
		{"mid-file-header", 10},
		{"mid-record-header", fileHeaderLen + 5},
		{"mid-record-data", fileHeaderLen + recordHeaderLen + len(want[0].Data)/2},
		{"second-record-header", fileHeaderLen + recordHeaderLen + len(want[0].Data) + 3},
	}
	for _, c := range cuts {
		t.Run(c.name, func(t *testing.T) {
			recs, err := readBoth(t, raw[:c.at])
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("cut at %d: got %v, want ErrTruncated", c.at, err)
			}
			// Records fully present before the cut still come back: a torn
			// capture is readable up to the tear.
			if c.at >= fileHeaderLen+recordHeaderLen+len(want[0].Data)+1 && len(recs) == 0 {
				t.Fatalf("cut at %d: complete first record was not returned", c.at)
			}
		})
	}
}

// buildDialect hand-builds a one-record capture in any of the four
// dialects and with any link type: the writer only ever emits one of each.
func buildDialect(order binary.ByteOrder, magic, linkType, frac uint32) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, fileHeaderLen)
	order.PutUint32(hdr[0:], magic)
	order.PutUint16(hdr[4:], 2)
	order.PutUint16(hdr[6:], 4)
	order.PutUint32(hdr[16:], snapLen)
	order.PutUint32(hdr[20:], linkType)
	buf.Write(hdr)
	rec := make([]byte, recordHeaderLen)
	order.PutUint32(rec[0:], 1)    // ts_sec
	order.PutUint32(rec[4:], frac) // ts frac
	order.PutUint32(rec[8:], 2)    // incl_len
	order.PutUint32(rec[12:], 2)   // orig_len
	buf.Write(rec)
	buf.Write([]byte{0xde, 0xad})
	return buf.Bytes()
}

// TestForeignDialects checks the reader normalizes the three dialects the
// writer never emits (big-endian nano, and microsecond resolution in both
// orders).
func TestForeignDialects(t *testing.T) {
	cases := []struct {
		name   string
		raw    []byte
		wantTS time.Time
	}{
		{"big-endian-nano", buildDialect(binary.BigEndian, magicNano, linkTypeRaw, 123456789), time.Unix(1, 123456789)},
		{"little-endian-micro", buildDialect(binary.LittleEndian, magicMicro, linkTypeRaw, 500), time.Unix(1, 500000)},
		{"big-endian-micro", buildDialect(binary.BigEndian, magicMicro, linkTypeRaw, 999999), time.Unix(1, 999999000)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rd, err := NewReader(bytes.NewReader(c.raw))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !rec.TS.Equal(c.wantTS) {
				t.Errorf("ts %v, want %v", rec.TS, c.wantTS)
			}
			if !bytes.Equal(rec.Data, []byte{0xde, 0xad}) {
				t.Errorf("data %x", rec.Data)
			}
			if _, err := rd.Next(); err != io.EOF {
				t.Errorf("after last record: %v, want io.EOF", err)
			}
			if recs, err := readBoth(t, c.raw); err != nil || len(recs) != 1 {
				t.Errorf("in-memory read: %d records, %v", len(recs), err)
			}
		})
	}
}

// TestLinkTypeRefused: a capture whose records carry link-layer framing —
// what tcpdump writes on an Ethernet interface — is refused by both readers
// with an error naming the type found, in either byte order.
func TestLinkTypeRefused(t *testing.T) {
	for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
		_, err := readBoth(t, buildDialect(order, magicMicro, 1, 0))
		if !errors.Is(err, errLinkType) || !strings.Contains(err.Error(), "link type 1 (Ethernet)") {
			t.Errorf("%v Ethernet capture: got %v, want errLinkType naming link type 1", order, err)
		}
	}
	if _, err := readBoth(t, buildDialect(binary.LittleEndian, magicNano, 147, 0)); !errors.Is(err, errLinkType) || !strings.Contains(err.Error(), "link type 147") {
		t.Errorf("link type 147: got %v, want errLinkType naming it", err)
	}
}

// TestLoadedRecordsDoNotOverlap pins the aliasing contract from the
// caller's side: records loaded in one read share a buffer, and appending
// to one must not write into the next.
func TestLoadedRecordsDoNotOverlap(t *testing.T) {
	raw, want := writeSample(t)
	recs, err := ReadAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		_ = append(recs[i].Data, bytes.Repeat([]byte{0xff}, recordHeaderLen+4)...)
	}
	for i := range recs {
		if !bytes.Equal(recs[i].Data, want[i].Data) {
			t.Errorf("record %d overwritten by an append to a neighbour: %x, want %x", i, recs[i].Data, want[i].Data)
		}
	}
}

// TestCorruptHeadersRejected checks the reader refuses impossible record
// headers (out-of-range timestamp fractions, absurd capture lengths)
// instead of allocating or misparsing.
func TestCorruptHeadersRejected(t *testing.T) {
	forge := func(frac, incl uint32) []byte {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		_ = w.WritePacket(time.Unix(1, 0), []byte{0x45})
		raw := buf.Bytes()
		binary.LittleEndian.PutUint32(raw[fileHeaderLen+4:], frac)
		binary.LittleEndian.PutUint32(raw[fileHeaderLen+8:], incl)
		return raw
	}
	if _, err := readBoth(t, forge(2_000_000_000, 1)); err == nil {
		t.Error("2e9 nanoseconds accepted")
	}
	if _, err := readBoth(t, forge(0, maxRecordLen+1)); err == nil {
		t.Error("oversized incl_len accepted")
	}
}

func TestWriterRejectsOversizedPacket(t *testing.T) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(time.Unix(1, 0), make([]byte, snapLen+1)); err == nil {
		t.Fatal("packet above the snap length accepted")
	}
}

func TestCaptureSink(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.pcap")
	c, err := CreateCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	// The empty capture is installed immediately — a process killed before
	// Close leaves a readable file, and a bad path fails before probing.
	recs, err := ReadFile(path)
	if err != nil || len(recs) != 0 {
		t.Fatalf("freshly created capture: recs=%d err=%v, want an empty valid pcap", len(recs), err)
	}

	probe := []byte{0x45, 0x00, 0x00, 0x1c, 0x00, 0x01}
	resp := []byte{0x45, 0x00, 0x00, 0x38, 0xaa, 0xbb}
	t0 := time.Unix(1700000000, 111)
	c.CaptureOutbound(t0, probe)
	c.CaptureInbound(t0.Add(3*time.Millisecond), resp)
	if c.Count() != 2 {
		t.Fatalf("Count = %d, want 2", c.Count())
	}
	// Nothing beyond the header hits disk before Close.
	if recs, _ := ReadFile(path); len(recs) != 0 {
		t.Fatalf("%d records on disk before Close", len(recs))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// Records after Close are dropped, not appended to an installed file.
	c.CaptureInbound(t0.Add(time.Second), resp)
	if c.Count() != 2 {
		t.Fatalf("Count grew to %d after Close", c.Count())
	}

	recs, err = ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if !bytes.Equal(recs[0].Data, probe) || !bytes.Equal(recs[1].Data, resp) {
		t.Fatal("record bytes do not match the captured packets")
	}
	if got := recs[1].TS.Sub(recs[0].TS); got != 3*time.Millisecond {
		t.Fatalf("timestamp delta %v, want 3ms", got)
	}
	// The atomic install leaves no temp droppings next to the capture.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("capture dir holds %d entries, want just the pcap", len(entries))
	}
}

func TestCreateCaptureBadPath(t *testing.T) {
	if _, err := CreateCapture(filepath.Join(t.TempDir(), "no", "such", "dir", "x.pcap")); err == nil {
		t.Fatal("unwritable capture path accepted")
	}
}

// FuzzReadPcap asserts that neither reader panics or over-allocates on
// arbitrary input — capture files cross trust boundaries (anyone can hand
// one to -replay) — and that the two are one reader: every input reads the
// same through the streaming Reader and through the in-memory path, records
// and errors alike, in all four dialects.
func FuzzReadPcap(f *testing.F) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w.WritePacket(time.Unix(1700000000, 42), []byte{0x45, 0x00, 0x00, 0x1c})
	_ = w.WritePacket(time.Unix(1700000001, 7), []byte{0x45, 0x00})
	raw := buf.Bytes()
	f.Add(raw)
	for _, cut := range []int{0, 3, fileHeaderLen, fileHeaderLen + 9, len(raw) - 1} {
		f.Add(raw[:cut])
	}
	junk := append([]byte(nil), raw...)
	junk[0] ^= 0xff
	f.Add(junk)
	for _, order := range []binary.ByteOrder{binary.LittleEndian, binary.BigEndian} {
		f.Add(buildDialect(order, magicNano, linkTypeRaw, 999_999_999))
		f.Add(buildDialect(order, magicNano, linkTypeRaw, 1_000_000_000)) // fraction out of range
		f.Add(buildDialect(order, magicMicro, linkTypeRaw, 999_999))
		f.Add(buildDialect(order, magicMicro, linkTypeRaw, 1_000_000)) // fraction out of range
		f.Add(buildDialect(order, magicMicro, 1, 0))                   // Ethernet
		big := buildDialect(order, magicNano, linkTypeRaw, 0)
		order.PutUint32(big[fileHeaderLen+8:], maxRecordLen+1) // oversize incl_len
		f.Add(big)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := readBoth(t, data)
		if err == nil && len(data) < fileHeaderLen {
			t.Fatalf("accepted a %d-byte input as a pcap file", len(data))
		}
	})
}

// BenchmarkReadFile: loading a capture the size of a small campaign (records
// of 28 and 56 bytes alternating, a UDP probe and the ICMP error that quotes
// it) in one read. retained-B/record is the record slice plus the file's own
// bytes — there is nothing else.
func BenchmarkReadFile(b *testing.B) {
	const records = 200_000
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		b.Fatal(err)
	}
	pkt := make([]byte, 56)
	pkt[0] = 0x45
	for i := 0; i < records; i++ {
		if err := w.WritePacket(time.Unix(1700000000, int64(i)), pkt[:28+28*(i&1)]); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "bench.pcap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		b.Fatal(err)
	}
	buf = bytes.Buffer{} // not part of what a loaded capture retains

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	recs, err := ReadFile(path)
	if err != nil || len(recs) != records {
		b.Fatalf("%d records, %v", len(recs), err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(recs)
	retained := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / records

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFile(path); err != nil {
			b.Fatal(err)
		}
	}
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	n := float64(b.N) * records
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
	b.ReportMetric(float64(end.Mallocs-after.Mallocs)/n, "allocs/record")
	b.ReportMetric(retained, "retained-B/record")
}
