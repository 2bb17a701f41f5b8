package replay

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/pcap"
)

// TestSpanHoldsEveryRecord: the longest record pcap.Scanner frames, 1 MiB,
// fits a span's length field, and one byte more is refused by the Scanner
// before a span is made of it.
func TestSpanHoldsEveryRecord(t *testing.T) {
	capture := func(n int) []byte {
		var buf bytes.Buffer
		if _, err := pcap.NewWriter(&buf); err != nil {
			t.Fatal(err)
		}
		var hdr [16]byte
		binary.LittleEndian.PutUint32(hdr[8:], uint32(n))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(n))
		buf.Write(hdr[:])
		data := make([]byte, n)
		data[0], data[n-1] = 0x45, 0xff
		buf.Write(data)
		return buf.Bytes()
	}
	b := capture(1 << 20)
	s, err := pcap.NewScanner(b)
	if err != nil || !s.Next() {
		t.Fatalf("a 1 MiB record does not frame: %v %v", err, s.Err())
	}
	tr := &Transport{data: b}
	if got := tr.rec(spanOf(s.Offset(), len(s.Record().Data))); !bytes.Equal(got, s.Record().Data) {
		t.Fatalf("the span of a 1 MiB record names %d bytes, not the record's %d", len(got), len(s.Record().Data))
	}
	if s, err = pcap.NewScanner(capture(1<<20 + 1)); err != nil || s.Next() {
		t.Fatal("pcap frames a record longer than a span can name")
	}
}
