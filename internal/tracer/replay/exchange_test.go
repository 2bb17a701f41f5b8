package replay

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"repro/internal/pcap"
)

// TestExchangeIs16Bytes pins what a Transport keeps per exchange.
func TestExchangeIs16Bytes(t *testing.T) {
	if n := unsafe.Sizeof(exchange{}); n != 16 {
		t.Fatalf("an exchange takes %d bytes, not 16", n)
	}
}

// TestExchangeHoldsEveryRecord: an exchange's two offsets reach the last
// byte of the longest capture load accepts, each set without disturbing the
// other or the chain, and the longest record pcap.Scanner frames, 1 MiB, is
// read back whole from its offset; one byte more is refused by the Scanner
// before an exchange can name it.
func TestExchangeHoldsEveryRecord(t *testing.T) {
	const last = 1<<offBits - 1
	for _, offs := range [][2]int{{last, last}, {last, 40}, {40, last}, {1 << 32, 1<<32 - 1}} {
		e := exchange{next: 1<<31 - 1}
		e.setProbe(offs[0])
		if e.respAt() != 0 {
			t.Fatalf("setting probe offset %d answers the exchange at %d", offs[0], e.respAt())
		}
		e.setResp(offs[1])
		e.setProbe(offs[0])
		if e.probeAt() != offs[0] || e.respAt() != offs[1] || e.next != 1<<31-1 {
			t.Fatalf("offsets %v read back as %d and %d, next %d", offs, e.probeAt(), e.respAt(), e.next)
		}
	}

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
	var e exchange
	e.setProbe(s.Offset())
	tr := &Transport{data: b, f: s.Format()}
	if got := tr.rec(e.probeAt()).Data; !bytes.Equal(got, s.Record().Data) {
		t.Fatalf("the exchange names %d bytes of a 1 MiB record, not the record's %d", len(got), len(s.Record().Data))
	}
	if s, err = pcap.NewScanner(capture(1<<20 + 1)); err != nil || s.Next() {
		t.Fatal("pcap frames a record longer than 1 MiB")
	}
}
