// Package ckpttest holds what the checkpoint fuzz targets of the measure and
// daemon packages share: frames built by hand, independently of ckpt.Encode,
// so arbitrary body bytes can be wrapped in a frame that verifies and reach
// the body decoders behind the checksum; the seed ladder; and the properties
// every decoder must hold on arbitrary input.
package ckpttest

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"runtime"
	"testing"

	"repro/internal/ckpt"
)

// HeaderLen and trailerLen are the frame's fixed overhead around the body.
const (
	HeaderLen  = 6  // "PTCK", kind, version
	trailerLen = 12 // body length u64, CRC-32C u32
)

// Frame wraps body in a valid header and trailer.
func Frame(kind ckpt.Kind, version uint8, body []byte) []byte {
	out := append([]byte("PTCK"), byte(kind), version)
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(body)))
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crc32.MakeTable(crc32.Castagnoli)))
}

// Seed adds a real checkpoint file to the corpus: the file and its bare body,
// then a truncation ladder of each (every length up to 64 bytes, where the
// frame and the scalar fields sit, and 64 evenly spaced cuts after that).
func Seed(f *testing.F, file []byte) {
	for _, b := range [][]byte{file, file[HeaderLen : len(file)-trailerLen]} {
		f.Add(b)
		step := max(1, len(b)/64)
		for n := 0; n < len(b); n++ {
			if n < 64 || n%step == 0 {
				f.Add(b[:n])
			}
		}
	}
}

// Check runs one fuzz input against a decoder, twice: as a whole file (so
// the frame checks see arbitrary bytes) and as a body wrapped in a valid
// frame (so the field decoders do). recode decodes a file and, when it is
// accepted, encodes the result again. Check asserts that nothing panics,
// that an accepted file encodes back to itself byte for byte, and that the
// memory allocated along the way is bounded by a multiple of the input
// length — no count in the input is believed beyond the bytes behind it.
func Check(t *testing.T, kind ckpt.Kind, version uint8, data []byte, recode func(file []byte) ([]byte, error)) {
	for _, file := range [][]byte{data, Frame(kind, version, data)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out, err := recode(file)
		runtime.ReadMemStats(&after)
		// The largest in-memory element is 24x its smallest encoding (an
		// address); the re-encode buffers at most 4x. The constant covers
		// the encoder's fixed buffer and the fuzz worker's own goroutines.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(file)+1<<20); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(file), got, limit)
		}
		if err == nil && !bytes.Equal(out, file) {
			t.Fatalf("accepted a %d-byte file that encodes back to %d different bytes", len(file), len(out))
		}
	}
}
