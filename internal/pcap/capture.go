package pcap

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/atomicio"
)

// captureBuf is the one buffer between the capture sink and its file: what
// a Capture holds on the heap, however many records it takes.
const captureBuf = 64 << 10

// Capture is the live layer's capture sink: the transport and the mux feed
// it every injected probe and every received datagram (pre-dedup — junk,
// duplicates, and retransmits included), and Close installs the finished
// pcap file atomically. Records stream through a fixed buffer into an
// atomicio.File, a temp file beside the path, which Close commits (fsync +
// rename), so there is no torn trailing record under any abort: whatever
// interruption ends the campaign — socket reopen, context cancellation, a
// trace error — the path holds either the header-only capture CreateCapture
// installed or a complete, readable capture of everything recorded up to
// Close. Safe for concurrent use: the mux's reader and its sending workers
// record without coordination.
type Capture struct {
	mu     sync.Mutex
	path   string
	file   *atomicio.File
	buf    *bufio.Writer
	w      *Writer
	count  int
	closed bool
	err    error
}

// CreateCapture opens a capture sink that will install its pcap at path
// on Close. A valid empty capture (header only) is installed immediately:
// a bad -capture path fails before any probing, and a process killed
// before Close leaves a readable empty file rather than no file. It is
// installed before the records' temp file is made, so that its install
// cannot sweep that file away as a stale one.
func CreateCapture(path string) (*Capture, error) {
	err := atomicio.WriteFileFunc(path, func(w io.Writer) error {
		_, err := NewWriter(w)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("pcap: capture path not writable: %w", err)
	}
	c := &Capture{path: path}
	if c.file, err = atomicio.Create(path); err != nil {
		return nil, fmt.Errorf("pcap: capture path not writable: %w", err)
	}
	c.buf = bufio.NewWriterSize(c.file, captureBuf)
	if c.w, err = NewWriter(c.buf); err != nil {
		c.file.Abort()
		return nil, err
	}
	return c, nil
}

// CaptureOutbound records one injected probe. Implements live.CaptureSink.
func (c *Capture) CaptureOutbound(ts time.Time, pkt []byte) { c.record(ts, pkt) }

// CaptureInbound records one received datagram, before any demultiplexing
// or deduplication. Implements live.CaptureSink.
func (c *Capture) CaptureInbound(ts time.Time, pkt []byte) { c.record(ts, pkt) }

func (c *Capture) record(ts time.Time, pkt []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.err != nil {
		return
	}
	if err := c.w.WritePacket(ts, pkt); err != nil {
		c.err = err // a too-large packet, or the file's write failed
		return
	}
	c.count++
}

// Path returns the file the capture installs to.
func (c *Capture) Path() string { return c.path }

// Count reports how many records have been captured so far.
func (c *Capture) Count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Close flushes the capture and installs it at its path atomically; after
// an earlier error it removes the temp file instead, and the path keeps the
// header-only capture. Idempotent; callers must stop the transports feeding
// the sink first (live's Close/trace completion), or late records are
// silently dropped.
func (c *Capture) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.closed = true
	if c.err == nil {
		c.err = c.buf.Flush()
	}
	if c.err != nil {
		c.file.Abort()
		return c.err
	}
	c.err = c.file.Commit()
	return c.err
}
