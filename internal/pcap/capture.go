package pcap

import (
	"bytes"
	"fmt"
	"sync"
	"time"

	"repro/internal/atomicio"
)

// Capture is the live layer's capture sink: the transport and the mux feed
// it every injected probe and every received datagram (pre-dedup — junk,
// duplicates, and retransmits included), and Close installs the finished
// pcap file atomically. Records accumulate in memory and hit disk only at
// Close via atomicio.WriteFile (temp + fsync + rename), so there is no
// torn trailing record under any abort: whatever interruption ends the
// campaign — socket reopen, context cancellation, a trace error — the
// file on disk is either absent or a complete, readable capture of
// everything recorded up to Close. Safe for concurrent use: the mux's
// reader and its sending workers record without coordination.
type Capture struct {
	mu     sync.Mutex
	path   string
	buf    bytes.Buffer
	w      *Writer
	count  int
	closed bool
	err    error
}

// CreateCapture opens a capture sink that will install its pcap at path
// on Close. A valid empty capture (header only) is installed immediately:
// a bad -capture path fails before any probing, and a process killed
// before Close leaves a readable empty file rather than no file.
func CreateCapture(path string) (*Capture, error) {
	c := &Capture{path: path}
	w, err := NewWriter(&c.buf)
	if err != nil {
		return nil, err
	}
	c.w = w
	if err := atomicio.WriteFile(path, c.buf.Bytes()); err != nil {
		return nil, fmt.Errorf("pcap: capture path not writable: %w", err)
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
		c.err = err // in-memory buffer: only a too-large packet can fail
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

// Close flushes the capture to its path atomically. Idempotent; callers
// must stop the transports feeding the sink first (live's Close/trace
// completion), or late records are silently dropped.
func (c *Capture) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return c.err
	}
	c.closed = true
	if c.err != nil {
		return c.err
	}
	c.err = atomicio.WriteFile(c.path, c.buf.Bytes())
	return c.err
}
