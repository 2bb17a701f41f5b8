package live

import (
	"repro/internal/tracer/flowkey"
)

// Response demultiplexing. The mux shares one pair of raw receive sockets
// among every probe of every batch (and with every other ICMP/TCP
// conversation the host is having), so each inbound packet must be routed
// back to the in-flight probe it answers — or discarded as unrelated
// traffic — before the tracer's strict per-discipline matching ever sees
// it. The key derivation lives in internal/tracer/flowkey (shared with the
// replay transport, which must attribute a captured campaign's responses
// with the exact same rule); this file binds it under the names the mux
// uses. See the flowkey package doc for the attribution
// contract — the Paris quoted-header invariant, the terminal-key
// namespaces, and the oldest-unanswered FIFO rule for shared TCP keys.

// matchKey identifies the probe a response answers.
type matchKey = flowkey.Key

// probeKeys derives the keys a serialized probe registers under: always the
// quoted-error key, plus a terminal key for disciplines whose destination
// answers in-protocol.
func probeKeys(probe []byte) (quoted matchKey, terminal matchKey, hasTerminal, ok bool) {
	return flowkey.ProbeKeys(probe)
}

// respKey classifies an inbound packet and computes the single key it
// matches under.
func respKey(resp []byte) (matchKey, bool) {
	return flowkey.RespKey(resp)
}
