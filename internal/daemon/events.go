package daemon

import (
	"net/netip"
	"sync"
)

// EventType names a daemon event on the /events feed.
type EventType string

const (
	// EventRouteChange: a destination's Paris route fingerprint changed;
	// the destination was re-armed for immediate re-exploration.
	EventRouteChange EventType = "route-change"
	// EventAnomaly: the newly observed route carries loops or cycles.
	EventAnomaly EventType = "anomaly"
	// EventShed: the scheduler shed a due job under overload.
	EventShed EventType = "shed"
	// EventStall: the watchdog abandoned a stalled trace.
	EventStall EventType = "stall"
	// EventWorkerPanic: a worker goroutine died on a panic.
	EventWorkerPanic EventType = "worker-panic"
	// EventWorkerRestart: a panicked worker slot was restarted.
	EventWorkerRestart EventType = "worker-restart"
	// EventWorkerDead: a worker slot exhausted its restart budget.
	EventWorkerDead EventType = "worker-dead"
	// EventQuarantine: a destination exhausted its error budget.
	EventQuarantine EventType = "quarantine"
	// EventCheckpoint: a checkpoint write failed.
	EventCheckpoint EventType = "checkpoint"
	// EventRecovered: startup resumed from a checkpoint.
	EventRecovered EventType = "recovered"
)

// Event is one entry of the streaming route-change/anomaly feed. Seq is a
// strictly increasing cursor: /events?since=N replays buffered events with
// Seq > N before streaming live ones.
type Event struct {
	Seq    int64
	Round  int64
	Type   EventType
	Dest   netip.Addr `json:",omitempty"`
	Detail string     `json:",omitempty"`
	// Loops and Cycles carry the anomaly counts on route-change and
	// anomaly events.
	Loops, Cycles int `json:",omitempty"`
}

// eventHub buffers the last ringCap events and fans live ones out to
// subscribers. Slow subscribers are never waited for: a full subscriber
// channel drops the event for that subscriber and counts it, so a wedged
// /events client cannot apply backpressure to the measurement loop.
type eventHub struct {
	mu sync.Mutex
	// ring holds the event numbered Seq at ring[(Seq-1)%len], from the
	// first publish on and wherever recovery put the cursor; a slot holding
	// any other Seq (zero: never written) has nothing to replay.
	ring    []Event
	nextSeq int64
	subs    map[int]chan Event
	nextSub int
	dropped int64
	closed  bool
}

func newEventHub(ringCap int) *eventHub {
	if ringCap < 1 {
		ringCap = 1
	}
	return &eventHub{ring: make([]Event, ringCap), subs: make(map[int]chan Event)}
}

// publish assigns the next sequence number, buffers, and fans out.
func (h *eventHub) publish(e Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.nextSeq++
	e.Seq = h.nextSeq
	h.ring[(e.Seq-1)%int64(len(h.ring))] = e
	for _, ch := range h.subs {
		select {
		case ch <- e:
		default:
			h.dropped++
		}
	}
}

// subscribe returns the buffered events with Seq > since (oldest first) and
// registers a live channel; the replay and the registration are atomic, so
// a subscriber sees every event exactly once. cancel unregisters.
func (h *eventHub) subscribe(since int64) (replay []Event, ch chan Event, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ch = make(chan Event, 64)
	if h.closed {
		close(ch)
		return nil, ch, func() {}
	}
	// The ring reaches back len events from the cursor; walk in seq order.
	for seq := max(since, h.nextSeq-int64(len(h.ring)), 0) + 1; seq <= h.nextSeq; seq++ {
		if e := h.ring[(seq-1)%int64(len(h.ring))]; e.Seq == seq {
			replay = append(replay, e)
		}
	}
	id := h.nextSub
	h.nextSub++
	h.subs[id] = ch
	return replay, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(ch)
		}
	}
}

// seq returns the last assigned sequence number.
func (h *eventHub) seq() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nextSeq
}

// droppedCount returns how many events were dropped on slow subscribers.
func (h *eventHub) droppedCount() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
}

// setSeq restores the cursor after recovery so post-restart events never
// reuse sequence numbers a client has already seen.
func (h *eventHub) setSeq(seq int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if seq > h.nextSeq {
		h.nextSeq = seq
	}
}

// closeAll ends every subscription; further publishes are dropped.
func (h *eventHub) closeAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for id, ch := range h.subs {
		delete(h.subs, id)
		close(ch)
	}
}
