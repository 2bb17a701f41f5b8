package daemon

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"os"

	"repro/internal/ckpt"
	"repro/internal/keyhash"
	"repro/internal/measure"
)

// CheckpointVersion gates the daemon checkpoint schema. Version 2 replaced
// the JSON document with the binary format of internal/ckpt; a version-1
// file is quarantined like any other unreadable checkpoint.
const CheckpointVersion = 2

// Checkpoint is the daemon's serialized resumable state: the merged
// accumulator statistics (the measure checkpoint format, so the codec and
// the replay-based restore are shared with campaign resume), the
// per-destination cadence and quarantine table, the cumulative supervision
// counters, the event cursor, and the opaque transport cursor. The struct
// still marshals with encoding/json for inspection; files are binary.
type Checkpoint struct {
	Version int
	// Digest fingerprints the destination list and probing shape the
	// checkpoint is valid for. Cadence knobs (Period, QueueCap, worker
	// count) are deliberately excluded: they are retunable across
	// restarts without invalidating the measured statistics.
	Digest uint64
	// Round is the next round the resumed daemon will run; rounds
	// [0, Round) are fully folded into Acc.
	Round int64
	// Cumulative supervision counters, restored so /stats survives a
	// restart without resetting the robustness history.
	Shed, Restarts, Stalls, Panics int64
	// EventSeq restores the /events cursor so post-restart events never
	// reuse sequence numbers a client has already consumed.
	EventSeq int64
	// Acc is the folded statistics, in the measure checkpoint format.
	Acc measure.AccState
	// Dests is the scheduler table, indexed like Config.Dests.
	Dests []DestState
	// Transport is the opaque payload of Config.TransportState.
	Transport json.RawMessage `json:",omitempty"`
}

// DestState is one destination's serialized scheduler state.
type DestState struct {
	NextDue            int64
	Seen               bool   `json:",omitempty"`
	ParisFP, ClassicFP uint64 `json:",omitempty"`
	ConsecFails        int    `json:",omitempty"`
	Quarantined        bool   `json:",omitempty"`
	HintParis          int    `json:",omitempty"`
	HintClassic        int    `json:",omitempty"`
	Pairs              int64  `json:",omitempty"`
	ShedStreak         int    `json:",omitempty"`
}

// configDigest hashes the daemon shape a checkpoint is only valid for: the
// destination list and the probing configuration that produced the folded
// statistics.
func configDigest(dests []netip.Addr, probe measure.ProbeConfig) uint64 {
	h := keyhash.FNVOffset64
	mix := func(x uint64) {
		h = (h ^ x) * keyhash.FNVPrime64
	}
	mix(uint64(len(dests)))
	for _, d := range dests {
		a := d.As4()
		mix(uint64(a[0])<<24 | uint64(a[1])<<16 | uint64(a[2])<<8 | uint64(a[3]))
	}
	mix(uint64(probe.MinTTL))
	mix(uint64(probe.MaxTTL))
	mix(uint64(probe.MaxConsecutiveStars))
	mix(uint64(probe.PortSeed))
	flags := uint64(0)
	if probe.Batch {
		flags |= 1
	}
	mix(flags)
	mix(uint64(probe.BatchWindow))
	return h
}

// checkpointLocked snapshots the daemon between rounds. Caller holds d.mu
// with no jobs in flight (Tick checkpoints after wg.Wait), so the
// accumulator and the scheduler table are quiescent.
func (d *Daemon) checkpointLocked() *Checkpoint {
	ck := &Checkpoint{
		Version:  CheckpointVersion,
		Digest:   configDigest(d.cfg.Dests, d.cfg.Probe),
		Round:    d.round,
		Shed:     d.shed,
		Restarts: d.restarts,
		Stalls:   d.stalls,
		Panics:   d.panics,
		EventSeq: d.events.seq(),
		Acc:      d.acc.State(),
		Dests:    make([]DestState, len(d.sched.dests)),
	}
	for i, ds := range d.sched.dests {
		ck.Dests[i] = DestState{
			NextDue:     ds.nextDue,
			Seen:        ds.seen,
			ParisFP:     ds.parisFP,
			ClassicFP:   ds.classicFP,
			ConsecFails: ds.consecFails,
			Quarantined: ds.quarantined,
			HintParis:   ds.hints.Paris,
			HintClassic: ds.hints.Classic,
			Pairs:       ds.pairs,
			ShedStreak:  ds.shedStreak,
		}
	}
	if d.cfg.TransportState != nil {
		ck.Transport = d.cfg.TransportState()
	}
	return ck
}

// minDestState is the fewest bytes one DestState occupies on disk: six
// integers, two fixed 8-byte fingerprints, two booleans.
const minDestState = 6 + 16 + 2

// Save streams the checkpoint to path in the shared binary format
// (internal/ckpt: the daemon's counters and scheduler table around the same
// AccState body a campaign checkpoint carries) on the one atomic write path,
// so a kill mid-write leaves the previous checkpoint intact.
func (ck *Checkpoint) Save(path string) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("daemon: cannot write checkpoint version %d, only %d", ck.Version, CheckpointVersion)
	}
	if err := ckpt.WriteFile(path, ckpt.KindDaemon, CheckpointVersion, ck.encode); err != nil {
		return fmt.Errorf("daemon: writing checkpoint %s: %w", path, err)
	}
	return nil
}

func (ck *Checkpoint) encode(e *ckpt.Encoder) {
	e.U64(ck.Digest)
	for _, v := range []int64{ck.Round, ck.Shed, ck.Restarts, ck.Stalls, ck.Panics, ck.EventSeq} {
		e.Int(v)
	}
	e.Bytes(ck.Transport)
	e.Len(len(ck.Dests))
	for i := range ck.Dests {
		st := &ck.Dests[i]
		e.Int(st.NextDue)
		e.Bool(st.Seen)
		e.U64(st.ParisFP)
		e.U64(st.ClassicFP)
		e.Int(int64(st.ConsecFails))
		e.Bool(st.Quarantined)
		e.Int(int64(st.HintParis))
		e.Int(int64(st.HintClassic))
		e.Int(st.Pairs)
		e.Int(int64(st.ShedStreak))
	}
	ck.Acc.Encode(e)
}

func (ck *Checkpoint) decode(d *ckpt.Decoder) {
	ck.Version = CheckpointVersion
	ck.Digest = d.U64()
	for _, p := range []*int64{&ck.Round, &ck.Shed, &ck.Restarts, &ck.Stalls, &ck.Panics, &ck.EventSeq} {
		*p = d.Int()
	}
	ck.Transport = d.Bytes()
	if n := d.Len(minDestState); n > 0 {
		ck.Dests = make([]DestState, n)
		for i := range ck.Dests {
			ck.Dests[i] = DestState{
				NextDue:     d.Int(),
				Seen:        d.Bool(),
				ParisFP:     d.U64(),
				ClassicFP:   d.U64(),
				ConsecFails: int(d.Int()),
				Quarantined: d.Bool(),
				HintParis:   int(d.Int()),
				HintClassic: int(d.Int()),
				Pairs:       d.Int(),
				ShedStreak:  int(d.Int()),
			}
		}
	}
	ck.Acc.Decode(d)
}

// LoadCheckpoint reads and decodes a daemon checkpoint. A missing file is
// (nil, nil): the caller starts fresh. Any other failure says which way the
// file is unusable (errors.Is against the ckpt.Err* values).
func LoadCheckpoint(path string) (*Checkpoint, error) {
	ck := new(Checkpoint)
	err := ckpt.ReadFile(path, ckpt.KindDaemon, CheckpointVersion, ck.decode)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// recover restores the daemon from the checkpoint at path, if any. A
// checkpoint that fails to decode or restore is moved aside to path+
// ".corrupt" and the daemon starts fresh — an always-on service should come
// back measuring, not refuse to boot over a torn file the atomic writer
// already protects against. A checkpoint for a different destination list
// or probing shape is a hard error: silently discarding real prior
// statistics over a config edit is worse than making the operator pass
// -fresh.
func (d *Daemon) recover(path string) error {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return d.quarantineCorrupt(path, err)
	}
	if ck == nil {
		return nil
	}
	if dg := configDigest(d.cfg.Dests, d.cfg.Probe); ck.Digest != dg {
		return fmt.Errorf("daemon: checkpoint digest %#x does not match configuration %#x (pass FreshStart to discard)", ck.Digest, dg)
	}
	if len(ck.Dests) != len(d.cfg.Dests) {
		return fmt.Errorf("daemon: checkpoint has %d destinations, configuration %d", len(ck.Dests), len(d.cfg.Dests))
	}
	acc, err := measure.RestoreAccumulator(ck.Acc)
	if err != nil {
		return d.quarantineCorrupt(path, err)
	}
	d.acc = acc
	d.round = ck.Round
	d.shed = ck.Shed
	d.restarts = ck.Restarts
	d.stalls = ck.Stalls
	d.panics = ck.Panics
	d.events.setSeq(ck.EventSeq)
	for i, st := range ck.Dests {
		ds := d.sched.dests[i]
		ds.nextDue = st.NextDue
		ds.seen = st.Seen
		ds.parisFP = st.ParisFP
		ds.classicFP = st.ClassicFP
		ds.consecFails = st.ConsecFails
		ds.quarantined = st.Quarantined
		ds.hints = measure.PathHints{Paris: st.HintParis, Classic: st.HintClassic}
		ds.pairs = st.Pairs
		ds.shedStreak = st.ShedStreak
	}
	if d.cfg.RestoreTransport != nil && len(ck.Transport) > 0 {
		if err := d.cfg.RestoreTransport(ck.Transport); err != nil {
			return fmt.Errorf("daemon: restore transport state: %w", err)
		}
	}
	d.recovered = true
	d.recoveredAt = ck.Round
	return nil
}

// quarantineCorrupt moves a bad checkpoint aside and reports a fresh start.
func (d *Daemon) quarantineCorrupt(path string, cause error) error {
	if err := os.Rename(path, path+".corrupt"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("daemon: quarantine corrupt checkpoint (%v): %w", cause, err)
	}
	d.events.publish(Event{Type: EventRecovered,
		Detail: fmt.Sprintf("checkpoint unusable (%v); moved to %s.corrupt, starting fresh", cause, path)})
	return nil
}
