package daemon

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/ckpt"
	"repro/internal/measure"
)

// checkpointVersion gates the daemon checkpoint schema. Version 2 replaced
// the JSON document with the binary format of internal/ckpt; version 3 is
// the run body a campaign checkpoint is made of, followed by the daemon's
// schedule section; version 4 is that body with interned hops written as
// 8-byte cells (campaign version 5). An older file is quarantined like any
// other unreadable checkpoint.
const checkpointVersion = 4

// Checkpoint is the daemon's serialized resumable state: the run body it
// shares with campaign checkpoints — digest, round cursor, opaque transport
// cursor, per-destination error budgets and path hints, and the folded
// statistics as Workers[0], the daemon's one accumulator — then what only a
// scheduler has: the cumulative supervision counters, the event cursor and
// the per-destination cadence table. The struct still marshals with
// encoding/json for inspection; files are binary.
type Checkpoint struct {
	measure.Checkpoint
	// Cumulative supervision counters, restored so /stats survives a
	// restart without resetting the robustness history.
	Shed, Restarts, Stalls, Panics int64
	// EventSeq restores the /events cursor so post-restart events never
	// reuse sequence numbers a client has already consumed.
	EventSeq int64
	// Sched is the scheduler's cadence table, indexed like Config.Dests.
	Sched []DestState
}

// checkpointLocked snapshots the daemon between rounds. Caller holds d.mu
// with no jobs in flight (Tick checkpoints after wg.Wait), so the
// accumulator and the scheduler table are quiescent.
func (d *Daemon) checkpointLocked() *Checkpoint {
	ck := &Checkpoint{
		Checkpoint: measure.Checkpoint{
			Digest:    d.digest,
			NextRound: int(d.round),
			Dests:     make([]measure.DestRun, len(d.sched.dests)),
			Workers:   []measure.AccState{d.acc.State()},
		},
		Shed:     d.shed,
		Restarts: d.restarts,
		Stalls:   d.stalls,
		Panics:   d.panics,
		EventSeq: d.events.seq(),
		Sched:    make([]DestState, len(d.sched.dests)),
	}
	for i, ds := range d.sched.dests {
		ck.Dests[i], ck.Sched[i] = ds.DestRun, ds.DestState
	}
	if d.cfg.TransportState != nil {
		ck.Transport = d.cfg.TransportState()
	}
	return ck
}

// minDestState is the fewest bytes one DestState occupies on disk: three
// integers, two fixed 8-byte fingerprints, one boolean.
const minDestState = 3 + 16 + 1

// Save streams the checkpoint to path in the shared binary format
// (internal/ckpt) on the one atomic write path, so a kill mid-write leaves
// the previous checkpoint intact.
func (ck *Checkpoint) Save(path string) error {
	if err := ckpt.WriteFile(path, ckpt.KindDaemon, checkpointVersion, ck.encode); err != nil {
		return fmt.Errorf("daemon: writing checkpoint %s: %w", path, err)
	}
	return nil
}

func (ck *Checkpoint) encode(e *ckpt.Encoder) {
	ck.Checkpoint.Encode(e)
	for _, v := range []int64{ck.Shed, ck.Restarts, ck.Stalls, ck.Panics, ck.EventSeq} {
		e.Int(v)
	}
	e.Len(len(ck.Sched))
	for i := range ck.Sched {
		st := &ck.Sched[i]
		e.Int(st.NextDue)
		e.Bool(st.Seen)
		e.U64(st.ParisFP)
		e.U64(st.ClassicFP)
		e.Int(st.Pairs)
		e.Int(int64(st.ShedStreak))
	}
}

func (ck *Checkpoint) decode(d *ckpt.Decoder) {
	ck.Checkpoint.Decode(d)
	for _, p := range []*int64{&ck.Shed, &ck.Restarts, &ck.Stalls, &ck.Panics, &ck.EventSeq} {
		*p = d.Int()
	}
	if n := d.Len(minDestState); n > 0 {
		ck.Sched = make([]DestState, n)
		for i := range ck.Sched {
			ck.Sched[i] = DestState{
				NextDue:    d.Int(),
				Seen:       d.Bool(),
				ParisFP:    d.U64(),
				ClassicFP:  d.U64(),
				Pairs:      d.Int(),
				ShedStreak: int(d.Int()),
			}
		}
	}
}

// loadCheckpoint reads and decodes a daemon checkpoint. A missing file is
// (nil, nil): the caller starts fresh. Any other failure says which way the
// file is unusable (errors.Is against the ckpt.Err* values).
func loadCheckpoint(path string) (*Checkpoint, error) {
	ck := new(Checkpoint)
	err := ckpt.ReadFile(path, ckpt.KindDaemon, checkpointVersion, ck.decode)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// recover restores the daemon from the checkpoint at path, if any, through
// the restore path campaign resume uses (measure.Checkpoint.Restore). A
// checkpoint that fails to decode, validate or restore is moved aside to
// path+".corrupt" and the daemon starts fresh — an always-on service should
// come back measuring, not refuse to boot over a torn file the atomic writer
// already protects against. A checkpoint for a different destination list
// or probing shape is a hard error: silently discarding real prior
// statistics over a config edit is worse than making the operator pass
// -fresh.
func (d *Daemon) recover(path string) error {
	ck, err := loadCheckpoint(path)
	if err != nil {
		return d.quarantineCorrupt(path, err)
	}
	if ck == nil {
		return nil
	}
	accs, err := ck.Restore(d.digest, len(d.cfg.Dests), 1)
	if errors.Is(err, measure.ErrDigest) {
		return fmt.Errorf("daemon: %w (pass FreshStart to discard)", err)
	}
	if err == nil && len(ck.Sched) != len(d.cfg.Dests) {
		err = fmt.Errorf("daemon: checkpoint schedules %d destinations, configuration has %d", len(ck.Sched), len(d.cfg.Dests))
	}
	if err != nil {
		return d.quarantineCorrupt(path, err)
	}
	d.acc = accs[0]
	d.round = int64(ck.NextRound)
	d.shed = ck.Shed
	d.restarts = ck.Restarts
	d.stalls = ck.Stalls
	d.panics = ck.Panics
	d.events.setSeq(ck.EventSeq)
	for i, ds := range d.sched.dests {
		ds.DestRun, ds.DestState = ck.Dests[i], ck.Sched[i]
	}
	if d.cfg.RestoreTransport != nil && len(ck.Transport) > 0 {
		if err := d.cfg.RestoreTransport(ck.Transport); err != nil {
			return fmt.Errorf("daemon: restore transport state: %w", err)
		}
	}
	d.recovered = true
	d.recoveredAt = d.round
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
