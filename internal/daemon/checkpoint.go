package daemon

import (
	"errors"
	"fmt"
	"net/netip"
	"os"

	"repro/internal/ckpt"
	"repro/internal/measure"
)

// Checkpoint is the daemon's serialized resumable state: the run body it
// shares with campaign checkpoints — digest, round cursor, opaque transport
// cursor, per-destination error budgets and path hints, and the folded
// statistics as Workers, one accumulator per shard in shard order — then
// what only a scheduler has: the cumulative supervision counters, the event
// cursor and the per-destination cadence table. Its frame carries
// measure.CheckpointVersion, whose history covers the schedule section too;
// an older file is quarantined like any other unreadable checkpoint.
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

// checkpointLocked snapshots the daemon at a round boundary: the run body
// measure.NewCheckpoint builds for the campaign too, over the DestRuns
// copied out of the scheduler table, then the daemon's counters, event
// cursor and the table's DestStates. Caller holds d.mu at the boundary —
// after Tick's wg.Wait every fold of the round has returned, and Stop does
// not race Tick — so it takes no shard lock: any later fold is either
// under d.mu or a next round's job. saveCheckpoint saves the snapshot after
// releasing mu: Save streams the accumulators' hop cells, most of the file,
// from the cells Accumulator.State noted, which needs no lock.
func (d *Daemon) checkpointLocked() (*Checkpoint, error) {
	ck := &Checkpoint{
		Shed:     d.shed,
		Restarts: d.restarts,
		Stalls:   d.stalls,
		Panics:   d.panics,
		EventSeq: d.events.seq(),
		Sched:    make([]DestState, len(d.sched.dests)),
	}
	runs := make([]measure.DestRun, len(d.sched.dests))
	for i, ds := range d.sched.dests {
		runs[i], ck.Sched[i] = ds.DestRun, ds.DestState
	}
	accs := make([]*measure.Accumulator, len(d.shards))
	for i := range d.shards {
		accs[i] = d.shards[i].acc
	}
	var err error
	ck.Checkpoint, err = measure.NewCheckpoint(d.digest, int(d.round), runs, accs, d.cfg.TransportState)
	return ck, err
}

// saveCheckpoint is the one save step, Tick's and Stop's: it snapshots the
// daemon under mu and saves the snapshot to CheckpointPath after releasing
// it.
func (d *Daemon) saveCheckpoint() error {
	d.mu.Lock()
	ck, err := d.checkpointLocked()
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return ck.Save(d.cfg.CheckpointPath)
}

// minDestState is the fewest bytes one DestState occupies on disk: three
// integers.
const minDestState = 3

// Save streams the checkpoint to path in the shared binary format
// (internal/ckpt) on the one atomic write path, so a kill mid-write leaves
// the previous checkpoint intact.
func (ck *Checkpoint) Save(path string) error {
	if err := ckpt.WriteFile(path, ckpt.KindDaemon, measure.CheckpointVersion, ck.encode); err != nil {
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
	for _, st := range ck.Sched {
		e.Int(st.NextDue)
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
			ck.Sched[i] = DestState{NextDue: d.Int(), Pairs: d.Int(), ShedStreak: int(d.Int())}
		}
	}
}

// loadCheckpoint reads and decodes a daemon checkpoint. A missing file is
// (nil, nil): the caller starts fresh. Any other failure says which way the
// file is unusable (errors.Is against the ckpt.Err* values).
func loadCheckpoint(path string) (*Checkpoint, error) {
	ck := new(Checkpoint)
	err := ckpt.ReadFile(path, ckpt.KindDaemon, measure.CheckpointVersion, ck.decode)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("daemon: checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// recover restores the daemon from the checkpoint at path, if any, through
// the restore path campaign resume uses (measure.Checkpoint.Restore), with
// as many shards as the checkpoint holds accumulators. A
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
	accs, err := ck.restore(d.digest, d.cfg.Dests)
	if errors.Is(err, measure.ErrDigest) {
		return fmt.Errorf("daemon: %w (pass FreshStart to discard)", err)
	}
	if err != nil {
		return d.quarantineCorrupt(path, err)
	}
	d.shards = make([]shard, len(accs))
	for i, a := range accs {
		d.shards[i].acc = a
	}
	d.round = int64(ck.NextRound)
	d.shed, d.restarts, d.stalls, d.panics = ck.Shed, ck.Restarts, ck.Stalls, ck.Panics
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

// restore validates the body against the run that wants to continue from it
// and rebuilds its shards' accumulators: measure.Checkpoint.Restore, one
// shard per body, then checkSched. recover and the FuzzDecodeCheckpoint
// property both call it, so a body the fuzz target accepts is one recovery
// accepts.
func (ck *Checkpoint) restore(digest uint64, dests []netip.Addr) ([]*measure.Accumulator, error) {
	accs, err := ck.Restore(digest, dests)
	if err == nil {
		err = ck.checkSched(len(dests))
	}
	if err != nil {
		return nil, err
	}
	return accs, nil
}

// checkSched refuses a schedule table no daemon writes: one not of the
// configuration's length, or an entry with a negative due round, pair count
// or shed streak.
func (ck *Checkpoint) checkSched(dests int) error {
	if len(ck.Sched) != dests {
		return fmt.Errorf("daemon: checkpoint schedules %d destinations, configuration has %d", len(ck.Sched), dests)
	}
	for i, st := range ck.Sched {
		if st.NextDue < 0 || st.Pairs < 0 || st.ShedStreak < 0 {
			return fmt.Errorf("daemon: checkpoint destination %d: due round %d, %d pairs, shed streak %d", i, st.NextDue, st.Pairs, st.ShedStreak)
		}
	}
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
