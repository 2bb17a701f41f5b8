package measure

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"path/filepath"

	"repro/internal/ckpt"
)

// This file is the checkpoint/restore layer of a run — the campaign's whole
// checkpoint, and the body the daemon's checkpoint extends with its schedule
// section. A checkpoint captures everything a run needs to continue after a
// kill: the round cursor, the per-destination error budgets and path hints
// (DestRun), an opaque transport payload, and each accumulator's partial
// statistics. The accumulator state splits into two kinds — the scalar
// tallies and address sets, which serialize verbatim, and the derived
// memo/graph layers, which are NOT serialized: restore materializes each
// destination's interned routes (their hop cells as the accumulator stores
// them, in first-seen order) and replays them through the same analyzeRoute
// code that built them, so the memos, diamond graphs, and address
// bookkeeping are rebuilt bit-for-bit by construction instead of by a
// parallel serialization format that could drift. Pair-classification memos
// are dropped entirely and recomputed lazily — they are a pure function of
// the interned routes. A cell holds exactly the observables route equality
// compares: RTTs and IP IDs are not in the file because nothing memoized
// reads them (see stream.go), so a restored route is Equal to the one
// folded, not identical to it, and that is all a resumed fold needs.
//
// Compatibility contract: the frame's version byte gates the schema, and
// Digest hashes the run's shape (RunDigest: destination list, effective
// probing, and for a campaign its rounds), so a checkpoint only ever resumes
// the run that wrote it, at any worker count. Files are
// written with an atomic temp-file + rename, so a kill during Save leaves
// the previous checkpoint intact.
//
// On disk a checkpoint is the binary format of internal/ckpt, laid out by
// codec.go. Checkpoint is the run body as it is read and written; each
// accumulator in it is already its encoded body (AccState), which State
// encodes straight from the accumulator and RestoreAccumulator reads straight
// back into a new one, so there is no second in-memory schema between an
// accumulator and its bytes.
//
// The one state this format cannot carry is a route that was never
// interned: a fingerprint-collided one (two unequal routes of one
// destination sharing a 64-bit FNV hash; only the first of each fingerprint
// is retained) or one no cell holds (packHop). Such a route was never
// memoized in the first place — folds re-analyze it idempotently — so
// statistics stay correct; only its diamond-graph echo would be rebuilt one
// round late after a resume.

// CheckpointVersion is the schema version of both kinds of checkpoint, the
// campaign's and the daemon's: Save writes it and Load accepts only it. A
// campaign's version 2 added the accumulator RTT tallies; version 3 replaced
// the JSON document with the binary format (daemon 2); version 4 is the run
// body shared with the daemon (daemon 3; one DestRun per destination where
// version 3 had a health table and two hint arrays); version 5 writes
// interned hops as the accumulator stores them, one 8-byte cell each,
// without RTTs and IP IDs (daemon 4); version 6 writes each accumulator's
// body length-prefixed (daemon 5, whose schedule entry also lost the seen
// flag and the classic fingerprint; daemon 6 lost the Paris fingerprint).
// Version 7 has the same layout for both kinds, and body i is block i of
// the plan (Block) for as many shards as there are bodies: the daemon's
// version 7 had one body per shard where its 6 had one, and the campaign's
// digest no longer hashes its worker count. Older files are refused, never
// resumed with silently wrong statistics.
const CheckpointVersion = 7

// Checkpoint is a run's serialized resumable state: all of a streaming
// campaign's, and the body of the daemon's.
type Checkpoint struct {
	// Digest fingerprints the configuration that wrote the checkpoint
	// (RunDigest); Restore refuses a mismatch.
	Digest uint64
	// NextRound is the first round the resumed run will run; rounds
	// [0, NextRound) are fully folded into Workers.
	NextRound int
	// Transport is the opaque payload of Config.TransportState, which the
	// run persists but never interprets.
	Transport json.RawMessage `json:",omitempty"`
	// Dests is the per-destination error budget and path hints, indexed
	// like Config.Dests.
	Dests []DestRun
	// Workers holds one accumulator body per block of the plan: body i
	// holds the destinations of Block(i, len(Workers), len(Dests)) and
	// nothing else. The campaign and the daemon both write one per shard,
	// in shard order.
	Workers []AccState
}

// AccState is one worker accumulator's partial statistics as its checkpoint
// body (codec.go, docs/checkpoint.md). Accumulator.State returns it as the
// head it encoded and the hop cells it noted, which Checkpoint.Encode
// streams into place; a body read from a file is one run of bytes, the
// head, with no cells noted.
type AccState struct {
	head  []byte
	cells []cellCut
}

// NewCheckpoint builds a run's checkpoint body, the campaign's whole file
// and the daemon's first section: one AccState per accumulator in shard
// order, runs as Dests (kept, not copied), and transport's payload when it
// is set. The accumulators must be quiescent, which both runtimes arrange by
// building it at a round boundary, after every fold of the round returned.
func NewCheckpoint(digest uint64, nextRound int, runs []DestRun, accs []*Accumulator, transport func() json.RawMessage) (Checkpoint, error) {
	ck := Checkpoint{Digest: digest, NextRound: nextRound, Dests: runs, Workers: make([]AccState, len(accs))}
	if transport != nil {
		ck.Transport = transport()
	}
	for w, a := range accs {
		st, err := a.State()
		if err != nil {
			return Checkpoint{}, fmt.Errorf("measure: checkpoint: shard %d: %w", w, err)
		}
		ck.Workers[w] = st
	}
	return ck, nil
}

// Save streams the checkpoint to path in the binary format (see codec.go and
// docs/checkpoint.md) on the one atomic write path: temp file, fsync,
// rename, directory fsync, stale temp files swept. A kill mid-write leaves
// the previous checkpoint intact. The frame streams, and so do the hop
// cells of each accumulator body in it, so nothing the size of the file is
// held in memory.
func (ck *Checkpoint) Save(path string) error {
	if err := ckpt.WriteFile(path, ckpt.KindCampaign, CheckpointVersion, ck.Encode); err != nil {
		return fmt.Errorf("measure: writing checkpoint %s: %w", filepath.Base(path), err)
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by Save. The error says which
// way a file is unusable (errors.Is against the ckpt.Err* values): a legacy
// JSON checkpoint, a truncated or corrupted file, a daemon's checkpoint, or
// another version.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := ckpt.ReadFile(path, ckpt.KindCampaign, CheckpointVersion, ck.Decode); err != nil {
		return nil, fmt.Errorf("measure: checkpoint %s: %w", filepath.Base(path), err)
	}
	return ck, nil
}

// ErrDigest is Restore's refusal of a checkpoint written under another
// configuration — the one refusal that says nothing is wrong with the file.
var ErrDigest = errors.New("checkpoint digest does not match the configuration")

// Restore is the one way back from a loaded body into a run: it validates
// the body against the run that wants to continue from it — digest (the
// run's RunDigest), destination count, at least one accumulator, a round
// cursor and error budgets no run can have produced negative, and each
// accumulator against the plan — and rebuilds the accumulators by replay,
// one per body: the body count is the run's shard count. What only one
// runtime knows stays with it: the campaign's upper bound on the round
// cursor, the daemon's schedule section and its policy for a file that
// fails here.
//
// Accumulator w may hold, measured or quarantined, only destinations of
// Block(w, len(Workers), len(dests)): no run folds any other there, and a
// misplaced one would split a destination's state between two
// accumulators once the run folds it into its own block's. The blocks are
// disjoint, so no destination is restored twice either.
func (ck *Checkpoint) Restore(digest uint64, dests []netip.Addr) ([]*Accumulator, error) {
	if ck.Digest != digest {
		return nil, fmt.Errorf("measure: %w: checkpoint %#x, configuration %#x", ErrDigest, ck.Digest, digest)
	}
	if ck.NextRound < 0 {
		return nil, fmt.Errorf("measure: checkpoint round cursor %d is negative", ck.NextRound)
	}
	if len(ck.Dests) != len(dests) {
		return nil, fmt.Errorf("measure: checkpoint for %d destinations, configuration has %d", len(ck.Dests), len(dests))
	}
	if len(ck.Workers) == 0 {
		return nil, fmt.Errorf("measure: checkpoint holds no accumulator")
	}
	for i, r := range ck.Dests {
		if r.ConsecFails < 0 {
			return nil, fmt.Errorf("measure: checkpoint destination %d: %d consecutive failures", i, r.ConsecFails)
		}
	}
	index := make(map[netip.Addr]int, len(dests))
	for i, d := range dests {
		index[d] = i
	}
	out := make([]*Accumulator, len(ck.Workers))
	for w := range ck.Workers {
		a, err := RestoreAccumulator(ck.Workers[w])
		if err != nil {
			return nil, fmt.Errorf("measure: worker %d: %w", w, err)
		}
		lo, hi := Block(w, len(out), len(dests))
		inBlock := func(d netip.Addr) error {
			if i, ok := index[d]; !ok || i < lo || i >= hi {
				return errCorrupt("worker %d holds destination %v, outside its block [%d, %d) of the plan", w, d, lo, hi)
			}
			return nil
		}
		for _, ds := range a.destView {
			if err := inBlock(ds.dest()); err != nil {
				return nil, err
			}
		}
		for _, d := range a.skippedDests.view {
			if err := inBlock(d); err != nil {
				return nil, err
			}
		}
		out[w] = a
	}
	return out, nil
}

// Resume loads a checkpoint into the campaign: the next RunContext call
// continues from the checkpoint's round cursor with the restored
// accumulators, one per shard, error budgets, and path hints. Restore
// validates the config digest, so a checkpoint can only continue the
// campaign shape that wrote it, and holds each body to its block, so the
// campaign keeps the checkpoint's shard count at any Workers. The caller is
// responsible for restoring Checkpoint.Transport into the transport before
// running.
func (c *Campaign) Resume(ck *Checkpoint) error {
	if !c.cfg.Stream {
		return fmt.Errorf("measure: resume requires a streaming campaign")
	}
	accs, err := ck.Restore(c.digest, c.cfg.Dests)
	if err != nil {
		return err
	}
	if ck.NextRound > c.cfg.Rounds {
		return fmt.Errorf("measure: checkpoint round cursor %d outside campaign rounds %d", ck.NextRound, c.cfg.Rounds)
	}
	copy(c.runs, ck.Dests)
	c.resume = &resumeState{nextRound: ck.NextRound, accs: accs}
	return nil
}
