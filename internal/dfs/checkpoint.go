package dfs

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/mr"
	"repro/internal/relation"
)

// checkpointBlockBytes is the encoded size at which a checkpoint block
// is closed: about one store page, so a load holds about a page of
// encoded bytes at a time whatever the relation's size.
const checkpointBlockBytes = DefaultPageSize

// CheckpointStore persists a plan's completed intermediate relations in
// a BlockStore so a failed cascade can resume without re-executing the
// jobs that already finished. It satisfies internal/core's Checkpointer
// contract structurally (core never imports dfs, dfs never imports
// core): SaveIntermediate writes the relation's rows in the raw tuple
// codec the shuffle spills in (relation.AppendTupleRaw) — into a block
// file, page-checksummed like every file in the store — and
// LoadIntermediate rebuilds the relation bit-identically.
//
// A checkpoint file is a sequence of blocks, each a u32 byte length
// followed by that many bytes of whole encoded rows; a block is closed
// by the row that takes it to checkpointBlockBytes, so only a row larger
// than that makes a larger block. Name, schema, dictionaries and volume
// multiplier are not written: the store holds them by reference.
//
// Checkpoints are keyed by (plan, job). Saving the same key again
// replaces the previous checkpoint and releases its file. All methods
// are safe for concurrent use.
type CheckpointStore struct {
	store *BlockStore

	mu      sync.Mutex
	entries map[string]checkpointEntry
}

type checkpointEntry struct {
	name   string
	schema *relation.Schema
	dicts  []*relation.Dict
	mult   float64
	rows   int
	file   mr.SpillFile
	size   int64 // bytes in file
}

// NewCheckpointStore wraps s as a checkpoint sink. The caller keeps
// ownership of s (Close releases the checkpoints with everything else).
func NewCheckpointStore(s *BlockStore) *CheckpointStore {
	return &CheckpointStore{store: s, entries: make(map[string]checkpointEntry)}
}

func checkpointKey(plan, job string) string { return plan + "\x00" + job }

// SaveIntermediate persists job's output relation under (plan, job).
func (c *CheckpointStore) SaveIntermediate(plan, job string, r *relation.Relation) error {
	f, err := c.store.CreateSpillFile()
	if err != nil {
		return fmt.Errorf("dfs: checkpoint %s/%s: %w", plan, job, err)
	}
	size, err := writeRowBlocks(f, r.Tuples)
	if err != nil {
		f.Release() // best effort: the write error is the one to report
		return fmt.Errorf("dfs: checkpoint %s/%s: %w", plan, job, err)
	}
	key := checkpointKey(plan, job)
	c.mu.Lock()
	prev, had := c.entries[key]
	c.entries[key] = checkpointEntry{
		name:   r.Name,
		schema: r.Schema,
		dicts:  append([]*relation.Dict(nil), r.Dicts...),
		mult:   r.VolumeMultiplier,
		rows:   len(r.Tuples),
		file:   f,
		size:   size,
	}
	c.mu.Unlock()
	if had {
		prev.file.Release()
	}
	return nil
}

// writeRowBlocks writes rows to f as checkpoint blocks, seals it and
// returns the bytes written.
func writeRowBlocks(f mr.SpillFile, rows []relation.Tuple) (int64, error) {
	var size int64
	buf := make([]byte, 4, 4+checkpointBlockBytes) // the block under construction, length prefix first
	for i, t := range rows {
		buf = relation.AppendTupleRaw(buf, t)
		if len(buf)-4 < checkpointBlockBytes && i < len(rows)-1 {
			continue
		}
		binary.LittleEndian.PutUint32(buf, uint32(len(buf)-4))
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		size += int64(len(buf))
		buf = buf[:4]
	}
	return size, f.Seal()
}

// LoadIntermediate rebuilds the checkpointed relation for (plan, job),
// reporting ok=false when none was saved. The returned relation is a
// fresh materialisation — callers own it outright. Beyond those rows a
// load holds one block of encoded bytes. Any read, checksum or decode
// failure is an error, never a short relation.
func (c *CheckpointStore) LoadIntermediate(plan, job string) (*relation.Relation, bool, error) {
	c.mu.Lock()
	e, ok := c.entries[checkpointKey(plan, job)]
	c.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	r := relation.New(e.name, e.schema)
	r.Dicts = append([]*relation.Dict(nil), e.dicts...)
	r.VolumeMultiplier = e.mult
	if err := e.readRowBlocks(r); err != nil {
		return nil, false, fmt.Errorf("dfs: checkpoint %s/%s: %w", plan, job, err)
	}
	return r, true, nil
}

// readRowBlocks appends the entry's rows to r, block by block through
// one reused buffer.
func (e *checkpointEntry) readRowBlocks(r *relation.Relation) error {
	if e.rows > 0 {
		r.Tuples = make([]relation.Tuple, 0, e.rows)
	}
	var buf []byte
	for off := int64(0); off < e.size; {
		var hdr [4]byte
		if _, err := e.file.ReadAt(hdr[:], off); err != nil {
			return err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[:]))
		// Checked against the file before it sizes the buffer.
		if off += 4; n > e.size-off {
			return fmt.Errorf("block of %d bytes at offset %d overruns the file's %d", n, off, e.size)
		}
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		block := buf[:n]
		if _, err := e.file.ReadAt(block, off); err != nil {
			return err
		}
		off += n
		for len(block) > 0 {
			t, rest, err := relation.DecodeTupleRaw(block)
			if err != nil {
				return err
			}
			r.Tuples, block = append(r.Tuples, t), rest
		}
	}
	if len(r.Tuples) != e.rows {
		return fmt.Errorf("decoded %d rows, saved %d", len(r.Tuples), e.rows)
	}
	return nil
}

// Len reports how many checkpoints are held.
func (c *CheckpointStore) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Drop releases every checkpoint of the plan (called when a plan
// completes and its intermediates are no longer needed for recovery).
func (c *CheckpointStore) Drop(plan string) {
	prefix := plan + "\x00"
	c.mu.Lock()
	var victims []mr.SpillFile
	for k, e := range c.entries {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			victims = append(victims, e.file)
			delete(c.entries, k)
		}
	}
	c.mu.Unlock()
	for _, f := range victims {
		f.Release()
	}
}
