package eventstore

import (
	"errors"
	"fmt"
	"sync"

	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// Options configures a Store. Dir is required; zero values elsewhere mean
// the documented defaults.
type Options struct {
	// Dir is the directory holding the segment files.
	Dir string
	// BlockBytes is the raw (uncompressed) body size at which an
	// accumulating block is automatically sealed and written (default
	// 64 KiB — an event is one to two raw bytes, so ≈ 30–60 k events).
	// Auto-sealed blocks reach the OS without an fsync; only
	// Finalize — the checkpoint-coordination point — syncs, which is safe
	// because a block lost with the page cache sits wholly above the last
	// checkpoint and replay re-emits it.
	BlockBytes int
	// SegmentBytes is the segment rotation threshold (default 64 MiB):
	// after a block write leaves the active segment at or beyond it, the
	// segment is sealed (synced + closed) and the next block starts a
	// fresh file.
	SegmentBytes int64
	// Seam is the fault-injection seam (see seglog.Seam): Wrap wraps each
	// segment's file handle; besides seglog's own points, Hook fires at
	// "block" (between a sealed block's write and the in-memory commit of
	// its metadata) and "finalize" (between Finalize's block write and its
	// fsync), where a non-nil return latches the store failed.
	Seam seglog.Seam
	// Telemetry, when non-nil, publishes eventstore.* metrics.
	Telemetry *telemetry.Handle
}

// AlignInfo reports what AlignTo dropped.
type AlignInfo struct {
	// BlocksDropped and EventsDropped count the finalized blocks (and
	// their events) above the alignment point that were truncated away —
	// replay from the checkpoint re-emits all of them.
	BlocksDropped int
	EventsDropped int64
	// SegmentsRemoved counts segment files deleted whole.
	SegmentsRemoved int
	// Spanning counts dropped blocks that also held events at or below
	// the alignment point. Under the engine's finalize-before-checkpoint
	// discipline this is always zero; a non-zero value means the store
	// and checkpoint were produced by different regimes and those events
	// are lost to queries until re-ingested.
	Spanning int
}

// defaultBlockBytes is Options.BlockBytes when unset.
const defaultBlockBytes = 64 << 10

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = seglog.ErrClosed

type storeTelemetry struct {
	blocksWritten *telemetry.Counter
	bytesRaw      *telemetry.Counter
	bytesComp     *telemetry.Counter
}

func newStoreTelemetry(h *telemetry.Handle) storeTelemetry {
	return storeTelemetry{
		blocksWritten: h.Counter("eventstore.blocks.written"),
		bytesRaw:      h.Counter("eventstore.bytes.raw"),
		bytesComp:     h.Counter("eventstore.bytes.compressed"),
	}
}

// Store is the append-only writer over one directory of segment files.
// Append accumulates events into the current block (auto-sealing at
// BlockBytes), Finalize seals and fsyncs everything pending — the
// checkpoint barrier — and AlignTo drops finalized blocks beyond a
// restored checkpoint offset so replay never duplicates events. Safe for
// concurrent use; the engine serializes appends behind its own lock.
type Store struct {
	opts Options
	tm   storeTelemetry

	mu      sync.Mutex
	log     *seglog.Log   // segment files, repair, rotation, the latched first failure
	blocks  [][]blockMeta // finalized blocks per segment, parallel to log.Segments()
	bb      blockBuilder
	wbuf    []byte // seal's reusable output buffer
	lastSeq int64  // newest finalized event seq
	events  int64  // finalized events total
}

// StoreStats is a point-in-time writer snapshot.
type StoreStats struct {
	Segments int
	Blocks   int
	Events   int64
	LastSeq  int64
	// Pending counts events accumulated in the current block, not yet
	// sealed by Finalize or the BlockBytes auto-seal.
	Pending int
}

// Open scans dir, repairs crash damage (seglog.Open: a torn tail is
// truncated, corrupt bytes and everything after them discarded), and
// returns a Store positioned to append after the newest surviving
// finalized block. The OpenInfo counts blocks as frames and their events
// as units.
func Open(opts Options) (*Store, seglog.OpenInfo, error) {
	if opts.Dir == "" {
		return nil, seglog.OpenInfo{}, errors.New("eventstore: Options.Dir is required")
	}
	if opts.BlockBytes <= 0 {
		opts.BlockBytes = defaultBlockBytes
	}
	if opts.BlockBytes > MaxBlockBytes {
		opts.BlockBytes = MaxBlockBytes
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	s := &Store{opts: opts, tm: newStoreTelemetry(opts.Telemetry)}
	s.bb.reset()
	log, info, err := seglog.Open(&spec, seglog.Options{Dir: opts.Dir, SegmentBytes: opts.SegmentBytes, Seam: opts.Seam},
		verifyBlock(false), func(seg int, off int64, _ seglog.Frame, v blockView) {
			if seg == len(s.blocks) {
				s.blocks = append(s.blocks, nil)
			}
			v.meta.off = off
			s.blocks[seg] = append(s.blocks[seg], v.meta)
		})
	if err != nil {
		return nil, info, err
	}
	s.log, s.lastSeq, s.events = log, int64(info.LastSeq), info.Units
	return s, info, nil
}

// Append accumulates events, in order, into the current block, sealing
// and writing the block each time it reaches BlockBytes of raw event data.
// Sequence numbers must be non-decreasing. Durability comes only from the
// next Finalize. The engine hands over a whole ring batch at once, so the
// lock is taken once per batch, not per event.
func (s *Store) Append(evs ...Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Check(); err != nil {
		return err
	}
	for _, ev := range evs {
		floor := s.lastSeq
		if s.bb.count > 0 {
			floor = s.bb.maxSeq
		}
		if ev.Seq < floor {
			return s.log.Fail(fmt.Errorf("eventstore: append seq %d below %d", ev.Seq, floor))
		}
		if err := ev.check(); err != nil {
			return s.log.Fail(err)
		}
		s.bb.add(ev)
		if s.bb.rawLen() >= s.opts.BlockBytes {
			if err := s.sealLocked(); err != nil {
				return err
			}
		}
	}
	return nil
}

// sealLocked encodes the accumulating block and writes it to the
// active segment (the newest file while it has room, else a fresh one).
// No fsync: durability waits for Finalize. Latches on failure.
func (s *Store) sealLocked() error {
	if s.bb.count == 0 {
		return nil
	}
	out, meta := s.bb.seal(s.wbuf[:0])
	s.wbuf = out
	created, err := s.log.Ensure(uint64(s.bb.minSeq))
	if err != nil {
		return err
	}
	if created {
		s.blocks = append(s.blocks, nil)
	}
	meta.off = s.log.Size()
	if _, err := s.log.Write(out); err != nil {
		return err
	}
	// The mid-block crash point: the block's bytes reached the file (or
	// its wrapper), nothing is committed in memory yet.
	if err := s.opts.Seam.Fire("block"); err != nil {
		return s.log.Fail(err)
	}
	tail := len(s.blocks) - 1
	s.blocks[tail] = append(s.blocks[tail], meta)
	s.lastSeq = meta.maxSeq
	s.events += int64(meta.count)
	s.tm.blocksWritten.Inc()
	s.tm.bytesRaw.Add(uint64(meta.rawLen))
	s.tm.bytesComp.Add(uint64(meta.size))
	s.bb.reset()
	if s.log.Full() {
		return s.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment file: sync (its tail blocks may
// be unsynced), close, and let the next seal start a successor.
func (s *Store) rotateLocked() error {
	if s.log.Unsynced() {
		if err := s.log.Sync(); err != nil {
			return err
		}
	}
	return s.log.Rotate(uint64(s.lastSeq))
}

// Finalize seals the pending block (if any) and fsyncs every block
// written since the last Finalize — the checkpoint barrier: the engine
// calls it immediately before saving a checkpoint, so a successful
// checkpoint never covers events the store could still lose, and no block
// spans a checkpoint boundary (which is what lets AlignTo drop whole
// blocks on restart).
func (s *Store) Finalize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Check(); err != nil {
		return err
	}
	if err := s.sealLocked(); err != nil {
		return err
	}
	if !s.log.Unsynced() {
		// Nothing written since the last sync (rotation syncs as it
		// seals, so unsynced blocks always live in the active file).
		return nil
	}
	// The mid-finalize crash point: blocks written, fsync not yet issued.
	if err := s.opts.Seam.Fire("finalize"); err != nil {
		return s.log.Fail(err)
	}
	return s.log.Sync()
}

// AlignTo drops every finalized block holding events above seq — the
// restart handshake with the checkpoint: blocks beyond the restored
// offset describe lines the resumed engine will process (and re-emit)
// again, so they are truncated away rather than duplicated. Must be
// called before any Append.
func (s *Store) AlignTo(seq int64) (AlignInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var info AlignInfo
	if err := s.log.Check(); err != nil {
		return info, err
	}
	if s.bb.count > 0 {
		return info, s.log.Fail(errors.New("eventstore: AlignTo with unsealed events pending"))
	}
	if s.lastSeq <= seq {
		return info, nil
	}
	if s.log.Active() {
		// Release the append handle before truncating files under it.
		if err := s.rotateLocked(); err != nil {
			return info, err
		}
	}
	for tail := len(s.blocks) - 1; tail >= 0; tail-- {
		blocks := s.blocks[tail]
		cut := len(blocks)
		for cut > 0 && blocks[cut-1].maxSeq > seq {
			b := blocks[cut-1]
			info.BlocksDropped++
			info.EventsDropped += int64(b.count)
			if b.minSeq <= seq {
				info.Spanning++
			}
			cut--
		}
		if cut == len(blocks) {
			break
		}
		var end, last int64 // cut == 0 removes the file whole
		if cut > 0 {
			end, last = blocks[cut-1].off+blocks[cut-1].size, blocks[cut-1].maxSeq
		}
		if err := s.log.CutTail(end, uint64(last)); err != nil {
			return info, err
		}
		if cut > 0 {
			s.blocks[tail] = blocks[:cut]
			break
		}
		info.SegmentsRemoved++
		s.blocks = s.blocks[:tail]
	}
	s.lastSeq = 0
	s.events = 0
	for _, blocks := range s.blocks {
		for _, b := range blocks {
			s.events += int64(b.count)
		}
		s.lastSeq = blocks[len(blocks)-1].maxSeq
	}
	return info, nil
}

// LastSeq returns the newest finalized event's sequence number, 0 when
// the store holds none.
func (s *Store) LastSeq() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// Err returns the latched failure, nil while healthy.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Err()
}

// Stats snapshots the writer.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		Segments: len(s.blocks),
		Events:   s.events,
		LastSeq:  s.lastSeq,
		Pending:  int(s.bb.count),
	}
	for _, blocks := range s.blocks {
		st.Blocks += len(blocks)
	}
	return st
}

// Close seals and syncs pending events and releases the file handle.
// Further operations return ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.log.Closed() {
		return nil
	}
	var err error
	if s.log.Err() == nil && s.bb.count > 0 {
		err = s.sealLocked()
	}
	if s.log.Err() == nil && s.log.Unsynced() {
		err = s.log.Sync()
	}
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}
