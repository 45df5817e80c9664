package stream

// ingestBatch is the size lines are grouped into on their way through the
// ring: admitters flush per batch and the consumer drains per batch, so
// ring lock and counter traffic is paid once per batch instead
// of once per line. Batching never reorders lines or changes what is
// admitted — it only amortises overhead.
const ingestBatch = 64

// admitter is the one way lines get into the ring. The push path
// (PushBatch, under pushMu, and so Feed) and WAL replay each own one: add
// cuts an over-long line, copies it into pooled arena storage and queues it,
// flush admits the queued batch under a policy. Not safe for concurrent
// use.
type admitter struct {
	e     *Engine
	ring  *ring
	lw    lineWriter
	batch []item
}

// add copies line into pooled storage and queues it for the next flush,
// reporting whether the batch is now due for one. A line longer than
// MaxLineBytes is truncated to it and marked oversized — decided here, for
// a pushed line and a replayed WAL record alike.
func (a *admitter) add(lineNo int64, line []byte) (full bool) {
	oversized := len(line) > a.e.cfg.MaxLineBytes
	if oversized {
		line = line[:a.e.cfg.MaxLineBytes]
	}
	if a.batch == nil {
		a.batch = make([]item, 0, ingestBatch)
	}
	data, src := a.lw.add(line)
	a.batch = append(a.batch, item{lineNo: lineNo, data: data, src: src, oversized: oversized})
	return len(a.batch) == ingestBatch
}

// flush admits the queued batch in order: Backpressure blocks while the
// ring is full, LoadShed drops what does not fit and counts it in Shed.
// ok=false means the ring stopped (closed or aborted) before the batch
// finished; the remainder is neither admitted nor shed and the producer
// must stop. Either way every item not inserted has its arena reference
// released and the batch is left empty.
func (a *admitter) flush(policy AdmissionPolicy) (inserted, shed int, ok bool) {
	if len(a.batch) == 0 {
		return 0, 0, true
	}
	if policy == LoadShed {
		var stopped bool
		inserted, stopped = a.ring.pushAllTry(a.batch)
		ok = !stopped
		if ok {
			shed = len(a.batch) - inserted
		}
	} else {
		inserted, ok = a.ring.pushAllWait(a.batch)
	}
	a.clear(inserted)
	if shed > 0 {
		a.e.mu.Lock()
		a.e.ctrs.Shed += int64(shed)
		a.e.mu.Unlock()
	}
	return inserted, shed, ok
}

// clear empties the batch, releasing the items from index from on — the
// ones the ring did not take ownership of.
func (a *admitter) clear(from int) {
	for i := range a.batch {
		if i >= from {
			a.batch[i].release()
		}
		a.batch[i] = item{}
	}
	a.batch = a.batch[:0]
}

// close drops whatever is still queued and the writer's arena reference.
func (a *admitter) close() {
	a.clear(0)
	a.lw.close()
}
