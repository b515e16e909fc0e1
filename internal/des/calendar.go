package des

import (
	"math/bits"
	"time"
)

// The event calendar is a monotone radix-bucket queue (a radix heap,
// Ahuja et al., JACM 1990) over arena slots.
//
// Virtual time never goes backwards, so every queued event is at or after
// last, the time of the most recently extracted entry. An entry at time at
// lives in bucket bits.Len64(at ^ last): bucket 0 holds the entries at
// exactly last, and bucket i > 0 holds entries whose highest bit differing
// from last is bit i-1. Every entry in bucket i is therefore earlier than
// every entry in bucket i+1, and the earliest event is in bucket 0 or, when
// that is empty, in the lowest non-empty bucket. Extracting from bucket i
// scans it for its minimum m, moves last to m and redistributes the bucket:
// relative to m each entry lands in a strictly lower bucket, so an entry
// moves at most 64 times over its life and usually only a few.
//
// Bucket 0 is a binary heap of arena slots ordered by (priority, seq), the
// tie-break among events at one instant. Extraction hands back the bucket
// minimum directly when nothing ties with it, so bucket 0 is usually empty.
// Buckets 1..64 are unordered stacks of 32-entry chunks. Each entry is an
// (at, slot) pair, so scanning and redistributing read the times from
// contiguous memory, not from the arena. All chunks come from one slab
// addressed by uint32 index, and emptied chunks go on a free list threaded
// through their next fields, so the steady state allocates nothing.
//
// An event scheduled into an empty calendar waits in a one-entry solo
// register, the steady state of shallow queues, and is filed into the
// buckets when the next event arrives.
//
// Cancelling the solo event removes it outright. Any other cancelled event
// stays queued as a tombstone (the arena slot has no handler): it is
// dropped, and its slot freed, when it pops or when the queue is compacted
// because tombstones outnumber live events.

const (
	chunkLen     = 32
	radixBuckets = 64 // buckets 1..64; bucket 0 is calendar.cur
)

// entry is one queued event: its firing time and arena slot.
type entry struct {
	at   time.Duration
	slot uint32
}

// chunk is a fixed block of one bucket's entries. next links the chunks of
// a bucket (or of the free list) as a slab index + 1; 0 ends the list.
type chunk struct {
	e    [chunkLen]entry
	next uint32
}

// bucket is a stack of chunks. Only the head chunk may be partly filled.
type bucket struct {
	head uint32 // slab index + 1 of the head chunk; 0 when empty
	fill uint32 // entries used in the head chunk
}

// calendar is the queue state embedded in Simulation.
type calendar struct {
	last      time.Duration        // time of the last extracted entry
	cur       []uint32             // bucket 0: slots at last, heap by (priority, seq)
	buckets   [radixBuckets]bucket // buckets[i-1] is bucket i
	nonEmpty  uint64               // bit i-1 set iff bucket i holds entries
	slab      []chunk
	freeChunk uint32 // slab index + 1 of the first free chunk; 0 when none
	solo      entry  // the only queued entry, when soloSet
	soloSet   bool
	live      int // queued events that will fire
	tombs     int // queued cancelled events
}

// push queues arena slot at time at. at must not precede s.now (and hence
// not precede last).
func (s *Simulation) push(at time.Duration, slot uint32) {
	e := entry{at: at, slot: slot}
	if s.live == 0 && s.tombs == 0 {
		s.solo, s.soloSet = e, true
	} else {
		if s.soloSet {
			s.soloSet = false
			s.place(s.solo)
		}
		s.place(e)
	}
	s.live++
}

// place files e into bucket 0 or the bucket its time selects.
func (s *Simulation) place(e entry) {
	if e.at == s.last {
		s.pushCur(e.slot)
		return
	}
	s.pushBucket(bits.Len64(uint64(e.at^s.last)), e)
}

// pop removes the earliest queued entry if its time is at most end. The
// entry may be a tombstone; the caller checks.
func (s *Simulation) pop(end time.Duration) (uint32, time.Duration, bool) {
	if s.soloSet {
		if s.solo.at > end {
			return 0, 0, false
		}
		s.soloSet = false
		s.last = s.solo.at
		return s.solo.slot, s.last, true
	}
	if len(s.cur) == 0 {
		return s.advance(end)
	}
	if s.last > end {
		return 0, 0, false
	}
	return s.popCur(), s.last, true
}

// advance pops the earliest entry of the lowest non-empty bucket, unless
// that entry is later than end: then last stays put, so events may still be
// scheduled anywhere from the clock onwards. Popping moves last to the
// entry's time and redistributes the rest of the bucket below it.
func (s *Simulation) advance(end time.Duration) (uint32, time.Duration, bool) {
	if s.nonEmpty == 0 {
		// Popped tombstones may have moved last past the clock; an empty
		// queue rebases to the clock so later schedules at Now stay valid.
		s.last = s.now
		return 0, 0, false
	}
	i := bits.TrailingZeros64(s.nonEmpty)
	b := &s.buckets[i]
	minAt := time.Duration(1<<63 - 1)
	for c, n := b.head, b.fill; c != 0; c, n = s.slab[c-1].next, chunkLen {
		for _, e := range s.slab[c-1].e[:n] {
			if e.at < minAt {
				minAt = e.at
			}
		}
	}
	if minAt > end {
		return 0, 0, false
	}
	s.last = minAt
	// The first entry at minAt is returned directly; bucket 0 is only
	// needed when others tie with it.
	var first uint32
	found := false
	c, n := s.detach(i)
	for c != 0 {
		// Index the slab afresh for every entry: pushBucket may grow it.
		for k := uint32(0); k < n; k++ {
			e := s.slab[c-1].e[k]
			switch {
			case e.at != minAt:
				s.pushBucket(bits.Len64(uint64(e.at^minAt)), e)
			case found:
				s.pushCur(e.slot)
			default:
				first, found = e.slot, true
			}
		}
		c, n = s.releaseChunk(c), chunkLen
	}
	if len(s.cur) == 0 {
		return first, minAt, true
	}
	s.pushCur(first)
	return s.popCur(), minAt, true
}

// detach empties buckets[i] and returns its chunk list: head chunk index
// + 1 and the head's fill.
func (s *Simulation) detach(i int) (uint32, uint32) {
	b := &s.buckets[i]
	c, n := b.head, b.fill
	b.head, b.fill = 0, 0
	s.nonEmpty &^= 1 << uint(i)
	return c, n
}

// pushBucket appends e to bucket i (1..64).
func (s *Simulation) pushBucket(i int, e entry) {
	b := &s.buckets[i-1]
	if b.head == 0 || b.fill == chunkLen {
		c := s.freeChunk
		if c != 0 {
			s.freeChunk = s.slab[c-1].next
		} else {
			s.slab = append(s.slab, chunk{})
			c = uint32(len(s.slab))
		}
		s.slab[c-1].next = b.head
		b.head, b.fill = c, 0
		s.nonEmpty |= 1 << uint(i-1)
	}
	s.slab[b.head-1].e[b.fill] = e
	b.fill++
}

// releaseChunk puts chunk c on the free list and returns the chunk that
// followed it.
func (s *Simulation) releaseChunk(c uint32) uint32 {
	next := s.slab[c-1].next
	s.slab[c-1].next = s.freeChunk
	s.freeChunk = c
	return next
}

// compact drops every tombstone from the queue and frees its slot.
func (s *Simulation) compact() {
	for m := s.nonEmpty; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		c, n := s.detach(i)
		for c != 0 {
			for k := uint32(0); k < n; k++ {
				e := s.slab[c-1].e[k]
				if s.arena[e.slot].dead() {
					s.free = append(s.free, e.slot)
				} else {
					s.pushBucket(i+1, e)
				}
			}
			c, n = s.releaseChunk(c), chunkLen
		}
	}
	w := 0
	for _, slot := range s.cur {
		if s.arena[slot].dead() {
			s.free = append(s.free, slot)
		} else {
			s.cur[w] = slot
			w++
		}
	}
	s.cur = s.cur[:w]
	for j := w/2 - 1; j >= 0; j-- {
		s.siftDown(j)
	}
	s.tombs = 0
}

// before orders two slots queued at the same instant.
func (s *Simulation) before(a, b uint32) bool {
	ea, eb := &s.arena[a], &s.arena[b]
	if ea.priority != eb.priority {
		return ea.priority < eb.priority
	}
	return ea.seq < eb.seq
}

// pushCur adds slot to bucket 0.
func (s *Simulation) pushCur(slot uint32) {
	s.cur = append(s.cur, slot)
	i := len(s.cur) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(slot, s.cur[parent]) {
			break
		}
		s.cur[i] = s.cur[parent]
		i = parent
	}
	s.cur[i] = slot
}

// popCur removes and returns bucket 0's first slot.
func (s *Simulation) popCur() uint32 {
	top := s.cur[0]
	n := len(s.cur) - 1
	s.cur[0] = s.cur[n]
	s.cur = s.cur[:n]
	if n > 1 {
		s.siftDown(0)
	}
	return top
}

// siftDown restores bucket 0's heap order from position i downwards.
func (s *Simulation) siftDown(i int) {
	n := len(s.cur)
	slot := s.cur[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && s.before(s.cur[r], s.cur[child]) {
			child = r
		}
		if !s.before(s.cur[child], slot) {
			break
		}
		s.cur[i] = s.cur[child]
		i = child
	}
	s.cur[i] = slot
}
