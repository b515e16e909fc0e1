package des

import (
	"fmt"
	"math"
	"math/bits"
	"testing"
	"time"

	"repro/internal/rng"
)

// refEvent is one pending event in the differential reference model.
type refEvent struct {
	at   time.Duration
	prio int
	seq  uint64
}

// firing is one fired event as the tracer reports it.
type firing struct {
	at  time.Duration
	seq uint64
}

// diffHarness drives a Simulation and a brute-force reference calendar in
// lockstep. The reference keeps pending events in a map and finds the next
// one by a linear scan for the least (at, priority, seq); every event that
// fires on the real calendar must be exactly that one.
type diffHarness struct {
	t   *testing.T
	sim *Simulation
	src *rng.Source

	pending map[int]refEvent // live events by id
	handles []Handle         // every handle ever issued, by id
	nextSeq uint64
	now     time.Duration
	want    []firing      // fired events, as the reference orders them
	got     []firing      // fired events, as the tracer saw them
	stopped bool          // a handler called Stop during the current run
	end     time.Duration // bound of the RunUntil in progress

	argH ArgHandler

	soloCancels         int // cancels that removed the solo entry outright
	compactions         int // cancels that compacted away older tombstones
	compactionsNonEmpty int // ... while live events remained queued
}

func newDiffHarness(t *testing.T, seed uint64) *diffHarness {
	h := &diffHarness{
		t:       t,
		sim:     New(),
		src:     rng.New(seed),
		pending: map[int]refEvent{},
		end:     math.MaxInt64,
	}
	h.argH = func(_ *Simulation, arg uint64) { h.onFire(int(arg)) }
	h.sim.SetTracer(h)
	return h
}

// Fired implements Tracer.
func (h *diffHarness) Fired(at time.Duration, seq uint64) {
	h.got = append(h.got, firing{at, seq})
}

// refNext returns the id of the reference's earliest pending event.
func (h *diffHarness) refNext() (int, bool) {
	best, found := 0, false
	for id, ev := range h.pending {
		if !found || refLess(ev, h.pending[best]) {
			best, found = id, true
		}
	}
	return best, found
}

func refLess(a, b refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// onFire runs inside every handler: it checks the event against the
// reference, then performs random follow-up operations from the handler.
func (h *diffHarness) onFire(id int) {
	want, ok := h.refNext()
	if !ok || want != id {
		h.t.Fatalf("fired event %d, reference expects %d (found %v)", id, want, ok)
	}
	ev := h.pending[id]
	if ev.at > h.end {
		h.t.Fatalf("event %d at %v fired during RunUntil(%v)", id, ev.at, h.end)
	}
	if h.sim.Now() != ev.at {
		h.t.Fatalf("event %d fired at %v, scheduled for %v", id, h.sim.Now(), ev.at)
	}
	delete(h.pending, id)
	h.now = ev.at
	h.want = append(h.want, firing{ev.at, ev.seq})
	if len(h.handles) > 20000 {
		return // bound the cascade
	}
	// Fewer than one follow-up per event on average, so runs terminate.
	switch r := h.src.Intn(100); {
	case r < 15:
		h.schedule(h.now, h.pickPrio()) // zero delay from inside a handler
	case r < 35:
		h.schedule(h.pickTime(), h.pickPrio())
	case r < 45:
		h.cancel(h.src.Intn(len(h.handles)))
	case r < 48:
		h.sim.Stop()
		h.stopped = true
	}
}

func (h *diffHarness) pickPrio() int {
	return []int{0, 0, 0, 1, -1, 3, -1 << 30}[h.src.Intn(7)]
}

// pickTime draws a firing time at or after now, biased towards the cases a
// radix calendar can get wrong: the current instant, ties with queued
// events, the gap before the next queued event, and the far future.
func (h *diffHarness) pickTime() time.Duration {
	switch h.src.Intn(8) {
	case 0:
		return h.now
	case 1:
		if len(h.handles) > 0 {
			if ev, ok := h.pending[h.src.Intn(len(h.handles))]; ok {
				return ev.at // a tie with a queued event
			}
		}
		return h.now
	case 2:
		return h.now + time.Duration(h.src.Intn(16))
	case 3:
		return h.now + time.Duration(h.src.Intn(1<<20))
	case 4:
		return h.now + 1<<40 + time.Duration(h.src.Intn(1<<30))
	case 5:
		if id, ok := h.refNext(); ok {
			if gap := h.pending[id].at - h.now; gap > 0 {
				return h.now + time.Duration(h.src.Uint64n(uint64(gap)))
			}
		}
		return h.now
	default:
		return h.now + time.Duration(h.src.Exp(1000))
	}
}

// schedule queues a new event through one of the scheduling calls.
func (h *diffHarness) schedule(at time.Duration, prio int) {
	id := len(h.handles)
	var (
		hd  Handle
		err error
	)
	switch h.src.Intn(4) {
	case 0:
		hd, err = h.sim.ScheduleAtPriority(at, prio, func(*Simulation) { h.onFire(id) })
	case 1:
		hd, err = h.sim.ScheduleArgAtPriority(at, prio, h.argH, uint64(id))
	case 2:
		prio = 0
		hd, err = h.sim.ScheduleAt(at, func(*Simulation) { h.onFire(id) })
	default:
		prio = 0
		hd, err = h.sim.ScheduleArgAfter(at-h.now, h.argH, uint64(id))
	}
	if err != nil {
		h.t.Fatalf("schedule at %v (now %v): %v", at, h.now, err)
	}
	h.nextSeq++
	h.handles = append(h.handles, hd)
	h.pending[id] = refEvent{at: at, prio: prio, seq: h.nextSeq}
}

// cancel cancels event id, which may be pending, fired or cancelled.
func (h *diffHarness) cancel(id int) {
	_, want := h.pending[id]
	tombs := h.sim.tombs
	if got := h.sim.Cancel(h.handles[id]); got != want {
		h.t.Fatalf("Cancel(event %d) = %v, reference says pending=%v", id, got, want)
	}
	if !want {
		return
	}
	delete(h.pending, id)
	switch {
	case h.sim.tombs == tombs:
		h.soloCancels++
	case tombs > 0 && h.sim.tombs == 0:
		h.compactions++
		if h.sim.live > 0 {
			h.compactionsNonEmpty++
		}
	}
}

// check compares the observable state with the reference and checks the
// calendar's internal invariants.
func (h *diffHarness) check(op string) {
	h.t.Helper()
	if err := calendarInvariants(h.sim); err != nil {
		h.t.Fatalf("after %s: %v", op, err)
	}
	if got := h.sim.Pending(); got != len(h.pending) {
		h.t.Fatalf("after %s: Pending() = %d, reference %d", op, got, len(h.pending))
	}
	if h.sim.Now() != h.now {
		h.t.Fatalf("after %s: Now() = %v, reference %v", op, h.sim.Now(), h.now)
	}
	if h.sim.Fired() != uint64(len(h.want)) {
		h.t.Fatalf("after %s: Fired() = %d, reference %d", op, h.sim.Fired(), len(h.want))
	}
}

// calendarInvariants walks every queued entry and checks the bookkeeping:
// each entry sits in the bucket its time selects relative to last, the
// live and tombstone counts match the entries, and every arena slot is
// either queued exactly once or on the free list.
func calendarInvariants(s *Simulation) error {
	seen := make([]int, len(s.arena))
	live, dead := 0, 0
	visit := func(e entry, bucket int) error {
		if e.at < s.last {
			return fmt.Errorf("entry at %v precedes last %v", e.at, s.last)
		}
		if want := bits.Len64(uint64(e.at ^ s.last)); bucket >= 0 && want != bucket {
			return fmt.Errorf("entry at %v in bucket %d, want %d (last %v)", e.at, bucket, want, s.last)
		}
		seen[e.slot]++
		if s.arena[e.slot].dead() {
			dead++
		} else {
			live++
		}
		return nil
	}
	if s.soloSet {
		if s.nonEmpty != 0 || len(s.cur) != 0 {
			return fmt.Errorf("solo entry queued alongside others")
		}
		if err := visit(s.solo, -1); err != nil {
			return err
		}
	}
	for _, slot := range s.cur {
		if err := visit(entry{at: s.last, slot: slot}, 0); err != nil {
			return err
		}
	}
	for i := 1; i <= radixBuckets; i++ {
		b := s.buckets[i-1]
		if (b.head != 0) != (s.nonEmpty&(1<<uint(i-1)) != 0) {
			return fmt.Errorf("bucket %d occupancy disagrees with the non-empty mask", i)
		}
		for c, n := b.head, b.fill; c != 0; c, n = s.slab[c-1].next, chunkLen {
			for _, e := range s.slab[c-1].e[:n] {
				if err := visit(e, i); err != nil {
					return err
				}
			}
		}
	}
	if live != s.live || dead != s.tombs {
		return fmt.Errorf("queued %d live and %d dead entries, counters say %d and %d", live, dead, s.live, s.tombs)
	}
	for _, slot := range s.free {
		seen[slot]++
	}
	for slot, n := range seen {
		if n != 1 {
			return fmt.Errorf("arena slot %d is queued or free %d times, want exactly once", slot, n)
		}
	}
	return nil
}

// runUntil runs the real calendar to end and applies RunUntil's clock rule
// to the reference.
func (h *diffHarness) runUntil(end time.Duration) {
	h.stopped = false
	h.end = end
	h.sim.RunUntil(end)
	h.end = math.MaxInt64
	if h.stopped {
		return
	}
	for _, ev := range h.pending {
		if ev.at <= end {
			h.t.Fatalf("RunUntil(%v) left an event at %v pending", end, ev.at)
		}
	}
	if h.now < end {
		h.now = end
	}
}

// step performs one random top-level operation.
func (h *diffHarness) step() {
	switch r := h.src.Intn(100); {
	case r < 40:
		h.schedule(h.pickTime(), h.pickPrio())
		h.check("schedule")
	case r < 55:
		if len(h.handles) > 0 {
			h.cancel(h.src.Intn(len(h.handles)))
		}
		h.check("cancel")
	case r < 60:
		// A cancel burst: enough tombstones to force compaction with live
		// events still queued.
		for id := range h.handles {
			if _, ok := h.pending[id]; ok && h.src.Intn(3) > 0 {
				h.cancel(id)
			}
		}
		h.check("cancel burst")
	case r < 72:
		// Stop short of the next event, exactly on it, or well past it;
		// later schedules then land between the end and the next event.
		end := h.pickTime()
		if id, ok := h.refNext(); ok && h.src.Intn(2) == 0 {
			end = h.pending[id].at - time.Duration(h.src.Intn(2))
		}
		h.runUntil(end)
		h.check("RunUntil")
	case r < 74:
		h.runUntil(h.now - 1) // an end before the clock fires nothing
		h.check("RunUntil(past)")
	case r < 90:
		budget := h.src.Intn(20)
		h.stopped = false
		h.sim.RunWhile(func() bool {
			budget--
			return budget >= 0
		})
		h.check("RunWhile")
	case r < 93:
		h.stopped = false
		h.sim.Run()
		if !h.stopped && len(h.pending) != 0 {
			h.t.Fatalf("Run returned with %d events pending", len(h.pending))
		}
		h.check("Run")
	default:
		// Stale handles: cancel a random mix of old handles, which must
		// all be inert unless the reference still holds the event.
		for i := 0; i < 8 && len(h.handles) > 0; i++ {
			h.cancel(h.src.Intn(len(h.handles)))
		}
		h.check("stale cancels")
	}
}

// TestCalendarMatchesReference fires random interleavings of every
// scheduling call, Cancel, RunUntil, RunWhile, Stop and zero-delay
// schedules made from handlers, and checks every fired (at, seq) and every
// Pending() against the brute-force reference ordered by
// (at, priority, seq).
func TestCalendarMatchesReference(t *testing.T) {
	t.Parallel()

	soloCancels, compactions, nonEmpty := 0, 0, 0
	for seed := uint64(1); seed <= 12; seed++ {
		h := newDiffHarness(t, seed)
		for i := 0; i < 3000; i++ {
			h.step()
		}
		h.stopped = false
		for h.sim.Run(); h.stopped; h.sim.Run() {
			h.stopped = false
		}
		h.check("final Run")
		if len(h.pending) != 0 {
			t.Fatalf("seed %d: %d events left after the final Run", seed, len(h.pending))
		}
		if len(h.got) != len(h.want) {
			t.Fatalf("seed %d: traced %d firings, reference %d", seed, len(h.got), len(h.want))
		}
		for i := range h.want {
			if h.got[i] != h.want[i] {
				t.Fatalf("seed %d: firing %d = %+v, reference %+v", seed, i, h.got[i], h.want[i])
			}
		}
		soloCancels += h.soloCancels
		compactions += h.compactions
		nonEmpty += h.compactionsNonEmpty
	}
	if soloCancels == 0 || nonEmpty == 0 {
		t.Fatalf("%d cancels removed the solo entry and %d compactions ran with live events queued (of %d); want both",
			soloCancels, nonEmpty, compactions)
	}
}

// TestCalendarEqualTimestampsByPriority pins the tie-break among events at
// one instant, including the priority internal/san schedules its
// run-boundary event with.
func TestCalendarEqualTimestampsByPriority(t *testing.T) {
	t.Parallel()

	sim := New()
	var order []uint64
	rec := func(_ *Simulation, arg uint64) { order = append(order, arg) }
	for i, p := range []int{0, 5, -1 << 30, 0, -1, 5, -1 << 30} {
		if _, err := sim.ScheduleArgAtPriority(time.Hour, p, rec, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	want := []uint64{2, 6, 4, 0, 3, 1, 5}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestCalendarScheduleBetweenRunUntilAndNextEvent covers the case that
// forbids RunUntil from advancing the calendar past its end: once the clock
// stops at end, events may be scheduled anywhere in [end, next event).
func TestCalendarScheduleBetweenRunUntilAndNextEvent(t *testing.T) {
	t.Parallel()

	sim := New()
	var order []uint64
	rec := func(_ *Simulation, arg uint64) { order = append(order, arg) }
	for i, at := range []time.Duration{1000, 1 << 40, 1<<40 + 1} {
		if _, err := sim.ScheduleArgAt(at, rec, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunUntil(1001)
	sim.RunUntil(1 << 39)
	for i, at := range []time.Duration{1 << 39, 1<<39 + 1, 1<<40 - 1, 1 << 40} {
		if _, err := sim.ScheduleArgAt(at, rec, uint64(10+i)); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	want := []uint64{0, 10, 11, 12, 1, 13, 2}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestCalendarRebasesAfterTombstoneDrain covers a queue that empties by
// dropping a tombstone later than the clock: the calendar must then accept
// and order schedules anywhere from the clock onwards again.
func TestCalendarRebasesAfterTombstoneDrain(t *testing.T) {
	t.Parallel()

	sim := New()
	var order []time.Duration
	rec := func(s *Simulation) { order = append(order, s.Now()) }
	dead, err := sim.ScheduleAt(2*time.Hour, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []time.Duration{time.Hour, time.Hour + 1} {
		if _, err := sim.ScheduleAt(at, rec); err != nil {
			t.Fatal(err)
		}
	}
	if !sim.Cancel(dead) || sim.tombs != 1 {
		t.Fatalf("cancel left %d tombstones, want the event still queued", sim.tombs)
	}
	sim.RunUntil(90 * time.Minute)
	sim.Run() // drops the tombstone and empties the queue
	if sim.Pending() != 0 || sim.Now() != 90*time.Minute {
		t.Fatalf("pending %d at %v, want 0 at 1h30m", sim.Pending(), sim.Now())
	}
	order = order[:0]
	want := []time.Duration{90 * time.Minute, 100 * time.Minute, 110 * time.Minute, 2 * time.Hour, 3 * time.Hour}
	for _, i := range []int{4, 2, 0, 3, 1} {
		if _, err := sim.ScheduleAt(want[i], rec); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if len(order) != len(want) {
		t.Fatalf("fired at %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired at %v, want %v", order, want)
		}
	}
}

// TestTombstonesStayBounded runs 10^6 schedule(+1h)+Cancel cycles without
// advancing time. Each cycle cancels the event the previous cycle
// scheduled, which is no longer the newest entry and so becomes a
// tombstone. Compaction must keep the arena and the chunk slab from
// growing, and after warm-up the cycles must not allocate.
func TestTombstonesStayBounded(t *testing.T) {
	sim := New()
	noop := func(*Simulation) {}
	const background = 100
	for i := 0; i < background; i++ {
		if _, err := sim.ScheduleAt(time.Duration(i+1)*time.Minute, noop); err != nil {
			t.Fatal(err)
		}
	}
	prev, err := sim.ScheduleAfter(time.Hour, noop)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		h, err := sim.ScheduleAfter(time.Hour, noop)
		if err != nil {
			t.Fatal(err)
		}
		if !sim.Cancel(prev) {
			t.Fatal("cancel of pending event failed")
		}
		prev = h
	}
	maxTombs := 0
	for i := 0; i < 10*background; i++ {
		cycle()
		maxTombs = max(maxTombs, sim.tombs)
	}
	if maxTombs != background+1 {
		t.Fatalf("tombstones peaked at %d, want %d (one per live event before compaction)", maxTombs, background+1)
	}
	arenaLen, slabLen := len(sim.arena), len(sim.slab)
	if arenaLen > 2*(background+1)+2 {
		t.Fatalf("arena grew to %d slots for %d live events", arenaLen, background+1)
	}
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1_000_000; i++ {
			cycle()
		}
	})
	if allocs != 0 {
		t.Errorf("schedule+cancel cycles allocate %.0f per 10^6, want 0", allocs)
	}
	if len(sim.arena) != arenaLen || len(sim.slab) != slabLen {
		t.Errorf("arena %d -> %d slots, slab %d -> %d chunks over 2*10^6 cycles; want no growth",
			arenaLen, len(sim.arena), slabLen, len(sim.slab))
	}
	if sim.Now() != 0 || sim.Pending() != background+1 {
		t.Fatalf("now %v, pending %d; want 0 and %d", sim.Now(), sim.Pending(), background+1)
	}
	sim.Run()
	if sim.Fired() != background+1 {
		t.Fatalf("fired %d, want the %d background events and the last cycle's", sim.Fired(), background+1)
	}
}
