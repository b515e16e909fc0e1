// Package des is a discrete-event simulation kernel.
//
// It substitutes for the simulation engine of the Möbius tool used in the
// paper: a monotone virtual clock, an event calendar ordered by firing time
// with stable FIFO tie-breaking, handles for cancellation, and run loops
// bounded by time, event count, or an arbitrary predicate. Virtual time is
// expressed as time.Duration offsets from the simulation start, which is all
// the models need and keeps arithmetic exact.
//
// Events live in a pooled arena (see DESIGN.md §9): a flat slice whose
// fired slots are recycled through a free list, so steady-state scheduling
// performs zero allocations. Handles carry a generation counter, so a
// handle that outlives its event (fired, cancelled, or the slot since
// reused) is inert rather than aliasing the new occupant.
//
// The calendar is a monotone radix-bucket queue (calendar.go). It relies on
// virtual time never going backwards: ScheduleAt rejects times before Now,
// so every pending event is at or after the last extracted time, and an
// event's bucket is the highest bit where its time differs from that time.
// Events at exactly the last extracted time pop by (priority, seq). Because
// (at, priority, seq) is a total order — seq is unique — any correct queue
// pops in exactly one order, so the calendar fires events in the same order
// as the heaps it replaced and every trajectory is unchanged.
//
// Cancellation is lazy: a cancelled event stays queued as a tombstone until
// it surfaces, and the queue is compacted once tombstones outnumber live
// events, so cancel-heavy workloads stay bounded in memory.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Handler is the callback executed when an event fires. The simulation
// passes itself so handlers can schedule follow-up events.
type Handler func(sim *Simulation)

// ArgHandler is a Handler that also receives the uint64 argument the event
// was scheduled with (ScheduleArgAt). Hot paths that would otherwise
// allocate a fresh capturing closure per event — one read event per
// delivered MMS copy, say — instead create one long-lived ArgHandler and
// pack the per-event state (phone ids, attempt counters) into the argument,
// making steady-state scheduling allocation-free end to end.
type ArgHandler func(sim *Simulation, arg uint64)

// Handle identifies a scheduled event so it can be cancelled. The zero
// Handle is invalid. Handles are generation-counted: once the event fires
// or is cancelled, the handle goes stale and every later operation through
// it is a no-op, even if the kernel has recycled the underlying arena slot
// for a new event.
type Handle struct {
	slot uint32 // arena index + 1; 0 marks the invalid zero Handle
	gen  uint32 // must match the slot's generation to dereference
}

// Valid reports whether the handle refers to an event that was scheduled
// (it may have fired or been cancelled since).
func (h Handle) Valid() bool { return h.slot != 0 }

// event is one arena slot. Slots are recycled: gen increments when the
// event fires or is cancelled, invalidating outstanding handles. A queued
// event has exactly one of handler/argHandler set; a cancelled event still
// in the calendar (a tombstone) has neither. arg is meaningful only with
// argHandler. The firing time lives in the calendar entry, not here.
type event struct {
	seq        uint64 // schedule order; breaks ties FIFO
	arg        uint64 // payload passed to argHandler
	priority   int    // lower fires first at equal time
	gen        uint32
	handler    Handler
	argHandler ArgHandler
}

// dead reports whether the slot holds a cancelled event (a tombstone).
func (ev *event) dead() bool { return ev.handler == nil && ev.argHandler == nil }

// retire ends the event's life: the generation bump makes outstanding
// handles stale, and dropping the handler releases any captured state.
func (ev *event) retire() {
	ev.gen++
	ev.handler = nil
	ev.argHandler = nil
}

// Tracer observes every fired event; install one with Simulation.SetTracer
// to record execution traces in tests or debugging sessions.
type Tracer interface {
	Fired(at time.Duration, seq uint64)
}

// Simulation is a single-threaded discrete-event simulation. It is not safe
// for concurrent use; run one Simulation per goroutine.
type Simulation struct {
	now   time.Duration
	arena []event  // pooled event storage
	free  []uint32 // released arena slots awaiting reuse
	calendar
	nextSeq uint64
	fired   uint64
	tracer  Tracer
	stopped bool
}

// New returns an empty simulation with the clock at zero.
func New() *Simulation {
	return &Simulation{}
}

// Now returns the current virtual time.
func (s *Simulation) Now() time.Duration { return s.now }

// Fired returns the number of events executed so far.
func (s *Simulation) Fired() uint64 { return s.fired }

// Pending returns the number of events currently scheduled (cancelled
// events are not counted, even while their tombstones are still queued).
func (s *Simulation) Pending() int { return s.live }

// SetTracer installs a tracer invoked for every fired event. Pass nil to
// remove.
func (s *Simulation) SetTracer(t Tracer) { s.tracer = t }

// ErrPastEvent is returned when an event is scheduled before the current
// virtual time.
var ErrPastEvent = errors.New("des: event scheduled in the past")

// ScheduleAt schedules h to fire at absolute virtual time at.
// It returns an error if at precedes the current time.
func (s *Simulation) ScheduleAt(at time.Duration, h Handler) (Handle, error) {
	return s.ScheduleAtPriority(at, 0, h)
}

// ScheduleAtPriority schedules h at time at with a priority; among events at
// the same instant, lower priorities fire first and equal priorities fire in
// scheduling order.
func (s *Simulation) ScheduleAtPriority(at time.Duration, priority int, h Handler) (Handle, error) {
	if h == nil {
		return Handle{}, errors.New("des: nil handler")
	}
	if at < s.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	slot, ev := s.acquire(at, priority)
	ev.handler = h
	return Handle{slot: slot + 1, gen: ev.gen}, nil
}

// ScheduleArgAt schedules h to fire at absolute virtual time at, carrying
// arg. It orders identically to ScheduleAt — the handler flavour is
// invisible to the calendar — so converting a closure-based schedule to an
// argument-based one cannot perturb any trajectory.
func (s *Simulation) ScheduleArgAt(at time.Duration, h ArgHandler, arg uint64) (Handle, error) {
	return s.ScheduleArgAtPriority(at, 0, h, arg)
}

// ScheduleArgAtPriority is ScheduleArgAt with an explicit priority.
func (s *Simulation) ScheduleArgAtPriority(at time.Duration, priority int, h ArgHandler, arg uint64) (Handle, error) {
	if h == nil {
		return Handle{}, errors.New("des: nil handler")
	}
	if at < s.now {
		return Handle{}, fmt.Errorf("%w: at=%v now=%v", ErrPastEvent, at, s.now)
	}
	slot, ev := s.acquire(at, priority)
	ev.argHandler = h
	ev.arg = arg
	return Handle{slot: slot + 1, gen: ev.gen}, nil
}

// ScheduleArgAfter schedules h to fire delay after the current time,
// carrying arg. Negative delays are clamped to zero like ScheduleAfter.
func (s *Simulation) ScheduleArgAfter(delay time.Duration, h ArgHandler, arg uint64) (Handle, error) {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleArgAtPriority(s.now+delay, 0, h, arg)
}

// acquire reserves an arena slot for a new event at (at, priority) and
// enqueues it. The caller fills in the handler flavour.
func (s *Simulation) acquire(at time.Duration, priority int) (uint32, *event) {
	var slot uint32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.arena = append(s.arena, event{})
		slot = uint32(len(s.arena) - 1)
	}
	s.nextSeq++
	ev := &s.arena[slot]
	ev.seq = s.nextSeq
	ev.priority = priority
	s.push(at, slot)
	return slot, ev
}

// ScheduleAfter schedules h to fire delay after the current time. Negative
// delays are clamped to zero (fire "now", after currently executing events).
func (s *Simulation) ScheduleAfter(delay time.Duration, h Handler) (Handle, error) {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now+delay, h)
}

// ScheduleAfterPriority is ScheduleAfter with an explicit priority.
func (s *Simulation) ScheduleAfterPriority(delay time.Duration, priority int, h Handler) (Handle, error) {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAtPriority(s.now+delay, priority, h)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false if it already fired, was cancelled, or the handle is
// invalid or stale — a stale handle never touches an event that reused the
// slot).
//
// The handle goes stale at once. The only event of the calendar leaves it
// immediately; any other becomes a tombstone whose slot returns to the
// free list when the calendar next meets the entry, or when tombstones
// outnumber live events and the calendar is compacted.
func (s *Simulation) Cancel(h Handle) bool {
	if h.slot == 0 {
		return false
	}
	slot := h.slot - 1
	if int(slot) >= len(s.arena) {
		return false
	}
	ev := &s.arena[slot]
	if ev.gen != h.gen {
		return false
	}
	ev.retire()
	s.live--
	if s.soloSet {
		// The solo entry is the only one queued, so it is this event's.
		s.soloSet = false
		s.free = append(s.free, slot)
		return true
	}
	s.tombs++
	if s.tombs > s.live {
		s.compact()
	}
	return true
}

// Stop makes the current run loop return after the executing handler
// completes. Pending events remain queued.
func (s *Simulation) Stop() { s.stopped = true }

// step fires the earliest event if its time is at most end. It reports
// false when no live event is due by end.
func (s *Simulation) step(end time.Duration) bool {
	for {
		slot, at, ok := s.pop(end)
		if !ok {
			return false
		}
		ev := &s.arena[slot]
		if ev.dead() {
			s.tombs--
			s.free = append(s.free, slot)
			continue
		}
		seq := ev.seq
		h, argH, arg := ev.handler, ev.argHandler, ev.arg
		// Release before running the handler: by the time user code
		// executes, the handle is stale and the slot is reusable, so a
		// handler that cancels its own handle or schedules into the freed
		// slot is safe.
		ev.retire()
		s.free = append(s.free, slot)
		s.live--
		s.now = at
		s.fired++
		if s.tracer != nil {
			s.tracer.Fired(at, seq)
		}
		if argH != nil {
			argH(s, arg)
		} else {
			h(s)
		}
		return true
	}
}

// Run executes events until the queue is empty or Stop is called.
func (s *Simulation) Run() {
	s.stopped = false
	for !s.stopped && s.step(math.MaxInt64) {
	}
}

// RunUntil executes events with firing time <= end, then advances the clock
// to end. Events scheduled beyond end remain pending.
func (s *Simulation) RunUntil(end time.Duration) {
	s.stopped = false
	for !s.stopped && s.step(end) {
	}
	if s.now < end && !s.stopped {
		s.now = end
	}
}

// RunWhile executes events while cond returns true, checking before each
// event. It stops when the queue empties, cond fails, or Stop is called.
func (s *Simulation) RunWhile(cond func() bool) {
	s.stopped = false
	for !s.stopped && cond() && s.step(math.MaxInt64) {
	}
}
