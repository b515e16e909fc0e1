package des

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/rng"
)

// BenchmarkScheduleAndFire measures raw event throughput: schedule and
// execute batches of 1,000 no-op events.
func BenchmarkScheduleAndFire(b *testing.B) {
	noop := func(*Simulation) {}
	for i := 0; i < b.N; i++ {
		sim := New()
		for j := 0; j < 1000; j++ {
			if _, err := sim.ScheduleAt(time.Duration(j)*time.Millisecond, noop); err != nil {
				b.Fatal(err)
			}
		}
		sim.Run()
	}
}

// BenchmarkScheduleAndFireWarm measures steady-state throughput: the same
// batch against one long-lived simulation, so the arena free list (not
// allocator growth) serves every schedule. This is the regime replications
// run in after their first few events.
func BenchmarkScheduleAndFireWarm(b *testing.B) {
	noop := func(*Simulation) {}
	sim := New()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			if _, err := sim.ScheduleAfter(time.Duration(j)*time.Millisecond, noop); err != nil {
				b.Fatal(err)
			}
		}
		sim.Run()
	}
}

// BenchmarkScheduleCancel measures schedule+cancel round trips.
func BenchmarkScheduleCancel(b *testing.B) {
	sim := New()
	noop := func(*Simulation) {}
	for i := 0; i < b.N; i++ {
		h, err := sim.ScheduleAt(time.Hour, noop)
		if err != nil {
			b.Fatal(err)
		}
		sim.Cancel(h)
	}
}

// BenchmarkSelfPerpetuatingChain measures the common simulator pattern of
// events scheduling their successors.
func BenchmarkSelfPerpetuatingChain(b *testing.B) {
	sim := New()
	count := 0
	var tick Handler
	tick = func(s *Simulation) {
		count++
		if count < b.N {
			if _, err := s.ScheduleAfter(time.Millisecond, tick); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := sim.ScheduleAt(0, tick); err != nil {
		b.Fatal(err)
	}
	sim.Run()
}

// BenchmarkHold is the classic hold model (Vaucher & Duval 1975; Jones,
// CACM 1986): the queue is filled to a fixed depth, then every operation
// pops the earliest event and schedules a replacement an exponentially
// distributed increment later, so the depth stays constant. Increments
// come from a fixed seed, so every run replays the same schedule. One op
// is one pop plus one schedule.
func BenchmarkHold(b *testing.B) {
	for _, depth := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			src := rng.New(1)
			incr := make([]time.Duration, 1<<16)
			for i := range incr {
				incr[i] = time.Duration(src.Exp(float64(time.Minute)))
			}
			sim := New()
			next := 0
			var hold ArgHandler
			hold = func(s *Simulation, _ uint64) {
				if _, err := s.ScheduleArgAfter(incr[next&(len(incr)-1)], hold, 0); err != nil {
					b.Fatal(err)
				}
				next++
			}
			for i := 0; i < depth; i++ {
				if _, err := sim.ScheduleArgAfter(incr[next&(len(incr)-1)], hold, 0); err != nil {
					b.Fatal(err)
				}
				next++
			}
			// Reach the steady state before timing: every initial event has
			// been replaced once.
			fired := sim.Fired()
			sim.RunWhile(func() bool { return sim.Fired()-fired < uint64(depth) })
			b.ReportAllocs()
			b.ResetTimer()
			fired = sim.Fired()
			sim.RunWhile(func() bool { return sim.Fired()-fired < uint64(b.N) })
			b.StopTimer()
			if sim.Pending() != depth {
				b.Fatalf("depth drifted to %d, want %d", sim.Pending(), depth)
			}
		})
	}
}
