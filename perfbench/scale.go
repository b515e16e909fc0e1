package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/pool"
	"repro/internal/response"
	"repro/internal/rng"
	"repro/internal/virus"
)

// The 100k-phone shape both scale workloads share: a streamed
// Barabási–Albert topology with m=4, 1% of phones seeded, eight contiguous
// shards exchanging at five-minute barriers.
const (
	scalePhones = 100_000
	scaleShards = 8
	scaleWindow = 5 * time.Minute
	baM         = 4
)

// floodHorizon keeps scale-flood's run phase at a few seconds while the
// per-shard queues grow to tens of thousands of events.
const floodHorizon = 6 * time.Hour

// responseReplications is scale-response's replication count: enough
// constructions for set-up to be a steady share of the wall time.
const responseReplications = 16

func scaleConfig(v virus.Config, phones, shards int) core.Config {
	cfg := core.Default(v)
	cfg.Population = phones
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		return graph.BarabasiAlbertCSR(phones, baM, src)
	}
	cfg.InitialInfected = phones / 100
	cfg.Shards = shards
	cfg.ShardWindow = scaleWindow
	cfg.ShardWorkers = shardWorkers
	return cfg
}

// floodConfig is Virus 3 (random dialing) with no response: most copies
// cross shards and the queues run deep.
func floodConfig(phones, shards int) core.Config {
	cfg := scaleConfig(virus.Virus3(), phones, shards)
	cfg.Horizon = floodHorizon
	return cfg
}

// responseConfig is Virus 1 (contact list) contained by a gateway scan, an
// immunization wave and a blacklist: queues stay shallow and the barrier
// hooks do the work.
func responseConfig(phones, shards int) core.Config {
	cfg := scaleConfig(virus.Virus1(), phones, shards)
	cfg.Horizon = 72 * time.Hour
	cfg.Responses = []mms.ResponseFactory{
		response.NewScan(12 * time.Hour),
		response.NewImmunizer(24*time.Hour, 24*time.Hour),
		response.NewBlacklist(40),
	}
	return cfg
}

// scaleWorkload is one batch of sharded replications with seeds
// core.ReplicationSeed(seed, i).
type scaleWorkload struct {
	name string
	cfg  core.Config
	reps int
}

// outcome is what a replication must reproduce exactly: the traced window
// driver against the untraced run, and every run against the pins.
type outcome struct {
	Final   int
	Events  uint64
	Metrics mms.Metrics
	// Infected is the merged infection sequence, (time, phone) ordered.
	Infected []mms.InfectionEvent
}

func (o outcome) equal(p outcome) bool {
	if o.Final != p.Final || o.Events != p.Events || o.Metrics != p.Metrics || len(o.Infected) != len(p.Infected) {
		return false
	}
	for i := range o.Infected {
		if o.Infected[i] != p.Infected[i] {
			return false
		}
	}
	return true
}

// pin is the part of an outcome the reference file records.
type pin struct {
	Final  int    `json:"final"`
	Events uint64 `json:"events"`
	Sent   uint64 `json:"sent"`
}

func (o outcome) pin() pin { return pin{o.Final, o.Events, o.Metrics.MessagesSent} }

// scaleRep is one untraced replication: construction and execution timed
// apart, as core.NewShardedRun and ShardedRun.Run, with the bytes they
// allocated.
type scaleRep struct {
	out       outcome
	attempted uint64 // virus.Stats.MessagesAttempted
	setup     time.Duration
	run       time.Duration
	alloc     uint64
}

func runScaleRep(cfg core.Config, seed uint64) (r scaleRep, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := clock.System()
	sr, err := core.NewShardedRun(cfg, seed)
	if err != nil {
		return r, err
	}
	t1 := clock.System()
	res, err := sr.Run(context.Background())
	t2 := clock.System()
	runtime.ReadMemStats(&after)
	if err != nil {
		return r, err
	}
	r.setup, r.run = t1.Sub(t0), t2.Sub(t1)
	r.alloc = after.TotalAlloc - before.TotalAlloc
	r.out = outcome{
		Final:    res.FinalInfected,
		Events:   sr.ShardSet().EventsFired(),
		Metrics:  res.Network,
		Infected: sr.ShardSet().InfectionEvents(),
	}
	r.attempted = res.Engine.MessagesAttempted
	return r, nil
}

// run measures the workload untraced, checks every replication, and in
// traced mode adds one traced pass that must agree with the untraced one.
func (w scaleWorkload) run(b *bench) {
	var ref []pin
	if b.seed == 1 {
		ref = references(b)[w.name]
		if len(ref) != w.reps {
			b.fail("reference holds %d replications of %s, workload runs %d", len(ref), w.name, w.reps)
			ref = nil
		}
	}
	if !b.trace {
		b.metric("bytes_per_phone", w.bytesPerPhone(b))
	}

	var walls, setups, rates, allocs []float64
	var first []scaleRep
	b.repeat(func() {
		var setup, run time.Duration
		var events, alloc uint64
		reps := make([]scaleRep, w.reps)
		errs := make([]error, w.reps)
		for i := range reps {
			reps[i], errs[i] = runScaleRep(w.cfg, core.ReplicationSeed(b.seed, i))
			setup += reps[i].setup
			run += reps[i].run
			events += reps[i].out.Events
			alloc += reps[i].alloc
		}
		wall := setup + run

		for i, r := range reps {
			b.attempted++
			switch {
			case errs[i] != nil:
				b.failRep("%s replication %d: %v", w.name, i, errs[i])
			case ref != nil && r.out.pin() != ref[i]:
				b.failRep("%s replication %d: got %+v, reference %+v", w.name, i, r.out.pin(), ref[i])
			case first != nil && !r.out.equal(first[i].out):
				b.failRep("%s replication %d differs from the first iteration", w.name, i)
			}
		}
		if first == nil {
			first = reps
		}
		fmt.Fprintf(b.log, "iteration %d: wall %.4f s, set-up %.4f s, run %.4f s, %d events\n",
			len(walls), wall.Seconds(), setup.Seconds(), run.Seconds(), events)
		walls = append(walls, wall.Seconds())
		setups = append(setups, setup.Seconds())
		rates = append(rates, float64(events)/run.Seconds())
		allocs = append(allocs, float64(alloc))
	})
	for i, r := range first {
		fmt.Fprintf(b.log, "replication %d: %+v\n", i, r.out.pin())
	}
	wall := median(walls)
	b.metric("wall_s", wall)
	b.metric("setup_s", median(setups))
	b.metric("events_per_s", median(rates))
	b.metric("alloc_bytes", median(allocs))
	if !b.trace {
		return
	}

	tr := b.newTracer()
	root := tr.begin("workload", -1)
	var c counters
	for i := 0; i < w.reps; i++ {
		b.attempted++
		out, err := driveReplication(w.cfg, core.ReplicationSeed(b.seed, i), shardWorkers, tr, root, &c)
		switch {
		case err != nil:
			b.failRep("%s traced replication %d: %v", w.name, i, err)
		case !out.equal(first[i].out):
			b.failRep("%s traced replication %d differs from the untraced run", w.name, i)
		}
		c.attempted += first[i].attempted
	}
	tr.end(root)
	b.layers(tr, c, wall)
}

// bytesPerPhone is the live heap one construction retains, bracketed by
// forced collections so allocator churn does not count.
func (w scaleWorkload) bytesPerPhone(b *bench) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	sr, err := core.NewShardedRun(w.cfg, b.seed)
	if err != nil {
		b.fail("%s memory probe: %v", w.name, err)
		return 0
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sr)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(w.cfg.Population)
}

// counters are the per-layer counts a traced pass gathers at the same
// boundaries its spans time.
type counters struct {
	events    uint64
	depthMax  int
	depthSum  int
	depthN    int
	attempted uint64
	network   mms.Metrics
}

func (c *counters) depth(d int) {
	c.depthMax = max(c.depthMax, d)
	c.depthSum += d
	c.depthN++
}

func (c *counters) addNetwork(m mms.Metrics) {
	c.network.MessagesSent += m.MessagesSent
	c.network.Deliveries += m.Deliveries
	c.network.Reads += m.Reads
	c.network.Infections += m.Infections
	c.network.GatewayDropped += m.GatewayDropped
	c.network.MessagesBlocked += m.MessagesBlocked
}

// driveReplication builds one sharded replication and runs ShardSet.Run's
// window loop from outside: at every barrier each shard's queue runs to the
// barrier on a pool of the given width, each call timed, then RunWindow
// performs the exchange, merged detection and response hooks. The shards
// are already at the barrier when RunWindow runs them, so it adds no events
// and the trajectory is Run's.
func driveReplication(cfg core.Config, seed uint64, width int, tr *tracer, parent int, c *counters) (out outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	rep := tr.begin("replication", parent)
	defer tr.end(rep)

	build := tr.begin("core.build", rep)
	inner := cfg.CSRBuilder
	cfg.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		g := tr.begin("graph.build", build)
		defer tr.end(g)
		return inner(src)
	}
	sr, err := core.NewShardedRun(cfg, seed)
	tr.end(build)
	if err != nil {
		return out, err
	}

	set := sr.ShardSet()
	nets := set.Shards()
	p := pool.New(width)
	defer p.Close()
	var (
		wg      sync.WaitGroup
		barrier time.Duration
		start   = make([]int64, len(nets))
		end     = make([]int64, len(nets))
		depth   = make([]int, len(nets))
		panics  = make([]any, len(nets))
		runs    = make([]func(), len(nets))
	)
	for s := range nets {
		s, sim := s, nets[s].Sim()
		runs[s] = func() {
			defer wg.Done()
			defer func() { panics[s] = recover() }()
			start[s] = tr.now()
			sim.RunUntil(barrier)
			end[s] = tr.now()
			depth[s] = sim.Pending()
		}
	}
	horizon := cfg.Horizon
	for t := set.Window(); ; t += set.Window() {
		t = min(t, horizon)
		win := tr.begin("window", rep)
		barrier = t
		wg.Add(len(runs))
		for _, fn := range runs {
			p.Submit(fn)
		}
		wg.Wait()
		for s := range runs {
			if panics[s] != nil {
				return out, fmt.Errorf("shard %d panicked at %v: %v", s, t, panics[s])
			}
			tr.record("shard-run", win, start[s], end[s])
			c.depth(depth[s])
		}
		bar := tr.begin("barrier", win)
		set.RunWindow(t, min(t+set.Window(), horizon))
		tr.end(bar)
		tr.end(win)
		if t >= horizon {
			break
		}
	}

	// The curve and the tree are built only to time the assembly
	// ShardedRun.Run performs; the outcome compares the events themselves.
	asm := tr.begin("assemble", rep)
	events := set.InfectionEvents()
	infections := curve.New(0)
	for i, ev := range events {
		if err := infections.Append(ev.At, float64(i+1)); err != nil {
			return out, err
		}
	}
	metrics := set.Metrics()
	_ = set.BuildInfectionTree()
	tr.end(asm)

	out = outcome{
		Final:    set.InfectedCount(),
		Events:   set.EventsFired(),
		Metrics:  metrics,
		Infected: events,
	}
	c.events += out.Events
	c.addNetwork(metrics)
	return out, nil
}
