package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/curve"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/mms"
	"repro/internal/pool"
	"repro/internal/rng"
)

// paperOptions are mvfigures' defaults: ten replications per series on a
// 200-point grid, seeded from the workload seed.
func paperOptions(seed uint64) core.Options {
	return core.Options{Replications: 10, BaseSeed: seed, GridPoints: 200}.WithDefaults()
}

// setupPasses is how many times a paper-sweep run constructs every series,
// for a median set-up time.
const setupPasses = 5

// paperSweep is the seven paper figures at full scale, run the way
// mvfigures runs them: one RunSweep over a fresh in-memory cache.
func paperSweep(b *bench) {
	opts := paperOptions(b.seed)
	var want [][]byte
	if b.seed == 1 {
		want = referenceCSVs(b)
	}
	if !b.trace {
		b.metric("setup_s", paperSetup(b, opts))
		b.metric("bytes_per_phone", paperBytesPerPhone(b, opts))
	}

	// The direct pass runs first, so it also warms the heap for the timed
	// sweeps. Untraced, it only checks the sweep and counts events.
	tr := b.newTracer()
	root := tr.begin("workload", -1)
	var c counters
	direct, units, err := directSweep(opts, sweepJobs, tr, root, &c)
	tr.end(root)
	b.attempted += units
	if err != nil {
		b.failN(units, "paper-sweep direct pass: %v", err)
	}

	var walls, allocs []float64
	var stats experiment.CacheStats
	b.repeat(func() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := clock.System()
		figs := experiment.AllFigures(experiment.FullScale)
		res, err := experiment.RunSweep(context.Background(), figs, opts,
			experiment.SweepOptions{Jobs: sweepJobs, Cache: experiment.NewReplicationCache()})
		var csvs [][]byte
		if err == nil {
			csvs, err = writeCSVs(res.Figures)
		}
		wall := clock.System().Sub(t0)
		runtime.ReadMemStats(&after)

		for fi, fig := range figs {
			n := len(fig.Series) * opts.Replications
			b.attempted += n
			switch {
			case err != nil:
				b.failN(n, "paper-sweep %s: %v", fig.ID, err)
			case want != nil && !bytes.Equal(csvs[fi], want[fi]):
				b.failN(n, "paper-sweep %s differs from results/%s.csv", fig.ID, fig.ID)
			case direct != nil && !bytes.Equal(csvs[fi], direct[fi]):
				b.failN(n, "paper-sweep %s differs from the direct pass", fig.ID)
			}
		}
		if err == nil {
			stats = res.Cache
		}
		fmt.Fprintf(b.log, "iteration %d: wall %.4f s\n", len(walls), wall.Seconds())
		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc))
	})
	fmt.Fprintf(b.log, "sweep cache: %d hits, %d misses; direct pass: %d units, %d events\n",
		stats.Hits, stats.Misses, units, c.events)

	wall := median(walls)
	b.metric("wall_s", wall)
	b.metric("events_per_s", float64(c.events)/wall)
	b.metric("alloc_bytes", median(allocs))
	if b.trace {
		b.layers(tr, c, wall)
		b.metric("experiment.cache_hits", float64(stats.Hits))
		b.metric("experiment.cache_misses", float64(stats.Misses))
		b.metric("experiment.pool_util", busy(tr.spans, "core.replicate").Seconds()/(sweepJobs*wall))
	}
}

// writeCSVs renders each figure as mvfigures writes it.
func writeCSVs(figs []*experiment.FigureResult) ([][]byte, error) {
	out := make([][]byte, len(figs))
	for i, fr := range figs {
		var buf bytes.Buffer
		if err := fr.WriteCSV(&buf); err != nil {
			return nil, err
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

// referenceCSVs reads the committed seed-1 figures from the checkout.
func referenceCSVs(b *bench) [][]byte {
	figs := experiment.AllFigures(experiment.FullScale)
	out := make([][]byte, len(figs))
	for i, fig := range figs {
		data, err := os.ReadFile(filepath.Join("results", fig.ID+".csv"))
		if err != nil {
			b.fail("paper-sweep reference: %v", err)
			return nil
		}
		out[i] = data
	}
	return out
}

// paperSetup is the median time to construct replication 0 of every
// series: core.RunOnce with a one-nanosecond horizon builds the topology,
// the population, the virus engine and the responses, and runs nothing.
func paperSetup(b *bench, opts core.Options) float64 {
	figs := experiment.AllFigures(experiment.FullScale)
	var passes []float64
	for k := 0; k < setupPasses; k++ {
		t0 := clock.System()
		for _, fig := range figs {
			for _, s := range fig.Series {
				cfg := s.Config
				cfg.Horizon = time.Nanosecond
				if _, err := core.RunOnce(cfg, core.ReplicationSeed(opts.BaseSeed, 0)); err != nil {
					b.fail("paper-sweep set-up %s / %s: %v", fig.ID, s.Label, err)
					return 0
				}
			}
		}
		passes = append(passes, clock.System().Sub(t0).Seconds())
	}
	return median(passes)
}

// paperBytesPerPhone is the live heap a 1,000-phone construction retains,
// read in PostRun while the network is alive and bracketed by forced
// collections. Topologies differ by seed, so it is the median over the
// sweep's replication seeds.
func paperBytesPerPhone(b *bench, opts core.Options) float64 {
	cfg := experiment.Figure1(experiment.FullScale).Series[0].Config
	cfg.Horizon = time.Nanosecond
	var before, after runtime.MemStats
	cfg.PostRun = func(*mms.Network) {
		runtime.GC()
		runtime.ReadMemStats(&after)
	}
	var perPhone []float64
	for i := 0; i < opts.Replications; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := core.RunOnce(cfg, core.ReplicationSeed(opts.BaseSeed, i)); err != nil {
			b.fail("paper-sweep memory probe: %v", err)
			return 0
		}
		perPhone = append(perPhone, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(cfg.Population))
	}
	return median(perPhone)
}

// paperUnit is one distinct (config, seed) replication of the sweep.
type paperUnit struct {
	cfg  core.Config
	seed uint64
	rep  int
	res  *core.Result
	err  *core.ReplicationError
}

// directSweep computes the sweep without the scheduler or the cache: every
// distinct (config fingerprint, seed) unit runs once through core.RunOnce,
// width at a time, then each series' band is aggregated and every figure
// rendered. It returns the CSVs and the number of replications run. Each
// unit also builds its topology once more on its own, outside
// core.replicate, so graph.build is timed on the stream the replication
// uses.
func directSweep(opts core.Options, width int, tr *tracer, parent int, c *counters) ([][]byte, int, error) {
	figs := experiment.AllFigures(experiment.FullScale)
	var units []*paperUnit
	index := map[string]*paperUnit{}
	slots := make([][][]*paperUnit, len(figs)) // figure, series, replication
	for fi, fig := range figs {
		slots[fi] = make([][]*paperUnit, len(fig.Series))
		for si, s := range fig.Series {
			fp := experiment.ConfigFingerprint(s.Config)
			for i := 0; i < opts.Replications; i++ {
				seed := core.ReplicationSeed(opts.BaseSeed, i)
				key := fmt.Sprintf("%s/%d", fp, seed)
				u := index[key]
				if u == nil || !fp.Cacheable() {
					u = &paperUnit{cfg: s.Config, seed: seed, rep: i}
					units = append(units, u)
					index[key] = u
				}
				slots[fi][si] = append(slots[fi][si], u)
			}
		}
	}

	var mu sync.Mutex
	p := pool.New(width)
	for _, u := range units {
		u := u
		p.Submit(func() {
			rep := tr.begin("replication", parent)
			g := tr.begin("graph.build", rep)
			gc := u.cfg.Graph
			gc.N = u.cfg.Population
			pl, err := graph.PowerLaw(gc, rng.New(u.seed).Stream(1))
			if err == nil {
				graph.FromGraph(pl)
			}
			tr.end(g)

			var fired uint64
			cfg := u.cfg
			cfg.PostRun = func(net *mms.Network) { fired = net.Sim().Fired() }
			r := tr.begin("core.replicate", rep)
			u.res, u.err = core.RunReplication(context.Background(), cfg, u.rep, u.seed)
			tr.end(r)
			tr.end(rep)

			mu.Lock()
			defer mu.Unlock()
			c.events += fired
			if u.res != nil {
				c.attempted += u.res.Engine.MessagesAttempted
				c.addNetwork(u.res.Network)
			}
		})
	}
	p.Close()

	out := make([][]byte, len(figs))
	for fi, fig := range figs {
		fr := &experiment.FigureResult{Figure: fig}
		for si, s := range fig.Series {
			curves := make([]*curve.Curve, 0, opts.Replications)
			for _, u := range slots[fi][si] {
				if u.err != nil {
					return nil, len(units), u.err
				}
				curves = append(curves, u.res.Infections)
			}
			a := tr.begin("curve.aggregate", parent)
			band, err := curve.Aggregate(curves, s.Config.Horizon, opts.GridPoints)
			tr.end(a)
			if err != nil {
				return nil, len(units), err
			}
			fr.Series = append(fr.Series, experiment.SeriesResult{Label: s.Label, Band: band})
		}
		var buf bytes.Buffer
		if err := fr.WriteCSV(&buf); err != nil {
			return nil, len(units), err
		}
		out[fi] = buf.Bytes()
	}
	return out, len(units), nil
}
