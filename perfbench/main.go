// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time budget, checks every output against a
// reference, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of one extra traced pass) as the last line of standard
// output, one JSON object. README.md describes the workloads and metrics.
//
//	bash perfbench/run.sh --workload scale-flood --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/clock"
)

// sweepJobs is paper-sweep's width, its Jobs and its direct pass's pool:
// the replications are independent, so two jobs keep two cores busy without
// waiting on each other.
const sweepJobs = 2

// shardWorkers is the scale workloads' width, their ShardWorkers and the
// traced driver's pool, and those runs set GOMAXPROCS to it. Every window
// ends at a barrier; with two workers on two cores each barrier handed work
// between cores, and on a shared host the wake-up latency of that hand-off
// made the wall time of the same code spread by 15–35% between runs. One
// worker on one thread runs the same window protocol, exchange and hooks.
const shardWorkers = 1

// minIterations is the fewest timed iterations a run makes, however long
// they take, so each median has at least three samples.
const minIterations = 3

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in the
// units printed; main_test.go keeps the two in step.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"bytes_per_phone", "B"},
	{"alloc_bytes", "B"},
}

var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"core.build_s", "s"},
	{"core.replicate_s", "s"},
	{"core.assemble_s", "s"},
	{"des.run_s", "s"},
	{"des.events", "count"},
	{"des.ns_per_event", "ns"},
	{"des.depth_max", "count"},
	{"des.depth_mean", "count"},
	{"mms.barrier_s", "s"},
	{"mms.windows", "count"},
	{"mms.imbalance", "ratio"},
	{"mms.parallelism", "ratio"},
	{"curve.aggregate_s", "s"},
	{"experiment.cache_hits", "count"},
	{"experiment.cache_misses", "count"},
	{"experiment.pool_util", "ratio"},
	{"virus.attempted", "count"},
	{"mms.sent", "count"},
	{"mms.deliveries", "count"},
	{"mms.reads", "count"},
	{"mms.infections", "count"},
	{"mms.gateway_dropped", "count"},
	{"mms.blocked", "count"},
	{"mms.infections_per_delivery", "ratio"},
	{"trace.wall_s", "s"},
	{"trace.remainder_s", "s"},
	{"trace.overhead", "ratio"},
}

// phases are the span names whose self times the trace explains; every
// other span (workload, replication, window) is a container whose self
// time is the unexplained remainder.
var phases = []string{"graph.build", "core.build", "shard-run", "barrier", "assemble", "core.replicate", "curve.aggregate"}

// workload is a named benchmark and the width its run uses.
type workload struct {
	run   func(*bench)
	width int
}

var workloads = map[string]workload{
	"paper-sweep":    {paperSweep, sweepJobs},
	"scale-flood":    {scaleWorkload{"scale-flood", floodConfig(scalePhones, scaleShards), 1}.run, shardWorkers},
	"scale-response": {scaleWorkload{"scale-response", responseConfig(scalePhones, scaleShards), responseReplications}.run, shardWorkers},
}

// bench is one run's state: its inputs, its failure tally and the metrics
// it has measured.
type bench struct {
	workload string
	seed     uint64
	budget   time.Duration
	trace    bool
	log      io.Writer // progress and diagnostics, before the result line

	attempted, failed int
	problems          []string
	metrics           map[string]metric
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (b *bench) metric(name string, v float64) { b.metrics[name] = metric{Value: v} }

// fail records a check that failed outside any replication.
func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// failRep records one failed replication.
func (b *bench) failRep(format string, args ...any) { b.failN(1, format, args...) }

// failN records n failed replications with one reason.
func (b *bench) failN(n int, format string, args ...any) {
	b.failed += n
	b.fail(format, args...)
}

// repeat runs one timed iteration at least minIterations times, and then
// again while one more iteration as long as the last still fits in the
// budget, so that a run does not overshoot its budget by an iteration.
func (b *bench) repeat(iteration func()) {
	start := clock.System()
	for i := 1; ; i++ {
		t := clock.System()
		iteration()
		now := clock.System()
		if i >= minIterations && now.Sub(start)+now.Sub(t) > b.budget {
			return
		}
	}
}

func (b *bench) newTracer() *tracer {
	return newTracer(fmt.Sprintf("%s-seed%d-%x", b.workload, b.seed, clock.System().UnixNano()))
}

// layers turns a finished traced pass into the per-layer metrics, prints
// the phase table and writes the spans. untracedWall is the median wall
// time of the untraced iterations of the same run.
func (b *bench) layers(tr *tracer, c counters, untracedWall float64) {
	spans := tr.spans
	self, err := selfTimes(spans)
	if err != nil {
		b.fail("trace: %v", err)
		return
	}
	wall := time.Duration(spans[0].End - spans[0].Start)
	var explained time.Duration
	fmt.Fprintf(b.log, "%-16s %8s %12s %12s\n", "phase", "spans", "busy_s", "self_s")
	for _, name := range phases {
		n := 0
		for _, s := range spans {
			if s.Name == name {
				n++
			}
		}
		if n == 0 {
			continue
		}
		explained += self[name]
		fmt.Fprintf(b.log, "%-16s %8d %12.6f %12.6f\n", name, n, busy(spans, name).Seconds(), self[name].Seconds())
	}
	remainder := wall - explained
	fmt.Fprintf(b.log, "phases %.6f s + remainder %.6f s = traced wall %.6f s\n",
		explained.Seconds(), remainder.Seconds(), wall.Seconds())

	for _, m := range perLayer {
		b.metric(m.name, 0)
	}
	b.metric("graph.build_s", busy(spans, "graph.build").Seconds())
	// On the scale workloads graph.build nests inside core.build, whose self
	// time is then the construction that is not topology generation.
	coreBuild := busy(spans, "core.build")
	for _, s := range spans {
		if s.Name == "graph.build" && spans[s.Parent].Name == "core.build" {
			coreBuild -= time.Duration(s.End - s.Start)
		}
	}
	b.metric("core.build_s", coreBuild.Seconds())
	b.metric("core.replicate_s", busy(spans, "core.replicate").Seconds())
	b.metric("core.assemble_s", busy(spans, "assemble").Seconds())
	b.metric("curve.aggregate_s", busy(spans, "curve.aggregate").Seconds())
	b.windowMetrics(spans)
	b.metric("des.events", float64(c.events))
	if run := b.metrics["des.run_s"].Value; run > 0 && c.events > 0 {
		b.metric("des.ns_per_event", run*1e9/float64(c.events))
	}
	b.metric("des.depth_max", float64(c.depthMax))
	if c.depthN > 0 {
		b.metric("des.depth_mean", float64(c.depthSum)/float64(c.depthN))
	}
	b.metric("virus.attempted", float64(c.attempted))
	b.metric("mms.sent", float64(c.network.MessagesSent))
	b.metric("mms.deliveries", float64(c.network.Deliveries))
	b.metric("mms.reads", float64(c.network.Reads))
	b.metric("mms.infections", float64(c.network.Infections))
	b.metric("mms.gateway_dropped", float64(c.network.GatewayDropped))
	b.metric("mms.blocked", float64(c.network.MessagesBlocked))
	if c.network.Deliveries > 0 {
		b.metric("mms.infections_per_delivery", float64(c.network.Infections)/float64(c.network.Deliveries))
	}
	b.metric("trace.wall_s", wall.Seconds())
	b.metric("trace.remainder_s", remainder.Seconds())
	b.metric("trace.overhead", wall.Seconds()/untracedWall)

	path := filepath.Join(".bench_build", "spans", tr.runID+".jsonl")
	if err := tr.write(path); err != nil {
		b.fail("write spans: %v", err)
		return
	}
	fmt.Fprintf(b.log, "spans: %d in %s\n", len(spans), path)
}

// windowMetrics derives the sharded-window metrics from the shard-run and
// barrier spans. A window's shard runs are recorded together, in window
// order, so each run of equal parents is one window.
func (b *bench) windowMetrics(spans []span) {
	var windows [][]time.Duration
	parent := -1
	for _, s := range spans {
		if s.Name != "shard-run" {
			continue
		}
		if s.Parent != parent {
			windows = append(windows, nil)
			parent = s.Parent
		}
		windows[len(windows)-1] = append(windows[len(windows)-1], time.Duration(s.End-s.Start))
	}
	if len(windows) == 0 {
		return
	}
	var lane, longest time.Duration
	var imbalance float64
	for _, runs := range windows {
		var sum, top time.Duration
		for _, d := range runs {
			sum += d
			top = max(top, d)
		}
		lane += sum
		longest += top
		if sum > 0 {
			imbalance += float64(top) / (float64(sum) / float64(len(runs)))
		}
	}
	barrier := busy(spans, "barrier")
	b.metric("des.run_s", lane.Seconds())
	b.metric("mms.barrier_s", barrier.Seconds())
	b.metric("mms.windows", float64(len(windows)))
	b.metric("mms.imbalance", imbalance/float64(len(windows)))
	b.metric("mms.parallelism", float64(lane+barrier)/float64(longest+barrier))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "time budget of the timed iterations")
	trace := fs.Int("trace", 0, "1 adds a traced pass and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if _, err := os.Stat("results"); err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 2
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), wl.width))
	fmt.Fprintf(stdout, "host nproc=%d gomaxprocs=%d go=%s os=%s arch=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	b := &bench{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		log:      stdout,
		metrics:  map[string]metric{},
	}
	wl.run(b)

	want := endToEnd
	if b.trace {
		want = perLayer
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		got, ok := b.metrics[m.name]
		if !ok {
			b.fail("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metric{Value: got.Value, Unit: m.unit}
	}
	res.Correct = len(b.problems) == 0 && b.attempted > 0
	for _, p := range b.problems {
		fmt.Fprintln(stdout, "FAIL:", p)
	}
	if b.attempted > 0 {
		fmt.Fprintf(stdout, "failed_frac %.6f (%d of %d replications)\n",
			float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
