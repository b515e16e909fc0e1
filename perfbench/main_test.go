package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/curve"
)

// TestTracedDriverMatchesRun pins the traced window driver to the program
// it claims to describe: at toy size, for both scale configs over several
// seeds and at one and two goroutines, driving ShardSet's windows from
// outside must reproduce ShardedRun.Run and core.RunOnce exactly.
func TestTracedDriverMatchesRun(t *testing.T) {
	const phones, shards = 2000, 4
	configs := map[string]core.Config{
		"flood":    floodConfig(phones, shards),
		"response": responseConfig(phones, shards),
	}
	for name, cfg := range configs {
		for _, seed := range []uint64{1, 2, 3} {
			untraced, err := runScaleRep(cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			once, err := core.RunOnce(cfg, seed)
			if err != nil {
				t.Fatalf("%s seed %d: RunOnce: %v", name, seed, err)
			}
			if once.FinalInfected != untraced.out.Final || once.Network != untraced.out.Metrics {
				t.Fatalf("%s seed %d: RunOnce and ShardedRun.Run disagree", name, seed)
			}
			if untraced.out.Final < 2*cfg.InitialInfected {
				t.Fatalf("%s seed %d: only %d infected; the toy config does not spread", name, seed, untraced.out.Final)
			}
			for _, width := range []int{1, 2} {
				var c counters
				tr := newTracer("test")
				root := tr.begin("workload", -1)
				traced, err := driveReplication(cfg, seed, width, tr, root, &c)
				tr.end(root)
				if err != nil {
					t.Fatalf("%s seed %d width %d: %v", name, seed, width, err)
				}
				if !traced.equal(untraced.out) {
					t.Errorf("%s seed %d width %d: traced %+v, untraced %+v",
						name, seed, width, traced.pin(), untraced.out.pin())
				}
				if got := curveOf(t, traced); !pointsEqual(got, once.Infections.Points()) {
					t.Errorf("%s seed %d width %d: infection curve differs from RunOnce", name, seed, width)
				}
				if c.events != traced.Events || c.depthN == 0 {
					t.Errorf("%s seed %d width %d: counters %+v", name, seed, width, c)
				}
				if _, err := selfTimes(tr.spans); err != nil {
					t.Errorf("%s seed %d width %d: %v", name, seed, width, err)
				}
			}
		}
	}
}

func curveOf(t *testing.T, o outcome) []curve.Point {
	t.Helper()
	c := curve.New(0)
	for i, ev := range o.Infected {
		if err := c.Append(ev.At, float64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return c.Points()
}

func pointsEqual(a, b []curve.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSelfTimesSplitConcurrentSpans checks the attribution on a hand-made
// trace: two overlapping children share the instants they overlap, and
// every name's share adds up to the root's duration.
func TestSelfTimesSplitConcurrentSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "workload", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 50},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 70},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 40},
	}
	got, err := selfTimes(spans)
	if err != nil {
		t.Fatal(err)
	}
	// workload: [0,10) and [70,100). a: [10,20) alone, [40,50) shared with
	// b. c: [20,30) alone, [30,40) shared with b. b: half of [30,50),
	// then [50,70) alone.
	want := map[string]time.Duration{"workload": 40, "a": 15, "c": 15, "b": 30}
	var sum time.Duration
	for name, d := range want {
		if got[name] != d {
			t.Errorf("%s: self %d, want %d", name, got[name], d)
		}
		sum += got[name]
	}
	if sum != 100 {
		t.Errorf("self times add up to %d, want 100", sum)
	}

	spans = append(spans, span{ID: 4, Parent: 2, Name: "d", Start: 60, End: 80})
	if _, err := selfTimes(spans); err == nil {
		t.Error("a child outliving its parent was accepted")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json, the metric tables and the
// scale reference in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, perfbench runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, perfbench prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], perfbench prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)

	b := &bench{metrics: map[string]metric{}}
	ref := references(b)
	if len(b.problems) > 0 {
		t.Fatal(b.problems)
	}
	if len(ref["scale-flood"]) != 1 || len(ref["scale-response"]) != responseReplications {
		t.Errorf("reference.json pins %d scale-flood and %d scale-response replications",
			len(ref["scale-flood"]), len(ref["scale-response"]))
	}
}
