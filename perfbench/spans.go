package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/clock"
)

// span is one timed call into a layer, as seen from the benchmark. Times are
// nanoseconds since the trace began; parent is -1 for the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced pass in memory; write dumps them
// once, at the end. Spans are opened and closed from several goroutines, so
// every mutation takes the lock. The timed iterations never touch a tracer.
type tracer struct {
	runID string
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(runID string) *tracer {
	return &tracer{runID: runID, base: clock.System()}
}

// now returns the trace clock.
func (tr *tracer) now() int64 { return int64(clock.System().Sub(tr.base)) }

// begin opens a span under parent and returns its id.
func (tr *tracer) begin(name string, parent int) int {
	t := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name, Start: t, End: -1})
	return id
}

// end closes span id.
func (tr *tracer) end(id int) {
	t := tr.now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = t
}

// record adds an already-timed span, for calls timed on a goroutine that
// must not contend for the lock mid-measurement.
func (tr *tracer) record(name string, parent int, start, end int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{ID: len(tr.spans), Parent: parent, Name: name, Start: start, End: end})
}

// write dumps every span as one JSON line carrying the shared run id.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		line := struct {
			Run string `json:"run"`
			span
		}{tr.runID, s}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes splits the root span's wall time among span names. At every
// instant the time goes, in equal shares, to the innermost spans open at
// that instant: those with no open child. Two shard runs on two goroutines
// thus get half of each instant they share, a window span gets only the
// instants when none of its shard runs or its barrier is open, and the
// shares always add up to the root's duration. With no concurrency this is
// the usual self time: a span's duration minus the part its children cover.
func selfTimes(spans []span) (map[string]time.Duration, error) {
	type edge struct {
		at    int64
		depth int
		start bool
		id    int
	}
	depth := make([]int, len(spans))
	edges := make([]edge, 0, 2*len(spans))
	for i, s := range spans {
		if s.End < s.Start {
			return nil, fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent >= 0 {
			if s.Parent >= i {
				return nil, fmt.Errorf("span %d (%s) opened before its parent", s.ID, s.Name)
			}
			p := spans[s.Parent]
			if s.Start < p.Start || s.End > p.End {
				return nil, fmt.Errorf("span %d (%s) outlives its parent %s", s.ID, s.Name, p.Name)
			}
			depth[i] = depth[s.Parent] + 1
		}
		edges = append(edges, edge{s.Start, depth[i], true, i}, edge{s.End, depth[i], false, i})
	}
	// At equal times, close before opening, children before parents, and
	// open parents before children, so the open set stays a forest.
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		if ea.at != eb.at {
			return ea.at < eb.at
		}
		if ea.start != eb.start {
			return !ea.start
		}
		if ea.start {
			return ea.depth < eb.depth
		}
		return ea.depth > eb.depth
	})

	openChildren := make([]int, len(spans))
	open := make([]bool, len(spans))
	var leaves []int // open spans with no open child
	drop := func(id int) {
		for k, l := range leaves {
			if l == id {
				leaves[k] = leaves[len(leaves)-1]
				leaves = leaves[:len(leaves)-1]
				return
			}
		}
	}
	share := make([]float64, len(spans))
	var last int64
	for _, e := range edges {
		if dt := e.at - last; dt > 0 && len(leaves) > 0 {
			per := float64(dt) / float64(len(leaves))
			for _, l := range leaves {
				share[l] += per
			}
		}
		last = e.at
		p := spans[e.id].Parent
		if e.start {
			open[e.id] = true
			if p >= 0 && open[p] {
				if openChildren[p] == 0 {
					drop(p)
				}
				openChildren[p]++
			}
			leaves = append(leaves, e.id)
			continue
		}
		open[e.id] = false
		drop(e.id)
		if p >= 0 && open[p] {
			openChildren[p]--
			if openChildren[p] == 0 {
				leaves = append(leaves, p)
			}
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(share[i])
	}
	return out, nil
}

// busy sums the durations of every span with the given name: lane time,
// which counts an instant twice when two goroutines are both in the layer.
func busy(spans []span, name string) time.Duration {
	var d time.Duration
	for _, s := range spans {
		if s.Name == name {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}
