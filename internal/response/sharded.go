package response

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/des"
	"repro/internal/mms"
	"repro/internal/rng"
)

// This file holds the sharded variants of the six mechanisms
// (mms.ShardResponse implementations). The determinism contract they all
// honour: behaviour is a pure function of (config, seed, shard count,
// window) — global state advances only at window barriers on the
// coordinating goroutine, and per-shard state is owned by the shard that
// filters or controls the relevant sender. DESIGN.md §15 documents the
// semantics and the known discretization gap versus unsharded runs.

var (
	_ mms.ShardResponse = (*Scan)(nil)
	_ mms.ShardResponse = (*Detector)(nil)
	_ mms.ShardResponse = (*Education)(nil)
	_ mms.ShardResponse = (*Immunizer)(nil)
	_ mms.ShardResponse = (*Monitor)(nil)
	_ mms.ShardResponse = (*Blacklist)(nil)
)

// AttachShards implements mms.ShardResponse: the scan filter itself is
// shared across all gateways (it is stateless apart from the activation
// time), and activation arms at the barrier where merged detection fires.
func (s *Scan) AttachShards(ss *mms.ShardSet, _ *rng.Source) error {
	if s.ActivationDelay < 0 {
		return errors.New("response: negative scan activation delay")
	}
	for _, n := range ss.Shards() {
		n.Gateway().AddFilter(s)
	}
	ss.OnVirusDetected(func(at time.Duration) {
		s.activateAt = at + s.ActivationDelay
		s.armed = true
	})
	return nil
}

// shardDetector is one shard's view of a Detector: its own verdict cache
// and rng stream over that shard's senders, sharing only the parent's
// armed activation time. Verdict caches partition exactly because every
// message is filtered on its sender's shard.
type shardDetector struct {
	parent   *Detector
	src      rng.Source
	verdicts map[uint64]bool
}

// Name implements mms.Filter.
func (sd *shardDetector) Name() string { return sd.parent.Name() }

// Inspect implements mms.Filter with the same verdict model as
// Detector.Inspect, drawing from the shard-local stream.
func (sd *shardDetector) Inspect(from mms.PhoneID, _ int, now time.Duration) mms.FilterVerdict {
	d := sd.parent
	if !d.armed || now < d.activateAt {
		return mms.VerdictDeliver
	}
	if d.IndependentPerCopy {
		if sd.src.Bool(d.Accuracy) {
			return mms.VerdictDrop
		}
		return mms.VerdictDeliver
	}
	key := uint64(from)<<21 | uint64(now/(24*time.Hour))
	recognized, seen := sd.verdicts[key]
	if !seen {
		recognized = sd.src.Bool(d.Accuracy)
		sd.verdicts[key] = recognized
	}
	if recognized {
		return mms.VerdictDrop
	}
	return mms.VerdictDeliver
}

// AttachShards implements mms.ShardResponse: one sub-filter per shard with
// a pinned per-shard stream ("rsp" | shard) derived from the mechanism's
// source, plus a shared activation time armed at the detection barrier.
func (d *Detector) AttachShards(ss *mms.ShardSet, src *rng.Source) error {
	if d.Accuracy < 0 || d.Accuracy > 1 {
		return fmt.Errorf("response: detector accuracy %v outside [0,1]", d.Accuracy)
	}
	if d.AnalysisDelay < 0 {
		return fmt.Errorf("response: negative detector analysis delay")
	}
	if src == nil {
		return fmt.Errorf("response: detector needs a random source")
	}
	for s, n := range ss.Shards() {
		sd := &shardDetector{parent: d, verdicts: make(map[uint64]bool)}
		src.StreamInto(&sd.src, 0x727370<<16|uint64(s)) // "rsp" | shard
		n.Gateway().AddFilter(sd)
	}
	ss.OnVirusDetected(func(at time.Duration) {
		d.activateAt = at + d.AnalysisDelay
		d.armed = true
	})
	return nil
}

// AttachShards implements mms.ShardResponse: education is a standing
// campaign with no cross-shard state — the solved acceptance factor is set
// on every shard (consent is evaluated on the recipient's owner shard).
func (e *Education) AttachShards(ss *mms.ShardSet, _ *rng.Source) error {
	af, err := mms.SolveAcceptanceFactor(e.EventualAcceptance)
	if err != nil {
		return fmt.Errorf("response: education: %w", err)
	}
	for _, n := range ss.Shards() {
		if err := n.SetAcceptanceFactor(af); err != nil {
			return err
		}
	}
	return nil
}

// AttachShards implements mms.ShardResponse. Development completion arms
// at the detection barrier; the deployment wave is then drawn once, in
// canonical phone order from the mechanism's own source — the identical
// offset sequence an unsharded run draws, because vulnerability is static
// — and sorted by (install time, id). Each barrier releases the entries
// landing before the next barrier onto their owner shards at their exact
// install times (clamped up to the barrier for the window in which
// development completed).
func (im *Immunizer) AttachShards(ss *mms.ShardSet, src *rng.Source) error {
	if im.DevelopmentTime < 0 {
		return fmt.Errorf("response: negative patch development time")
	}
	if im.DeploymentWindow < 0 {
		return fmt.Errorf("response: negative patch deployment window")
	}
	if src == nil {
		return fmt.Errorf("response: immunizer needs a random source")
	}
	ss.OnVirusDetected(func(at time.Duration) {
		im.armAt = at + im.DevelopmentTime
		im.armed = true
	})
	ss.OnBarrier(func(barrier, next time.Duration) {
		if im.armed && !im.started && im.armAt < next {
			im.deployShards(ss, src)
		}
		im.releaseWave(ss, barrier, next)
	})
	return nil
}

// deployShards draws the full deployment wave. Runs once, on the
// coordinating goroutine, at the first barrier after development
// completes.
func (im *Immunizer) deployShards(ss *mms.ShardSet, src *rng.Source) {
	im.started = true
	im.deployStarted = im.armAt
	im.patchH = func(_ *des.Simulation, arg uint64) {
		id := mms.PhoneID(arg)
		// Patch failures are impossible for in-range ids.
		_ = ss.Shards()[ss.ShardOf(id)].Patch(id)
	}
	nets := ss.Shards()
	probe := nets[0] // state queries read the shared population
	for i := 0; i < ss.N(); i++ {
		id := mms.PhoneID(i)
		if probe.State(id) == mms.StateNotVulnerable {
			continue // nothing to patch against
		}
		var offset time.Duration
		if im.DeploymentWindow > 0 {
			offset = time.Duration(src.Uniform(0, float64(im.DeploymentWindow)))
		}
		im.wave = append(im.wave, patchEntry{at: im.armAt + offset, id: id})
	}
	// Phone ids are unique, so (at, id) is a total order and the unstable
	// sort yields the one canonical wave.
	slices.SortFunc(im.wave, comparePatch)
}

// comparePatch orders patch entries by (install time, phone id).
func comparePatch(a, b patchEntry) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.id, b.id))
}

// releaseWave schedules every pending patch installing before the next
// barrier onto its owner shard. Entries release in (time, id) order, so
// same-instant installs tie-break by id on each shard's event queue.
func (im *Immunizer) releaseWave(ss *mms.ShardSet, barrier, next time.Duration) {
	for im.waveNext < len(im.wave) {
		e := im.wave[im.waveNext]
		if e.at >= next {
			break
		}
		im.waveNext++
		at := e.at
		if at < barrier {
			at = barrier
		}
		n := ss.Shards()[ss.ShardOf(e.id)]
		if _, err := n.Sim().ScheduleArgAt(at, im.patchH, uint64(e.id)); err != nil {
			return
		}
	}
}

// AttachShards implements mms.ShardResponse: one sub-monitor per shard,
// installed as that shard's send controller and legitimate-traffic
// observer. This instance becomes the merged reporting view (Flagged,
// FlaggedPhones).
func (m *Monitor) AttachShards(ss *mms.ShardSet, _ *rng.Source) error {
	if err := m.validate(); err != nil {
		return err
	}
	m.set = ss
	m.subs = make([]*Monitor, len(ss.Shards()))
	for s, n := range ss.Shards() {
		sub := &Monitor{Window: m.Window, Threshold: m.Threshold, ForcedWait: m.ForcedWait}
		sub.initState()
		n.AddController(sub)
		m.subs[s] = sub
	}
	return nil
}

// AttachShards implements mms.ShardResponse: one sub-blacklist per shard
// counting that shard's senders, with this instance as the merged view
// (Blacklisted, BlacklistedPhones).
func (b *Blacklist) AttachShards(ss *mms.ShardSet, _ *rng.Source) error {
	if b.Threshold < 1 {
		return fmt.Errorf("response: blacklist threshold must be at least 1")
	}
	b.set = ss
	b.subs = make([]*Blacklist, len(ss.Shards()))
	for s, n := range ss.Shards() {
		sub := &Blacklist{
			Threshold:   b.Threshold,
			counts:      make(map[mms.PhoneID]int),
			blacklisted: make(map[mms.PhoneID]bool),
		}
		n.AddController(sub)
		b.subs[s] = sub
	}
	return nil
}
