package response

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/des"
	"repro/internal/mms"
	"repro/internal/rng"
)

// Immunizer is the software-patch mechanism: after the virus becomes
// detectable, the provider develops a patch (DevelopmentTime) and then
// deploys it to every vulnerable phone uniformly over DeploymentWindow
// (bandwidth limits prevent simultaneous installation; more servers mean a
// shorter window). A patched susceptible phone becomes immune; a patched
// infected phone stops disseminating.
type Immunizer struct {
	// DevelopmentTime is the patch development time after detectability
	// (paper: 24 or 48 hours).
	DevelopmentTime time.Duration
	// DeploymentWindow is the time over which the patch reaches the whole
	// population (paper: 1, 6, or 24 hours).
	DeploymentWindow time.Duration

	deployStarted time.Duration
	started       bool
	// patchH installs the patch on the phone id passed as its argument:
	// one long-lived handler for the whole wave instead of a closure per
	// phone.
	patchH des.ArgHandler

	// Sharded-run state: development completion is armed at the barrier
	// where merged detection fires; the patch wave is drawn once in
	// canonical phone order (identical offsets to an unsharded run, since
	// vulnerability is static) and released window by window at barriers,
	// each patch scheduled on its owner shard at its exact installation
	// time (clamped up to the barrier when development completed
	// mid-window). See sharded.go.
	armed    bool
	armAt    time.Duration
	wave     []patchEntry
	waveNext int
}

// patchEntry is one phone's scheduled patch installation in a sharded
// deployment wave.
type patchEntry struct {
	at time.Duration
	id mms.PhoneID
}

var _ mms.Response = (*Immunizer)(nil)

// NewImmunizer returns a factory for patch-immunization campaigns.
func NewImmunizer(developmentTime, deploymentWindow time.Duration) mms.ResponseFactory {
	return func() mms.Response {
		return &Immunizer{
			DevelopmentTime:  developmentTime,
			DeploymentWindow: deploymentWindow,
		}
	}
}

// Name implements mms.Response.
func (im *Immunizer) Name() string {
	return fmt.Sprintf("immunize(dev=%v,deploy=%v)", im.DevelopmentTime, im.DeploymentWindow)
}

// Attach implements mms.Response.
func (im *Immunizer) Attach(n *mms.Network, src *rng.Source) error {
	if im.DevelopmentTime < 0 {
		return fmt.Errorf("response: negative patch development time")
	}
	if im.DeploymentWindow < 0 {
		return fmt.Errorf("response: negative patch deployment window")
	}
	if src == nil {
		return fmt.Errorf("response: immunizer needs a random source")
	}
	n.Gateway().OnVirusDetected(func(at time.Duration) {
		if _, err := n.Sim().ScheduleAfter(im.DevelopmentTime, func(*des.Simulation) {
			im.deploy(n, src)
		}); err != nil {
			return
		}
	})
	return nil
}

// deploy schedules each phone's patch installation uniformly across the
// deployment window.
func (im *Immunizer) deploy(n *mms.Network, src *rng.Source) {
	im.started = true
	im.deployStarted = n.Sim().Now()
	im.patchH = func(_ *des.Simulation, arg uint64) {
		// Patch failures are impossible for in-range ids.
		_ = n.Patch(mms.PhoneID(arg))
	}
	for i := 0; i < n.N(); i++ {
		id := mms.PhoneID(i)
		if n.State(id) == mms.StateNotVulnerable {
			continue // nothing to patch against
		}
		var offset time.Duration
		if im.DeploymentWindow > 0 {
			offset = time.Duration(src.Uniform(0, float64(im.DeploymentWindow)))
		}
		if _, err := n.Sim().ScheduleArgAfter(offset, im.patchH, uint64(id)); err != nil {
			return
		}
	}
}

// DeploymentStarted reports whether and when deployment began.
func (im *Immunizer) DeploymentStarted() (time.Duration, bool) {
	return im.deployStarted, im.started
}

// Descriptor implements mms.ResponseDescriber: immunization is fully
// determined by its development time and deployment window.
func (im *Immunizer) Descriptor() string {
	return "immunize|dev=" + strconv.FormatInt(int64(im.DevelopmentTime), 10) +
		"|deploy=" + strconv.FormatInt(int64(im.DeploymentWindow), 10)
}

var _ mms.ResponseDescriber = (*Immunizer)(nil)
