package fleet

import (
	"fmt"

	"repro/internal/simtime"
)

// Adaptive configures the admission-control feedback loop. When Enabled,
// the static Admission bounds become the controller's starting point and
// every Period of simulated time the controller re-tunes three knobs
// inside the configured ranges: the queue-depth bound, the estimated-wait
// bound, and the est-aware gate's queueing-signal margin. This is the
// fleet analogue of the SmartNIC simulator's per-round threshold
// adjustment: observe what the last round let through and what it cost,
// then move the threshold instead of pinning it.
type Adaptive struct {
	Enabled bool
	// Period is the controller's adjustment interval on the simulated
	// clock.
	Period simtime.PS
	// MinQueue/MaxQueue bound the adaptive queue-depth limit. MinQueue
	// must be >= 1: the controller may never cross into 0, which the
	// Admission contract reserves for "unbounded".
	MinQueue, MaxQueue int
	// MinWait/MaxWait bound the adaptive estimated-wait limit.
	MinWait, MaxWait simtime.PS
	// MinMargin/MaxMargin bound the est-aware gate margin (1 charges the
	// raw load signal; larger values distrust it).
	MinMargin, MaxMargin float64
}

// DefaultAdaptive is the standard controller tuning: quarter-second
// reaction time, bounds wide enough to span everything the static
// defaults would pin, margin free to grow eightfold under pressure but
// never below neutral.
func DefaultAdaptive() Adaptive {
	return Adaptive{
		Enabled:   true,
		Period:    250 * simtime.Millisecond,
		MinQueue:  2,
		MaxQueue:  64,
		MinWait:   250 * simtime.Millisecond,
		MaxWait:   8 * simtime.Second,
		MinMargin: 1,
		MaxMargin: 8,
	}
}

func (a *Adaptive) validate() error {
	if !a.Enabled {
		return nil
	}
	if a.Period <= 0 {
		return fmt.Errorf("fleet: adaptive admission needs a positive period, got %v", a.Period)
	}
	if a.MinQueue < 1 || a.MaxQueue < a.MinQueue {
		return fmt.Errorf("fleet: adaptive queue bounds [%d, %d] invalid (min >= 1, max >= min)", a.MinQueue, a.MaxQueue)
	}
	if a.MinWait < 1 || a.MaxWait < a.MinWait {
		return fmt.Errorf("fleet: adaptive wait bounds [%v, %v] invalid", a.MinWait, a.MaxWait)
	}
	if a.MinMargin <= 0 || a.MaxMargin < a.MinMargin {
		return fmt.Errorf("fleet: adaptive margin bounds [%g, %g] invalid", a.MinMargin, a.MaxMargin)
	}
	return nil
}

// controller runs the Adaptive feedback loop. It lives on the machine and
// steps from the handlers in global event order: the control trajectory is
// part of the deterministic schedule.
type controller struct {
	cfg  Adaptive
	next simtime.PS // next period boundary

	// Live knob values, mirrored into machine.adm / machine.margin after
	// every step.
	queue  int
	wait   simtime.PS
	margin float64

	// Period counters.
	offloads int
	sheds    int
	misses   int
}

func newController(a Adaptive, seed Admission) *controller {
	c := &controller{cfg: a, next: a.Period, queue: seed.MaxQueue, wait: seed.MaxWait, margin: 1}
	if c.queue == 0 {
		c.queue = a.MaxQueue
	}
	if c.wait == 0 {
		c.wait = a.MaxWait
	}
	c.clampKnobs()
	return c
}

func (c *controller) noteShed() {
	if c != nil {
		c.sheds++
	}
}

func (c *controller) noteFinish(missed bool) {
	if c != nil {
		c.offloads++
		if missed {
			c.misses++
		}
	}
}

// step applies one control decision from the last period's counters and
// the pool's instantaneous occupancy. The shape is AIMD with a
// multiplicative margin: pressure — sheds at arrival or deadline overruns
// at completion — means admission and the gate let in more than the pool
// could serve in time, so both bounds cut by a quarter and the margin
// grows 1.5x (requests start declining up front, for free, instead of
// wasting an upload to be shed or finishing late). A clean period with
// slot headroom relaxes the bounds additively and decays the margin, so a
// trough recovers the throughput a pinned-conservative static bound would
// forfeit.
func (c *controller) step(busy, slots int) {
	pressure := c.sheds + c.misses
	switch {
	case pressure > 0:
		c.wait -= c.wait / 4
		c.queue -= (c.queue + 3) / 4
		c.margin *= 1.5
	case busy*4 < slots*3:
		c.wait += c.wait / 8
		c.queue++
		c.margin *= 0.9
	}
	c.clampKnobs()
	c.offloads, c.sheds, c.misses = 0, 0, 0
}

func (c *controller) clampKnobs() {
	if c.queue < c.cfg.MinQueue {
		c.queue = c.cfg.MinQueue
	}
	if c.queue > c.cfg.MaxQueue {
		c.queue = c.cfg.MaxQueue
	}
	if c.wait < c.cfg.MinWait {
		c.wait = c.cfg.MinWait
	}
	if c.wait > c.cfg.MaxWait {
		c.wait = c.cfg.MaxWait
	}
	if c.margin < c.cfg.MinMargin {
		c.margin = c.cfg.MinMargin
	}
	if c.margin > c.cfg.MaxMargin {
		c.margin = c.cfg.MaxMargin
	}
}
