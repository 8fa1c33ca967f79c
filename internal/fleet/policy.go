package fleet

import (
	"fmt"

	"repro/internal/simtime"
)

// Policy names a dispatcher load-balancing policy.
type Policy string

const (
	// Random routes each request to a uniformly random server.
	Random Policy = "random"
	// RoundRobin cycles through the pool in order.
	RoundRobin Policy = "round-robin"
	// LeastLoaded picks the server with the least outstanding work per
	// slot (queue depth weighted by service time), ignoring the request
	// itself and the client's link.
	LeastLoaded Policy = "least-loaded"
	// EstAware picks the server minimizing the *estimated remote
	// completion time of this request*: transfer over the client's own
	// link, the server's current queueing delay, and execution at that
	// server's speed — Equation 1 extended with live load
	// (estimate.Params.RemoteTime).
	EstAware Policy = "est-aware"
)

// Policies lists every dispatch policy, in comparison order.
func Policies() []Policy { return []Policy{Random, RoundRobin, LeastLoaded, EstAware} }

// ParsePolicy resolves a policy name.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies() {
		if string(p) == s {
			return p, nil
		}
	}
	return "", fmt.Errorf("fleet: unknown policy %q (want random, round-robin, least-loaded or est-aware)", s)
}

// dispatcher routes offload requests to servers under one policy.
type dispatcher struct {
	policy Policy
	rng    rng // the random policy's private stream
	rr     int // round-robin cursor
}

// pickCheck, when non-nil, sees every pick: the dispatcher as it was
// before the pick, the arguments and the result. Tests set it to hold
// the index to the linear-scan oracle on every decision of a run.
var pickCheck func(pre dispatcher, servers []*server, p *pool, now, tm, up, down simtime.PS, si int, wait simtime.PS)

// pickAmong chooses the server within pool p for a request a client
// decides to offload at instant now: tm is the task's mobile execution
// time, up/down the transfer times over this client's link. It returns
// the server index and the estimated queueing delay there (the load
// signal the gate charges). A flat fleet picks from one pool over every
// server; the tiered dispatcher runs one pick per tier and lets the
// 3-way placement gate arbitrate between the winners. Crashed and
// draining servers are out of rotation for every policy; with nobody up,
// pickAmong returns -1 and the client runs the task locally.
func (d *dispatcher) pickAmong(servers []*server, p *pool, now, tm, up, down simtime.PS) (int, simtime.PS) {
	pre := *d
	si, wait := d.choose(servers, p, now, tm, up, down)
	if pickCheck != nil {
		pickCheck(pre, servers, p, now, tm, up, down, si, wait)
	}
	return si, wait
}

// choose is pickAmong's policy switch. Random and round-robin count the
// live members and then walk to the drawn one, so a pick allocates
// nothing; least-loaded and est-aware ask the pool's load index.
func (d *dispatcher) choose(servers []*server, p *pool, now, tm, up, down simtime.PS) (int, simtime.PS) {
	if d.policy == LeastLoaded || d.policy == EstAware {
		return p.least(d.policy, now, tm, up, down)
	}
	alive := 0
	for _, i := range p.members {
		if !servers[i].down {
			alive++
		}
	}
	if alive == 0 {
		return -1, 0
	}
	var k int
	if d.policy == Random {
		k = d.rng.intn(alive)
	} else {
		k = d.rr % alive
		d.rr++
	}
	si := -1
	for _, i := range p.members {
		if !servers[i].down {
			if k == 0 {
				si = i
				break
			}
			k--
		}
	}
	return si, servers[si].estWait(now)
}
