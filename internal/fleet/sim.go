package fleet

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/simtime"
)

// clientState is one simulated mobile device: its private workload
// stream, its access link, and how many requests it still owes.
type clientState struct {
	rng       rng
	link      *netsim.Link
	remaining int
}

// buildClients materializes the client population. Clients on the same
// profile share one immutable Link instance: a per-client Clone would only
// stamp a distinct name, which at a million clients is real memory.
func buildClients(cfg *Config) ([]clientState, error) {
	profiles := cfg.LinkProfiles
	if len(profiles) == 0 {
		profiles = defaultLinkProfiles
	}
	base := make([]*netsim.Link, len(profiles))
	for i, name := range profiles {
		l, err := netsim.Profile(name)
		if err != nil {
			return nil, err
		}
		base[i] = l
	}
	clients := make([]clientState, cfg.Clients)
	for i := range clients {
		clients[i] = clientState{
			rng:       entityStream(cfg.Seed, uint64(i)),
			link:      base[i%len(base)],
			remaining: cfg.RequestsPerClient,
		}
	}
	return clients, nil
}

// nextThink draws the client's pause before its next request, issued at
// instant at. Under a diurnal workload the draw is scaled by the inverse
// of the load curve: peak hours shrink think times (more traffic), the
// trough stretches them.
func nextThink(cfg *Config, cs *clientState, at simtime.PS) simtime.PS {
	think := cs.rng.rangePS(cfg.Workload.ThinkMin, cfg.Workload.ThinkMax)
	if cfg.Workload.DiurnalAmp > 0 {
		think = simtime.PS(float64(think) / cfg.Workload.loadAt(at))
	}
	return think
}

// loadAt is the diurnal load factor at instant t: 1 + Amp*sin(2πt/Period),
// so the curve starts at the neutral crossing and peaks a quarter-period
// in.
func (w *WorkloadModel) loadAt(t simtime.PS) float64 {
	if w.DiurnalAmp <= 0 {
		return 1
	}
	return 1 + w.DiurnalAmp*math.Sin(2*math.Pi*float64(t)/float64(w.DiurnalPeriod))
}

// issueReady runs one ready event: if the client still owes requests, it
// draws the task (Tm, M), prices the transfer legs over its own link at
// this instant, and returns the decision intent for the machine.
func issueReady(cfg *Config, cs *clientState, ci int32, now simtime.PS, st *Stats) (intent, bool) {
	st.Events++
	if cs.remaining == 0 {
		return intent{}, false
	}
	cs.remaining--
	st.Requests++
	// The logical JobID: fixed here, at issue time, from (client, ordinal)
	// alone — 1-based so id 0 stays "unattributed" — and carried through
	// every continuation of the request's life: a pure function of the
	// client's identity, independent of event interleaving.
	ord := int64(cfg.RequestsPerClient - cs.remaining)
	tm := cs.rng.rangePS(cfg.Workload.TmMin, cfg.Workload.TmMax)
	mem := cs.rng.rangeI64(cfg.Workload.MemMin, cfg.Workload.MemMax)
	link := cs.link.At(now)
	return intent{
		t:    now,
		ci:   ci,
		tm:   tm,
		mem:  mem,
		up:   link.TransferTime(mem),
		down: link.TransferTime(mem),
		bw:   link.BandwidthBps,
		rtt:  2 * (link.Latency + link.PerMessage),
		job:  int64(ci)*int64(cfg.RequestsPerClient) + ord,
	}, true
}

// Run executes one fleet simulation to completion and returns its
// statistics. The run is strictly deterministic in cfg (including Seed):
// per-entity RNG streams and the intrinsic (t, lane, seq) event order make
// the schedule a property of the configuration alone. One heap holds every
// lane's pending events; ready events issue client requests, everything
// else is a server-lane event.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clients, err := buildClients(&cfg)
	if err != nil {
		return nil, err
	}
	m := newMachine(&cfg, clients)

	// Stagger the fleet's first wave by one think time per client.
	for i := range clients {
		m.q.sched(nextThink(&cfg, &clients[i], 0), evReady, int32(i), 0, nil)
	}
	m.scheduleFaults()

	var now simtime.PS
	for !m.q.empty() {
		ev := m.q.pop()
		now = ev.t
		if ev.kind == evReady {
			if in, ok := issueReady(&cfg, &clients[ev.lane], ev.lane, ev.t, m.st); ok {
				m.handleIntent(in)
			}
			continue
		}
		m.handleServerEvent(ev)
	}
	return m.finishRun(now)
}
