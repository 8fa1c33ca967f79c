package fleet

import (
	"fmt"

	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/tiers"
)

// job is one offload request in flight through the fleet.
type job struct {
	// id is the logical JobID: fixed when the client issues the request
	// and inherited by every continuation a retry, demotion, promotion or
	// migration creates, so one id names the whole causal chain.
	id int64
	// rec is the job's span record when the tail sampler is on (nil
	// otherwise); continuations share it.
	rec *jobRec
	// pend labels the in-flight transit interval the next arrival closes
	// (uplink for a dispatch, wan.ship for a cross-tier move, ...).
	pend   uint8
	client int32
	tm     simtime.PS // mobile execution time (Equation 1's Tm)
	mem    int64      // memory footprint (Equation 1's M)
	exec   simtime.PS // execution time at the chosen server
	decide simtime.PS // when the client decided to offload
	enq    simtime.PS // when the request entered the run queue
	finish simtime.PS // when the server will complete it (running jobs)
	down   simtime.PS // reply transfer time over the client's link
	seq    int64      // FIFO tie-break (dispatch order)
	// deadline is the client's patience for the whole offload, fixed at
	// dispatch like offrt's offloadDeadline: slack times the predicted
	// transfer + execution + reply. Without the migration control plane
	// this expiry is the client's only way to learn its server died.
	deadline simtime.PS
	// cancelled tombstones a job whose server died mid-service: its
	// already-scheduled evFinish must fire as a no-op, because its slot and
	// accounting were released at the fault instant.
	cancelled bool
	// recovery marks a job re-placed after a server fault. Recovery
	// traffic is control-plane placement against a live reservation — it
	// already raced the local-fallback estimate at relocation time — so
	// the client-facing admission bound does not shed it a second time.
	recovery bool
	// tier is the tier the job is placed on (tierEdge/tierCloud; 0 in a
	// flat fleet). A cross-tier move restamps it.
	tier uint8
	// adown is the access-link-only reply time, kept alongside down so a
	// cross-tier move can recompute the reply leg: an edge job replies
	// over adown alone, a cloud job over adown plus the WAN leg.
	adown simtime.PS
}

// server is one pool member's live state.
type server struct {
	spec    ServerSpec
	busy    int    // occupied slots
	running []*job // jobs in slots (finish times feed the load estimate)
	queue   []*job // waiting jobs, ordered by the queue discipline at pop

	// reserved is dispatcher-side bookkeeping: service time of requests
	// routed here but still in flight over their clients' links. Without
	// it every concurrent est-aware decision sees the same idle server
	// and herds onto it — the classic join-shortest-queue-with-stale-info
	// pathology.
	reserved simtime.PS

	// finSum and queExec keep estWait O(1): the sum of running jobs'
	// absolute finish instants and of queued jobs' service times. The old
	// engine walked both slices per estimate — per dispatch, per server —
	// which at fleet scale was the hottest loop in the simulator.
	finSum  simtime.PS
	queExec simtime.PS

	// busyPS integrates busy slots over time for the utilization gauge;
	// maxDepth tracks the deepest queue ever observed.
	busyPS   simtime.PS
	lastT    simtime.PS
	maxDepth int
	waitPS   simtime.PS // total queueing delay charged
	served   int        // jobs that entered a slot

	// down marks a crashed or draining server: the dispatcher routes
	// around it and arrivals already in flight are relocated.
	down bool

	// cls and leaf place the server in its pool's load index. Every
	// method below that changes reserved, queExec, finSum, running or
	// down ends in reindex.
	cls  *classIndex
	leaf int
}

// reindex refreshes the server's leaf in its pool's load index.
func (s *server) reindex() {
	s.cls.set(s.leaf, s.reserved+s.queExec+s.finSum, len(s.running), s.down)
}

// advance integrates the utilization clock to now.
func (s *server) advance(now simtime.PS) {
	if now > s.lastT {
		s.busyPS += simtime.PS(int64(s.busy) * int64(now-s.lastT))
		s.lastT = now
	}
}

// estWait estimates the queueing delay a request dispatched now would
// face: all outstanding work (remaining service of running jobs, the full
// service of queued ones, and in-flight reservations) spread across the
// slots. This is the live load signal the dispatcher exposes — to its own
// policies, to the admission bound, and to the est-aware gate. Running
// jobs always have finish >= now (their evFinish has not fired), so the
// incremental form below equals the per-job walk exactly.
func (s *server) estWait(now simtime.PS) simtime.PS {
	left := s.reserved + s.queExec
	left += s.finSum - simtime.PS(len(s.running))*now
	return left / simtime.PS(s.spec.Slots)
}

// estWaitAt is the walk form of estWait for *future* instants — the fault
// recovery paths estimate load at arrival times past now, where a running
// job finishing before at must contribute zero, not negative. Recovery is
// rare, so the O(running) walk stays off the dispatch hot path.
func (s *server) estWaitAt(at simtime.PS) simtime.PS {
	left := s.reserved + s.queExec
	for _, j := range s.running {
		if j.finish > at {
			left += j.finish - at
		}
	}
	return left / simtime.PS(s.spec.Slots)
}

// reserve books the service time of a request routed here that is still
// in flight.
func (s *server) reserve(exec simtime.PS) {
	s.reserved += exec
	s.reindex()
}

// unreserve releases a reservation as its request lands, clamped at zero.
func (s *server) unreserve(exec simtime.PS) {
	s.reserved -= exec
	if s.reserved < 0 {
		s.reserved = 0
	}
	s.reindex()
}

// enqueue appends to the run queue under the discipline's bookkeeping.
func (s *server) enqueue(j *job) {
	s.queue = append(s.queue, j)
	s.queExec += j.exec
	if len(s.queue) > s.maxDepth {
		s.maxDepth = len(s.queue)
	}
	s.reindex()
}

// pop removes the next queued job under the discipline: FIFO takes the
// oldest, SJF the shortest service time (ties by arrival order).
func (s *server) pop(d Discipline) *job {
	best := 0
	if d == SJF {
		for i := 1; i < len(s.queue); i++ {
			if s.queue[i].exec < s.queue[best].exec ||
				(s.queue[i].exec == s.queue[best].exec && s.queue[i].seq < s.queue[best].seq) {
				best = i
			}
		}
	}
	j := s.queue[best]
	s.queue = append(s.queue[:best], s.queue[best+1:]...)
	s.queExec -= j.exec
	s.reindex()
	return j
}

// removeQueued unlinks one specific queued job (cross-tier promotion
// pulls from the middle of the queue, not from its head).
func (s *server) removeQueued(j *job) {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			s.queExec -= j.exec
			s.reindex()
			return
		}
	}
}

// start puts j in a slot until fin.
func (s *server) start(j *job, fin simtime.PS) {
	s.busy++
	s.served++
	j.finish = fin
	s.running = append(s.running, j)
	s.finSum += fin
	s.reindex()
}

// dropRunning frees the slot a running job held.
func (s *server) dropRunning(j *job) {
	s.busy--
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			s.finSum -= j.finish
			break
		}
	}
	s.reindex()
}

// clearSlots empties every slot and returns the jobs that held them.
func (s *server) clearSlots() []*job {
	running := s.running
	s.busy, s.running, s.finSum = 0, nil, 0
	s.reindex()
	return running
}

// clearQueue empties the run queue and returns the jobs it held.
func (s *server) clearQueue() []*job {
	queued := s.queue
	s.queue, s.queExec = nil, 0
	s.reindex()
	return queued
}

// takeDown puts the server out of rotation for good.
func (s *server) takeDown() {
	s.down = true
	s.reindex()
}

// detectDelay is the health monitor's failure-detection latency: the gap
// between a server dying and the control plane declaring it dead off its
// missed heartbeats. It is a property of the migration subsystem — only
// fleets running with Migrate have a component watching server liveness.
// Drains are announced and pay the same small notification delay.
const detectDelay = 5 * simtime.Millisecond

// deadlineSlack mirrors offrt's DefaultRecovery().DeadlineSlack: a client
// without the control plane waits slack times its predicted end-to-end
// offload time (upload + server execution + reply) before concluding the
// server is gone and re-executing locally. This is the fallback-only
// failure detector — deadline expiry, not heartbeats — and the reason
// fast recovery needs the monitor: a crash costs the client its remaining
// patience, not five milliseconds.
const deadlineSlack = 3

// shedNoticeBytes is the size of the admission-reject notification the
// client waits for before falling back locally.
const shedNoticeBytes = 64

// Completion outcome kinds carried by doneMsg.
const (
	outOffload  uint8 = iota // completed remotely
	outDecline               // contention-aware gate chose local
	outShed                  // admission control forced local fallback
	outFallback              // no viable server: ran locally
)

// doneMsg tells a client its request completed. It is the only message
// that crosses from the server-side machine back to client-side state.
type doneMsg struct {
	ci     int32
	kind   uint8
	tier   uint8 // completion tier of an offload (0 in a flat fleet)
	missed bool  // an offload's reply landed after its dispatch deadline
	decide simtime.PS
	done   simtime.PS
}

// Tier codes carried by job.tier and doneMsg.tier: zero means the flat
// (untiered) fleet, so the codes are the tiers.Tier values shifted by
// one.
const (
	tierEdge  = uint8(tiers.Edge) + 1
	tierCloud = uint8(tiers.Cloud) + 1
)

// intent is a client's decision instant crossing into the machine: one
// ready event's draws, priced over the client's own link. Everything the
// dispatch/gate path needs travels by value so the machine never touches
// client state.
type intent struct {
	t    simtime.PS
	tm   simtime.PS
	up   simtime.PS
	down simtime.PS
	rtt  simtime.PS
	mem  int64
	bw   int64
	job  int64 // logical JobID (client id x requests-per-client + ordinal)
	ci   int32
}

// machine is the fleet's state machine: the event queue and client table,
// the dispatcher, the Equation-1 gate, admission control, slots/queues and
// the fault/recovery plane. Run pops its queue in strict (t, lane, seq)
// order, so every mutation happens in an order fixed by the configuration
// alone.
type machine struct {
	cfg      *Config
	q        *schedQueue
	clients  []clientState
	servers  []*server
	disp     dispatcher
	backhaul *netsim.Link

	// all is the one dispatch pool of a flat fleet (nil when tiered).
	all *pool

	// Tiered-topology state (nil/empty in a flat fleet). wan and wanRTT
	// cache the topology's backhaul so the dispatch hot path never
	// re-materializes the link; edge/cloud are the per-tier pools the
	// dispatcher picks within.
	topo      *tiers.Topology
	wan       *netsim.Link
	wanRTT    simtime.PS // both fixed round-trip costs of the WAN leg
	edge      *pool
	cloud     *pool
	hWaitTier [2]*obs.Histogram
	mWaitTier [2]*obs.Histogram

	// Live admission bounds and gate margin: copies of cfg.Admission and
	// 1.0 under static control, steered by ctrl when adaptive.
	adm    Admission
	margin float64
	ctrl   *controller

	st    *Stats
	hWait *obs.Histogram
	mWait *obs.Histogram

	// samp is the tail sampler (nil unless Config.Exemplars > 0). Every
	// completion is delivered through the machine in event order, so the
	// retained exemplar set is deterministic.
	samp *sampler

	jobSeq int64
	free   []*job
}

func newMachine(cfg *Config, clients []clientState) *machine {
	servers := make([]*server, len(cfg.Servers))
	for i, spec := range cfg.Servers {
		servers[i] = &server{spec: spec}
	}
	m := &machine{
		cfg:      cfg,
		q:        newSchedQueue(len(clients) + len(servers)),
		clients:  clients,
		servers:  servers,
		disp:     dispatcher{policy: cfg.Policy, rng: entityStream(cfg.Seed, dispatcherEntity)},
		backhaul: netsim.Backhaul(),
		adm:      cfg.Admission,
		margin:   1,
		st:       NewStats(),
		hWait:    obs.NewHistogram(),
		mWait:    cfg.Metrics.Histogram("lat.queue_wait_ps"),
		samp:     newSampler(cfg),
	}
	if cfg.Adaptive.Enabled {
		m.ctrl = newController(cfg.Adaptive, cfg.Admission)
		m.adm = Admission{MaxQueue: m.ctrl.queue, MaxWait: m.ctrl.wait}
		m.margin = m.ctrl.margin
	}
	if cfg.Tiers != nil {
		m.topo = cfg.Tiers
		m.wan = m.topo.WAN()
		m.wanRTT = 2 * (m.wan.Latency + m.wan.PerMessage)
		m.edge = newPool(servers, span(m.topo.Indices(tiers.Edge)))
		m.cloud = newPool(servers, span(m.topo.Indices(tiers.Cloud)))
		m.hWaitTier = [2]*obs.Histogram{obs.NewHistogram(), obs.NewHistogram()}
		m.mWaitTier = [2]*obs.Histogram{
			cfg.Metrics.Histogram("lat.queue_wait_edge_ps"),
			cfg.Metrics.Histogram("lat.queue_wait_cloud_ps"),
		}
	} else {
		m.all = newPool(servers, span(0, len(servers)))
	}
	return m
}

// span lists the indices [lo, hi).
func span(lo, hi int) []int {
	idx := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		idx = append(idx, i)
	}
	return idx
}

// scheduleFaults seeds the server-fault timeline. Crash and drain are
// events; slowdowns and stalls are consulted lazily when jobs start.
func (m *machine) scheduleFaults() {
	if !m.cfg.ServerFaults.Active() {
		return
	}
	for _, fe := range m.cfg.ServerFaults.Events {
		if fe.Server >= len(m.servers) {
			continue
		}
		switch fe.Kind {
		case faults.Crash:
			m.sched(fe.Start, evCrash, int32(fe.Server), nil)
		case faults.Drain:
			m.sched(fe.Start, evDrain, int32(fe.Server), nil)
		}
	}
}

// sched queues an event on server si's lane, which follows every client
// lane.
func (m *machine) sched(t simtime.PS, kind uint8, si int32, j *job) {
	m.q.sched(t, kind, int32(len(m.clients))+si, si, j)
}

func (m *machine) recordWait(si int32, w simtime.PS) {
	m.hWait.Record(int64(w))
	m.mWait.Record(int64(w))
	if m.topo != nil {
		t := m.topo.TierOf(int(si))
		m.hWaitTier[t].Record(int64(w))
		m.mWaitTier[t].Record(int64(w))
	}
}

// newJob hands out a job from the free list. Jobs recycle once no event
// or server slice can still reference them, so a million-client run
// reuses a working set of a few thousand instead of allocating per
// request.
func (m *machine) newJob() *job {
	if n := len(m.free); n > 0 {
		j := m.free[n-1]
		m.free = m.free[:n-1]
		return j
	}
	return &job{}
}

func (m *machine) freeJob(j *job) {
	*j = job{}
	m.free = append(m.free, j)
}

// complete finalizes a job's span record, feeds the tail sampler, and
// delivers the completion to the owning client: the outcome is tallied
// and the client's next ready event is scheduled one think time later.
// Every terminal path of a job funnels through here, so the sampler
// observes each logical request exactly once, in event order.
func (m *machine) complete(r *jobRec, msg doneMsg) {
	if r != nil {
		r.out = msg.kind
		r.tier = msg.tier
		r.missed = msg.missed
		r.done = msg.done
		m.samp.observe(r, m.cfg.Tracer)
	}
	m.st.Events++
	m.st.record(msg)
	next := msg.done + nextThink(m.cfg, &m.clients[msg.ci], msg.done)
	m.q.sched(next, evReady, msg.ci, 0, nil)
}

// stepCtrl advances the adaptive controller across any period boundaries
// up to now. It runs from the handlers in global event order, so the
// control trajectory is deterministic.
func (m *machine) stepCtrl(now simtime.PS) {
	c := m.ctrl
	if c == nil {
		return
	}
	for now >= c.next {
		busy, slots := 0, 0
		for _, s := range m.servers {
			if s.down {
				continue
			}
			busy += s.busy
			slots += s.spec.Slots
		}
		c.step(busy, slots)
		c.next += c.cfg.Period
		m.adm = Admission{MaxQueue: c.queue, MaxWait: c.wait}
		m.margin = c.margin
	}
}

// handleIntent runs a client's decision instant: pick a server, price the
// offload with the contention-aware gate, dispatch or send the client
// down the local path.
func (m *machine) handleIntent(in intent) {
	if m.topo != nil {
		m.handleIntentTiered(in)
		return
	}
	m.stepCtrl(in.t)
	m.st.Events++
	now := in.t
	si, wait := m.disp.pickAmong(m.servers, m.all, now, in.tm, in.up, in.down)
	if si < 0 {
		// The whole pool is down or draining: nothing to offload to.
		m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KGate, Track: obs.TrackFleet,
			Name: "pool-down", A0: int64(in.tm), A1: in.mem, Job: in.job})
		r := m.samp.rec(in.job, in)
		r.mark(now+in.tm, segLocal, -1)
		m.complete(r, doneMsg{ci: in.ci, kind: outFallback, decide: now, done: now + in.tm})
		return
	}
	srv := m.servers[si]
	// The dynamic gate: Equation 1 against the picked server's speed.
	// Only the est-aware policy extends it with the live queueing-delay
	// signal (the contention-aware gate); the naive policies keep the
	// paper's load-blind gate, assuming a dedicated server — which is
	// exactly what overruns queues and triggers admission sheds under
	// heavy traffic. The margin scales the charged delay when adaptive
	// control has learned the raw signal under-prices contention.
	gateWait := simtime.PS(0)
	if m.cfg.Policy == EstAware {
		gateWait = wait
	}
	p := estimate.Params{R: srv.spec.R, BandwidthBps: in.bw, RTT: in.rtt}
	if !p.ProfitableQueuedMargin(in.tm, in.mem, gateWait, m.margin) {
		m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KGate, Track: obs.TrackFleet,
			Name: "decline", A0: int64(in.tm), A1: in.mem, A2: in.bw, A3: int64(wait), Job: in.job})
		r := m.samp.rec(in.job, in)
		r.mark(now+in.tm, segLocal, -1)
		m.complete(r, doneMsg{ci: in.ci, kind: outDecline, decide: now, done: now + in.tm})
		return
	}
	m.st.Dispatched++
	m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KDispatch, Track: obs.TrackFleet,
		Name: string(m.cfg.Policy), A0: int64(in.ci), A1: int64(si),
		A2: int64(len(srv.queue)), A3: int64(wait), Job: in.job})
	exec := srv.spec.execTime(in.tm)
	m.jobSeq++
	j := m.newJob()
	*j = job{id: in.job, rec: m.samp.rec(in.job, in), pend: segUplink,
		client: in.ci, tm: in.tm, mem: in.mem, exec: exec,
		decide: now, down: in.down, seq: m.jobSeq,
		deadline: now + simtime.PS(deadlineSlack*float64(in.up+exec+in.down))}
	srv.reserve(j.exec)
	m.sched(now+in.up, evArrive, int32(si), j)
}

// handleIntentTiered is handleIntent over the hierarchical topology:
// one est-aware pick *within* each tier yields that tier's best server
// and live queue delay, and estimate.Placement arbitrates the 3-way
// {local, edge, cloud} race with each tier priced on its own network
// path — the access link alone for the edge, access plus WAN leg in
// series for the cloud. The topology's mode masks tiers to degenerate
// into the static edge-only / cloud-only baselines the experiments
// compare against; the local gate always stays live.
func (m *machine) handleIntentTiered(in intent) {
	m.stepCtrl(in.t)
	m.st.Events++
	now := in.t
	mode := m.topo.EffectiveMode()
	wanLeg := m.wan.TransferTime(in.mem)

	var edge, cloud estimate.TierOption
	ei, ci := -1, -1
	if mode != tiers.CloudOnly {
		var ew simtime.PS
		ei, ew = m.disp.pickAmong(m.servers, m.edge, now, in.tm, in.up, in.down)
		if ei >= 0 {
			edge = estimate.TierOption{OK: true,
				P:     estimate.Params{R: m.servers[ei].spec.R, BandwidthBps: in.bw, RTT: in.rtt},
				Queue: ew}
		}
	}
	if mode != tiers.EdgeOnly {
		var cw simtime.PS
		ci, cw = m.disp.pickAmong(m.servers, m.cloud, now, in.tm, in.up+wanLeg, in.down+wanLeg)
		if ci >= 0 {
			cloud = estimate.TierOption{OK: true,
				P: estimate.Params{R: m.servers[ci].spec.R,
					BandwidthBps: tiers.CombineBps(in.bw, m.wan.BandwidthBps),
					RTT:          in.rtt + m.wanRTT},
				Queue: cw}
		}
	}
	if ei < 0 && ci < 0 {
		m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KGate, Track: obs.TrackFleet,
			Name: "pool-down", A0: int64(in.tm), A1: in.mem, Job: in.job})
		r := m.samp.rec(in.job, in)
		r.mark(now+in.tm, segLocal, -1)
		m.complete(r, doneMsg{ci: in.ci, kind: outFallback, decide: now, done: now + in.tm})
		return
	}

	choice, est := estimate.PlacementMargin(in.tm, in.mem, edge, cloud, m.margin)
	si, wait := -1, simtime.PS(0)
	tier := uint8(0)
	up, down := in.up, in.down
	switch choice {
	case estimate.PlaceEdge:
		si, wait, tier = ei, edge.Queue, tierEdge
	case estimate.PlaceCloud:
		si, wait, tier = ci, cloud.Queue, tierCloud
		up += wanLeg
		down += wanLeg
	}
	m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KTierPlace, Track: obs.TrackFleet,
		Name: choice.String(), A0: int64(in.ci), A1: int64(si), A2: int64(est), A3: int64(wait),
		Job: in.job})
	if si < 0 {
		// Local won the 3-way race: no tier's RemoteTime beats Tm.
		r := m.samp.rec(in.job, in)
		r.mark(now+in.tm, segLocal, -1)
		m.complete(r, doneMsg{ci: in.ci, kind: outDecline, decide: now, done: now + in.tm})
		return
	}
	srv := m.servers[si]
	m.st.Dispatched++
	m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KDispatch, Track: obs.TrackFleet,
		Name: string(m.cfg.Policy), A0: int64(in.ci), A1: int64(si),
		A2: int64(len(srv.queue)), A3: int64(wait), Job: in.job})
	exec := srv.spec.execTime(in.tm)
	m.jobSeq++
	j := m.newJob()
	*j = job{id: in.job, rec: m.samp.rec(in.job, in), pend: segUplink,
		client: in.ci, tm: in.tm, mem: in.mem, exec: exec,
		decide: now, down: down, adown: in.down, tier: tier, seq: m.jobSeq,
		deadline: now + simtime.PS(deadlineSlack*float64(up+exec+down))}
	srv.reserve(j.exec)
	m.sched(now+up, evArrive, int32(si), j)
}

// handleArrive lands a dispatched request on its server: release the
// reservation, reroute off a dead server, run admission control, then
// start or enqueue.
func (m *machine) handleArrive(now simtime.PS, si int32, j *job) {
	m.stepCtrl(now)
	m.st.Events++
	s := m.servers[si]
	// The reservation materializes: the job is now visible in the queue
	// or a slot instead. This runs even when the server is down — a
	// reservation against a dead server is exactly the slot-accounting
	// leak the end-of-run invariant guards.
	s.unreserve(j.exec)
	// The transit that delivered this arrival (uplink, WAN ship, resend)
	// closes here.
	j.rec.mark(now, j.pend, -1)
	if s.down {
		// The request landed on a dead or draining server. With
		// migration support the fleet reroutes it to a survivor;
		// without, the client's deadline expires and it re-executes
		// locally.
		j.rec.fault()
		if m.cfg.Migrate && m.relocate(j, j.tm, now+detectDelay, now+detectDelay, segDetect) {
			m.st.Retried++
			m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KRetry, Track: obs.TrackFleet,
				Name: "redispatch", A0: int64(j.client), A1: int64(si), Job: j.id})
		} else if !m.cfg.Migrate {
			done := expire(j, now+detectDelay) + j.tm
			if r := j.rec; r != nil {
				r.mark(now+detectDelay, segDetect, -1)
				r.mark(done-j.tm, segDeadline, -1)
				r.mark(done, segLocal, -1)
			}
			m.complete(j.rec, doneMsg{ci: j.client, kind: outFallback, decide: j.decide,
				done: done})
		}
		m.freeJob(j)
		return
	}
	depth := len(s.queue)
	if depth > s.maxDepth {
		s.maxDepth = depth
	}
	// Admission control runs against the server's *actual* state at
	// arrival — decision-time estimates are already stale by one transfer
	// time, which is exactly how a thundering herd overruns a queue
	// bound. The bounds are m.adm, not cfg.Admission: under adaptive
	// control they move every period.
	if !j.recovery &&
		((m.adm.MaxQueue > 0 && depth >= m.adm.MaxQueue && s.busy >= s.spec.Slots) ||
			(m.adm.MaxWait > 0 && s.estWait(now) > m.adm.MaxWait)) {
		// A saturated edge demotes the arrival to the cloud tier instead
		// of shedding it, when the WAN detour still beats the local
		// fallback the shed would force.
		if j.tier == tierEdge && m.cfg.Migrate && m.topo.EffectiveMode() == tiers.ThreeWay {
			notice := m.clients[j.client].link.At(now).TransferTime(shedNoticeBytes)
			if m.demote(now, si, j, notice+j.tm, false) {
				m.freeJob(j)
				return
			}
		}
		m.ctrl.noteShed()
		m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KShed, Track: obs.TrackFleet,
			A0: int64(j.client), A1: int64(si), A2: int64(depth), Job: j.id})
		notice := m.clients[j.client].link.At(now).TransferTime(shedNoticeBytes)
		// Local fallback: the client hears the reject, then runs the
		// task itself.
		if r := j.rec; r != nil {
			r.server = si
			r.mark(now+notice, segNotice, si)
			r.mark(now+notice+j.tm, segLocal, -1)
		}
		m.complete(j.rec, doneMsg{ci: j.client, kind: outShed, decide: j.decide, done: now + notice + j.tm})
		m.freeJob(j)
		return
	}
	s.advance(now)
	if s.busy < s.spec.Slots {
		m.recordWait(si, 0)
		m.startJob(si, j, now)
	} else {
		// Late-binding demotion: the edge backlog this arrival would
		// queue behind can have overshot the decision-time estimate (a
		// diurnal burst lands faster than slots free). If the cloud now
		// beats staying by more than the WAN detour costs, push the
		// request down a tier instead of queueing it.
		if j.tier == tierEdge && !j.recovery && m.cfg.Migrate &&
			m.topo.EffectiveMode() == tiers.ThreeWay &&
			m.demote(now, si, j, s.estWait(now)+s.spec.execTime(j.tm)+j.adown, true) {
			m.freeJob(j)
			return
		}
		j.enq = now
		s.enqueue(j)
	}
}

// startJob moves a job into a slot of server si at instant t. A scheduled
// stall at t pushes the start to the window's end; a slowdown in effect
// then stretches the whole service time by its factor (coarse: the factor
// at start governs the job, window edges inside the service interval are
// not split).
func (m *machine) startJob(si int32, j *job, t simtime.PS) {
	fin := t + j.exec
	if p := m.cfg.ServerFaults; p.Active() {
		start := t
		if until, ok := p.StallUntil(int(si), start); ok {
			start = until
		}
		fin = start + simtime.PS(float64(j.exec)*p.SlowFactor(int(si), start))
	}
	m.servers[si].start(j, fin)
	m.sched(fin, evFinish, si, j)
}

// handleFinish completes a job: reply to the client, free the slot, pull
// the next queued job in.
func (m *machine) handleFinish(now simtime.PS, si int32, j *job) {
	m.stepCtrl(now)
	m.st.Events++
	if j.cancelled {
		// The server died mid-service; the slot and accounting were
		// released at the fault instant.
		m.freeJob(j)
		return
	}
	s := m.servers[si]
	s.advance(now)
	s.dropRunning(j)
	done := now + j.down
	missed := j.deadline > 0 && done > j.deadline
	m.ctrl.noteFinish(missed)
	fid := j.id
	if r := j.rec; r != nil {
		r.server = si
		r.mark(now, segRun, si)
		r.mark(done, segReply, -1)
	}
	m.complete(j.rec, doneMsg{ci: j.client, kind: outOffload, tier: j.tier, missed: missed, decide: j.decide, done: done})
	m.freeJob(j)
	if len(s.queue) > 0 && s.busy < s.spec.Slots {
		next := s.pop(m.cfg.Queue)
		wait := now - next.enq
		s.waitPS += wait
		m.recordWait(si, wait)
		next.rec.mark(now, segQueue, si)
		m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KQueue, Track: obs.TrackFleet,
			A0: int64(next.client), A1: int64(si), A2: int64(wait), Job: next.id})
		m.startJob(si, next, now)
	}
	// A drained edge queue is the promotion trigger: if the fleet is
	// tiered and this finish left an edge server with no backlog, scan the
	// cloud for the job that gains most from coming back over the WAN.
	// The gain test prices queueing at this server via estWaitAt, so the
	// scan is safe to run even while the slots themselves are still busy.
	if m.topo != nil && m.cfg.Migrate && m.topo.EffectiveMode() == tiers.ThreeWay &&
		!s.down && len(s.queue) == 0 && m.topo.TierOf(int(si)) == tiers.Edge {
		m.promote(now, si, fid)
	}
}

// expire is when a client without the control plane gives up on a dead
// server: not before its offload deadline runs out. The silent crash is
// indistinguishable from a slow queue until then.
func expire(j *job, at simtime.PS) simtime.PS {
	if j.deadline > at {
		return j.deadline
	}
	return at
}

// bestUp is the migration target chooser: est-aware placement over the
// surviving servers regardless of the dispatch policy, because moving a
// victim is a runtime mechanism, not a routing preference. Returns -1
// when no viable server remains.
func (m *machine) bestUp(at simtime.PS, remTm simtime.PS) int {
	best, bestTotal := -1, simtime.PS(0)
	for i, s := range m.servers {
		if s.down {
			continue
		}
		total := s.estWaitAt(at) + s.spec.execTime(remTm)
		if best < 0 || total < bestTotal {
			best, bestTotal = i, total
		}
	}
	return best
}

// relocate routes a victim job's remaining work (remTm, in mobile time)
// to the best surviving server, arriving at instant at, or sends the
// client down the local path when that is the better estimate. The
// recovery decision is the migration analogue of the Equation-1 gate:
// the victim is not forced remote — estimated completion at the best
// survivor (arrival + queueing + execution + reply) races full local
// re-execution starting at localAt, and the loser is dropped. With no
// survivor at all, local wins by default. The target's reservation
// mirrors a fresh dispatch, so slot accounting stays exact across
// failures. transit labels the span segment the recovery transfer
// charges (detect for in-flight reroutes, resend for crash re-uploads,
// wan.ship for checkpoint migrations).
func (m *machine) relocate(j *job, remTm simtime.PS, at, localAt simtime.PS, transit uint8) bool {
	ti := m.bestUp(at, remTm)
	down, tier := j.down, j.tier
	if ti >= 0 {
		if m.topo != nil {
			// Recompute the reply leg for the target's tier: an edge
			// survivor replies over the access link alone, a cloud one
			// adds the WAN leg.
			down, tier = j.adown, tierEdge
			if m.topo.TierOf(ti) == tiers.Cloud {
				down += m.wan.TransferTime(j.mem)
				tier = tierCloud
			}
		}
		t := m.servers[ti]
		remoteDone := at + t.estWaitAt(at) + t.spec.execTime(remTm) + down
		if remoteDone >= localAt+j.tm {
			ti = -1 // a loaded pool makes local re-execution the better recovery
		}
	}
	if ti < 0 {
		if r := j.rec; r != nil {
			r.mark(localAt, segDetect, -1)
			r.mark(localAt+j.tm, segLocal, -1)
		}
		m.complete(j.rec, doneMsg{ci: j.client, kind: outFallback, decide: j.decide, done: localAt + j.tm})
		return false
	}
	t := m.servers[ti]
	m.jobSeq++
	nj := m.newJob()
	*nj = job{id: j.id, rec: j.rec, pend: transit,
		client: j.client, tm: j.tm, mem: j.mem, exec: t.spec.execTime(remTm),
		decide: j.decide, down: down, adown: j.adown, tier: tier, seq: m.jobSeq, recovery: true}
	t.reserve(nj.exec)
	m.sched(at, evArrive, int32(ti), nj)
	return true
}

// demote forwards an edge arrival down to the cloud tier: the request's
// input state ships one WAN leg to the best cloud server instead of
// staying put. stay is the estimated time-from-now of the alternative
// the caller would otherwise take — local re-execution for an admission
// shed, queueing behind the edge backlog for a late-binding re-place.
// The demotion gate races the cloud completion (arrival + queueing +
// execution + WAN reply) against it; a voluntary move must additionally
// win by more than the ship time itself (the hysteresis that keeps
// marginal estimates from bouncing work across the WAN), while a
// shed-conversion only has to beat the fallback it replaces. Returns
// false to let the caller's normal path run.
func (m *machine) demote(now simtime.PS, si int32, j *job, stay simtime.PS, voluntary bool) bool {
	ship := m.wan.TransferTime(j.mem)
	at := now + ship
	ti, bestTotal := -1, simtime.PS(0)
	for _, ci := range m.cloud.members {
		s := m.servers[ci]
		if s.down {
			continue
		}
		total := s.estWaitAt(at) + s.spec.execTime(j.tm)
		if ti < 0 || total < bestTotal {
			ti, bestTotal = ci, total
		}
	}
	if ti < 0 {
		return false
	}
	down := j.adown + ship
	bar := now + stay
	if voluntary {
		bar -= ship
	}
	if at+bestTotal+down >= bar {
		return false
	}
	t := m.servers[ti]
	m.st.Demotions++
	m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KTierMigrate, Track: obs.TrackFleet,
		Name: "demote", A0: int64(j.client), A1: int64(si), A2: int64(ti), A3: int64(ship),
		Job: j.id})
	j.rec.migrate()
	m.jobSeq++
	nj := m.newJob()
	*nj = job{id: j.id, rec: j.rec, pend: segWanShip,
		client: j.client, tm: j.tm, mem: j.mem, exec: t.spec.execTime(j.tm),
		decide: j.decide, down: down, adown: j.adown, tier: tierCloud,
		seq: m.jobSeq, recovery: true, deadline: j.deadline}
	t.reserve(nj.exec)
	m.sched(at, evArrive, int32(ti), nj)
	return true
}

// promote pulls a running cloud job back to the freed edge slot on
// server ei: checkpoint on the cloud server, ship the state one WAN leg,
// resume mid-task on the edge — PR 7's drain migration machinery turned
// into a voluntary cross-tier move. The candidate maximizing the finish
// gain wins (ties by dispatch order), and the gain must exceed the ship
// time itself: the hysteresis that keeps a job from oscillating between
// tiers on marginal estimates. Promoted jobs carry recovery=true, so
// admission cannot demote them again — each offload crosses the WAN at
// most twice. trigger is the JobID whose completion freed the slot — the
// promoted job's causal parent in the span model.
func (m *machine) promote(now simtime.PS, ei int32, trigger int64) {
	e := m.servers[ei]
	var best *job
	bi, bestRunning := -1, false
	var bestGain simtime.PS
	consider := func(j *job, ci int, running bool, stay simtime.PS, remTm simtime.PS) {
		ship := m.wan.TransferTime(j.mem)
		at := now + ship
		move := at + e.estWaitAt(at) + e.spec.execTime(remTm) + j.adown
		gain := stay - move
		if gain <= ship {
			return
		}
		if best == nil || gain > bestGain || (gain == bestGain && j.seq < best.seq) {
			best, bi, bestRunning, bestGain = j, ci, running, gain
		}
	}
	for _, ci := range m.cloud.members {
		c := m.servers[ci]
		if c.down {
			continue
		}
		// Running jobs win only when the edge out-executes the cloud for
		// what remains (rare under cloud R > edge R); queued jobs win
		// whenever skipping the cloud backlog buys more than the WAN ship
		// — the common case the freed-slot trigger exists for.
		for _, j := range c.running {
			if j.cancelled || j.finish <= now {
				continue
			}
			remTm := simtime.PS(float64(j.finish-now) * c.spec.R)
			consider(j, ci, true, j.finish+j.down, remTm)
		}
		if c.busy >= c.spec.Slots {
			backlog := c.estWaitAt(now)
			for _, j := range c.queue {
				consider(j, ci, false, now+backlog+j.exec+j.down, j.tm)
			}
		}
	}
	if best == nil {
		return
	}
	c := m.servers[bi]
	remTm := best.tm
	if bestRunning {
		c.advance(now)
		c.dropRunning(best)
		best.cancelled = true // its scheduled evFinish fires as a no-op
		remTm = simtime.PS(float64(best.finish-now) * c.spec.R)
		best.rec.mark(now, segRun, int32(bi))
	} else {
		c.removeQueued(best)
		best.rec.mark(now, segQueue, int32(bi))
	}
	if r := best.rec; r != nil {
		r.parent = trigger
		r.migrated = true
	}
	ship := m.wan.TransferTime(best.mem)
	m.st.Promotions++
	m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KTierMigrate, Track: obs.TrackFleet,
		Name: "promote", A0: int64(best.client), A1: int64(bi), A2: int64(ei), A3: int64(ship),
		Job: best.id, Parent: trigger})
	m.jobSeq++
	nj := m.newJob()
	*nj = job{id: best.id, rec: best.rec, pend: segWanShip,
		client: best.client, tm: best.tm, mem: best.mem, exec: e.spec.execTime(remTm),
		decide: best.decide, down: best.adown, adown: best.adown, tier: tierEdge,
		seq: m.jobSeq, recovery: true, deadline: best.deadline}
	e.reserve(nj.exec)
	m.sched(now+ship, evArrive, ei, nj)
	if !bestRunning {
		m.freeJob(best)
	}
}

// handleCrash loses everything the server held: running jobs mid-service
// and queued input state alike. Slots and accounting release here; the
// already-scheduled evFinish events fire as tombstoned no-ops.
func (m *machine) handleCrash(now simtime.PS, si int32) {
	m.stepCtrl(now)
	m.st.Events++
	s := m.servers[si]
	s.advance(now)
	s.takeDown()
	m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KServerFault, Track: obs.TrackFleet,
		Name: "crash", A0: int64(si), A1: int64(len(s.running)), A2: int64(len(s.queue))})
	victims := s.clearSlots()
	for _, j := range victims {
		j.cancelled = true
	}
	victims = append(victims, s.clearQueue()...)
	for _, j := range victims {
		// State died with the server, so recovery is a full re-send:
		// the health monitor flags the crash after detectDelay and the
		// client re-uploads its snapshot to the relocation target (or
		// falls back locally). Without the monitor the crash is silent
		// — the client burns its whole offload deadline before giving
		// up and re-executing locally.
		if r := j.rec; r != nil {
			r.faulted = true
			// The work done (or waited) before the crash is lost time.
			if j.cancelled {
				r.mark(now, segRunLost, si)
			} else {
				r.mark(now, segQueueLost, si)
			}
		}
		reup := m.clients[j.client].link.At(now + detectDelay).TransferTime(j.mem)
		if m.cfg.Migrate {
			j.rec.mark(now+detectDelay, segDetect, -1)
			if m.relocate(j, j.tm, now+detectDelay+reup, now+detectDelay, segResend) {
				m.st.Retried++
				m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KRetry, Track: obs.TrackFleet,
					Name: "resend", A0: int64(j.client), A1: int64(si), Job: j.id})
			}
		} else {
			done := expire(j, now+detectDelay) + j.tm
			if r := j.rec; r != nil {
				r.mark(done-j.tm, segDeadline, -1)
				r.mark(done, segLocal, -1)
			}
			m.complete(j.rec, doneMsg{ci: j.client, kind: outFallback, decide: j.decide,
				done: done})
		}
		if !j.cancelled {
			// Queued victims have no pending events; running ones recycle
			// when their tombstoned evFinish fires.
			m.freeJob(j)
		}
	}
}

// handleDrain takes the server out of rotation gracefully.
func (m *machine) handleDrain(now simtime.PS, si int32) {
	m.stepCtrl(now)
	m.st.Events++
	s := m.servers[si]
	s.advance(now)
	s.takeDown()
	m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KServerFault, Track: obs.TrackFleet,
		Name: "drain", A0: int64(si), A1: int64(len(s.running)), A2: int64(len(s.queue))})
	if !m.cfg.Migrate {
		// Running jobs finish in place (a drain announces shutdown, it
		// does not kill state), but the queue is abandoned: each waiting
		// client falls back locally.
		for _, j := range s.clearQueue() {
			if r := j.rec; r != nil {
				r.faulted = true
				r.mark(now, segQueueLost, si)
				r.mark(now+detectDelay, segDetect, -1)
				r.mark(now+detectDelay+j.tm, segLocal, -1)
			}
			m.complete(j.rec, doneMsg{ci: j.client, kind: outFallback, decide: j.decide,
				done: now + detectDelay + j.tm})
			m.freeJob(j)
		}
		return
	}
	// Live migration: running jobs checkpoint and ship their dirty state
	// over the backhaul, resuming mid-task on the target — only the
	// *remaining* mobile-time travels. Queued jobs forward whole (they
	// had not started) without a client round trip.
	running := s.clearSlots()
	for _, j := range running {
		j.cancelled = true
	}
	for _, j := range running {
		remTm := simtime.PS(0)
		if j.finish > now {
			remTm = simtime.PS(float64(j.finish-now) * s.spec.R)
		}
		if r := j.rec; r != nil {
			r.faulted = true
			r.mark(now, segRun, si) // the partial run before the checkpoint
		}
		ship := m.backhaul.TransferTime(j.mem) + m.backhaul.Latency + m.backhaul.PerMessage
		if m.relocate(j, remTm, now+ship, now+detectDelay, segWanShip) {
			m.st.Migrations++
			j.rec.migrate()
			m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KMigrateShip, Track: obs.TrackFleet,
				A0: int64(j.client), A1: int64(si), A2: j.mem, A3: int64(ship), Job: j.id})
		}
	}
	for _, j := range s.clearQueue() {
		if r := j.rec; r != nil {
			r.faulted = true
			r.mark(now, segQueue, si) // the wait spent behind the drained backlog
		}
		ship := m.backhaul.TransferTime(j.mem) + m.backhaul.Latency + m.backhaul.PerMessage
		if m.relocate(j, j.tm, now+ship, now+detectDelay, segWanShip) {
			m.st.Retried++
			m.cfg.Tracer.Emit(obs.Event{Time: now, Kind: obs.KRetry, Track: obs.TrackFleet,
				Name: "forward", A0: int64(j.client), A1: int64(si), Job: j.id})
		}
		m.freeJob(j)
	}
}

// handleServerEvent dispatches one popped server-lane event.
func (m *machine) handleServerEvent(ev event) {
	switch ev.kind {
	case evArrive:
		m.handleArrive(ev.t, ev.si, ev.j)
	case evFinish:
		m.handleFinish(ev.t, ev.si, ev.j)
	case evCrash:
		m.handleCrash(ev.t, ev.si)
	case evDrain:
		m.handleDrain(ev.t, ev.si)
	}
}

// finishRun checks the end-of-run invariants and assembles the Result.
func (m *machine) finishRun(now simtime.PS) (*Result, error) {
	st := m.st
	for i, s := range m.servers {
		s.advance(now)
		// Slot-accounting invariants: every reservation must have
		// materialized or been released, and every occupied slot drained —
		// including on servers that died mid-service.
		if s.reserved != 0 {
			return nil, fmt.Errorf("fleet: server %d leaked %v of reservations at end of run", i, s.reserved)
		}
		if s.busy != 0 {
			return nil, fmt.Errorf("fleet: server %d ended with %d occupied slots", i, s.busy)
		}
	}
	if got := st.Offloads + st.Declines + st.Sheds + st.Fallbacks; got != st.Requests {
		return nil, fmt.Errorf("fleet: request accounting broken: %d completed of %d issued", got, st.Requests)
	}
	cfg := m.cfg
	res := &Result{
		Policy:         string(cfg.Policy),
		Queue:          cfg.Queue.String(),
		Clients:        cfg.Clients,
		Servers:        len(cfg.Servers),
		Seed:           cfg.Seed,
		Requests:       st.Requests,
		Offloads:       st.Offloads,
		Dispatched:     st.Dispatched,
		Declines:       st.Declines,
		Sheds:          st.Sheds,
		Fallbacks:      st.Fallbacks,
		Migrations:     st.Migrations,
		Retried:        st.Retried,
		DeadlineMisses: st.DeadlineMisses,
		Events:         st.Events,
	}
	res.QueueWait = m.hWait.Snapshot()
	res.E2E = st.E2E.Snapshot()
	if m.topo != nil {
		res.TierMode = string(m.topo.EffectiveMode())
		res.EdgeServers = m.topo.Edge.Servers
		res.CloudServers = m.topo.Cloud.Servers
		res.EdgeOffloads = st.EdgeOffloads
		res.CloudOffloads = st.CloudOffloads
		res.Promotions = st.Promotions
		res.Demotions = st.Demotions
		eh := m.hWaitTier[tiers.Edge].Snapshot()
		ch := m.hWaitTier[tiers.Cloud].Snapshot()
		res.QueueWaitEdge, res.QueueWaitCloud = &eh, &ch
	}
	res.finish(st.Latencies, m.servers, now)
	res.publish(cfg.Metrics, m.servers)
	if m.samp != nil {
		// Flush the retained exemplars' span trees last: the ring keeps
		// newest, so the trees survive whatever the live stream dropped.
		res.Exemplars = m.samp.flush(cfg.Tracer)
	}
	res.TraceDropped = cfg.Tracer.Dropped()
	cfg.Tracer.PublishDropped(cfg.Metrics)
	return res, nil
}
