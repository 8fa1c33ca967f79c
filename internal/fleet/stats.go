package fleet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// Stats is the raw tally a run accumulates while in flight: outcome
// counters, the latency population, and the end-to-end latency histogram.
type Stats struct {
	// Client-side outcome counters.
	Requests  int
	Offloads  int
	Declines  int
	Sheds     int
	Fallbacks int
	// DeadlineMisses counts offloads whose reply landed after the
	// dispatch-time deadline (local-path completions carry no deadline).
	DeadlineMisses int

	// Per-tier completion counters (tiered runs only; a completed
	// request counts on the tier it finished on).
	EdgeOffloads  int
	CloudOffloads int

	// Server-side counters.
	Dispatched int
	Migrations int
	Retried    int
	// Cross-tier moves (tiered runs only): Promotions pulled a running
	// cloud job back to a freed edge slot, Demotions forwarded a
	// saturated-edge arrival down to the cloud.
	Promotions int
	Demotions  int

	// Events counts state-machine transitions (every processed event,
	// decision intent, and delivered completion) — the work measure the
	// scale benchmarks report as events/sec.
	Events int64

	// Latencies is the end-to-end latency population (decision to result
	// in hand), one entry per completed request.
	Latencies []simtime.PS
	// E2E is the same population as a histogram.
	E2E *obs.Histogram
}

// NewStats returns an empty tally.
func NewStats() *Stats {
	return &Stats{E2E: obs.NewHistogram()}
}

// record tallies one completion message.
func (s *Stats) record(msg doneMsg) {
	lat := msg.done - msg.decide
	s.Latencies = append(s.Latencies, lat)
	s.E2E.Record(int64(lat))
	switch msg.kind {
	case outOffload:
		s.Offloads++
		switch msg.tier {
		case tierEdge:
			s.EdgeOffloads++
		case tierCloud:
			s.CloudOffloads++
		}
	case outDecline:
		s.Declines++
	case outShed:
		s.Sheds++
	default:
		s.Fallbacks++
	}
	if msg.missed {
		s.DeadlineMisses++
	}
}

// Result is the statistics of one fleet run. All fields are plain values
// derived deterministically from the Config, so two runs with the same
// seed marshal to byte-identical JSON.
type Result struct {
	Policy  string `json:"policy"`
	Queue   string `json:"queue"`
	Clients int    `json:"clients"`
	Servers int    `json:"servers"`
	Seed    uint64 `json:"seed"`

	// Requests = Offloads + Declines + Sheds + Fallbacks: every request
	// completes, remotely or down one of the local paths.
	Requests   int `json:"requests"`
	Offloads   int `json:"offloads"`   // completed remotely
	Dispatched int `json:"dispatched"` // sent toward a server (Offloads + Sheds)
	Declines   int `json:"declines"`   // contention-aware gate chose local
	Sheds      int `json:"sheds"`      // admission control forced local fallback
	Fallbacks  int `json:"fallbacks"`  // server fault with no viable recovery: ran locally

	// Fault-recovery traffic (requests here still complete remotely, so
	// they are already inside Offloads).
	Migrations int `json:"migrations"` // running jobs checkpoint-migrated off a drain
	Retried    int `json:"retried"`    // crash victims re-sent / queued jobs forwarded

	// Tiered-topology fields, populated only when Config.Tiers is set
	// (omitted from flat-fleet JSON so the committed BENCH_fleet.json
	// stays byte-identical).
	TierMode      string `json:"tier_mode,omitempty"`
	EdgeServers   int    `json:"edge_servers,omitempty"`
	CloudServers  int    `json:"cloud_servers,omitempty"`
	EdgeOffloads  int    `json:"edge_offloads,omitempty"`  // completed on the edge tier
	CloudOffloads int    `json:"cloud_offloads,omitempty"` // completed on the cloud tier
	Promotions    int    `json:"promotions,omitempty"`     // running cloud jobs pulled to a freed edge slot
	Demotions     int    `json:"demotions,omitempty"`      // saturated-edge arrivals forwarded to the cloud
	// Per-tier queue-wait distributions (ps), the tier split of QueueWait.
	QueueWaitEdge  *obs.HistSnapshot `json:"queue_wait_edge_hist,omitempty"`
	QueueWaitCloud *obs.HistSnapshot `json:"queue_wait_cloud_hist,omitempty"`

	// DeadlineMisses counts offloads whose reply landed after the
	// dispatch-time deadline — completions the client had already given
	// up on. The adaptive admission controller treats these as overruns.
	DeadlineMisses int `json:"deadline_misses"`
	// Events is the total state-machine transition count; events per
	// wall-clock second is the scale benchmark's throughput metric.
	Events int64 `json:"events"`

	// LocalRate is the fraction of requests that ran on the client
	// (gate declines plus admission sheds).
	LocalRate float64 `json:"local_rate"`
	// ThroughputRPS is completed requests per simulated second.
	ThroughputRPS float64 `json:"throughput_rps"`

	// End-to-end request latency (decision to result in hand), ms.
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
	MeanMs    float64 `json:"mean_ms"`
	GeomeanMs float64 `json:"geomean_ms"`

	// MakespanMs is when the last request completed.
	MakespanMs float64 `json:"makespan_ms"`
	// ServerUtilPct is per-server slot occupancy over the makespan.
	ServerUtilPct []float64 `json:"server_util_pct"`
	// MaxQueueDepth is the deepest run queue observed anywhere.
	MaxQueueDepth int `json:"max_queue_depth"`
	// AvgQueueWaitMs averages the queueing delay over jobs that waited.
	AvgQueueWaitMs float64 `json:"avg_queue_wait_ms"`
	// QueueWait is the full queue-wait distribution (ps): every dispatched
	// job records, jobs that start immediately record 0, so the quantiles
	// reflect what an arriving request actually experiences.
	QueueWait obs.HistSnapshot `json:"queue_wait_hist"`
	// E2E is the end-to-end latency distribution (ps) over every
	// completed request.
	E2E obs.HistSnapshot `json:"e2e_hist"`

	// TraceDropped surfaces the tracer ring's overwrite count, so a bench
	// JSON produced from a truncated trace says so (omitted when the trace
	// is complete or tracing is off — flat-fleet goldens stay byte-identical).
	TraceDropped int64 `json:"trace_dropped,omitempty"`
	// Exemplars are the tail sampler's retained jobs (Config.Exemplars > 0
	// only): per-job critical-path decompositions whose segments sum exactly
	// to the job's end-to-end latency.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// percentile returns the q-quantile (0..1) of sorted latencies by nearest
// rank.
func percentile(sorted []simtime.PS, q float64) simtime.PS {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// finish derives the aggregate fields from the raw latency population and
// final server states.
func (r *Result) finish(latencies []simtime.PS, servers []*server, makespan simtime.PS) {
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	r.P50Ms = percentile(latencies, 0.50).Millis()
	r.P99Ms = percentile(latencies, 0.99).Millis()
	var sum simtime.PS
	logSum := 0.0
	for _, l := range latencies {
		sum += l
		logSum += math.Log(l.Millis())
	}
	if n := len(latencies); n > 0 {
		r.MeanMs = (sum / simtime.PS(n)).Millis()
		r.GeomeanMs = math.Exp(logSum / float64(n))
	}
	if r.Requests > 0 {
		r.LocalRate = float64(r.Declines+r.Sheds+r.Fallbacks) / float64(r.Requests)
	}
	if makespan > 0 {
		r.ThroughputRPS = float64(len(latencies)) / makespan.Seconds()
	}
	r.MakespanMs = makespan.Millis()
	var waited simtime.PS
	queued := 0
	for _, s := range servers {
		cap := simtime.PS(int64(s.spec.Slots) * int64(makespan))
		util := 0.0
		if cap > 0 {
			util = 100 * float64(s.busyPS) / float64(cap)
		}
		r.ServerUtilPct = append(r.ServerUtilPct, math.Round(util*100)/100)
		if s.maxDepth > r.MaxQueueDepth {
			r.MaxQueueDepth = s.maxDepth
		}
		waited += s.waitPS
		queued += s.served
	}
	if queued > 0 {
		r.AvgQueueWaitMs = (waited / simtime.PS(queued)).Millis()
	}
}

// publish exposes the run's gauges on a metrics registry (no-op on nil):
// shed rate, queue depth and per-server utilization, the fleet analogue of
// the session-level counters offrt publishes at Shutdown.
func (r *Result) publish(m *obs.Metrics, servers []*server) {
	if m == nil {
		return
	}
	m.Counter("fleet.requests").Set(int64(r.Requests))
	m.Counter("fleet.offloads").Set(int64(r.Offloads))
	m.Counter("fleet.dispatched").Set(int64(r.Dispatched))
	m.Counter("fleet.declines").Set(int64(r.Declines))
	m.Counter("fleet.sheds").Set(int64(r.Sheds))
	m.Counter("fleet.fallbacks").Set(int64(r.Fallbacks))
	m.Counter("fleet.migrations").Set(int64(r.Migrations))
	m.Counter("fleet.retried").Set(int64(r.Retried))
	if r.TierMode != "" {
		m.Counter("fleet.tier.edge_offloads").Set(int64(r.EdgeOffloads))
		m.Counter("fleet.tier.cloud_offloads").Set(int64(r.CloudOffloads))
		m.Counter("fleet.tier.promotions").Set(int64(r.Promotions))
		m.Counter("fleet.tier.demotions").Set(int64(r.Demotions))
	}
	m.Counter("fleet.shed_rate_milli").Set(int64(1000 * float64(r.Sheds) / float64(r.Requests)))
	m.Counter("fleet.queue_depth.max").Set(int64(r.MaxQueueDepth))
	m.Counter("fleet.queue_wait_ms.avg").Set(int64(r.AvgQueueWaitMs))
	for i, s := range servers {
		m.Counter(fmt.Sprintf("fleet.server.%d.util_milli", i)).Set(int64(10 * r.ServerUtilPct[i]))
		m.Counter(fmt.Sprintf("fleet.server.%d.served", i)).Set(int64(s.served))
	}
}
