package fleet

import (
	"repro/internal/simtime"
)

// Event kinds of the discrete-event state machine.
const (
	evReady  uint8 = iota // a client is ready to issue its next request
	evArrive              // an offload request reaches its server
	evFinish              // a server slot completes a job
	evCrash               // a scheduled server crash: in-flight state is lost
	evDrain               // a scheduled drain: the server stops taking work
)

// event is one scheduled occurrence. Its ordering key (t, lane, seq) is
// intrinsic to the simulation rather than an artifact of a global push
// counter: the lane is the entity the event belongs to (client id for
// ready events, clients+serverIndex for server-side events) and seq is
// the per-lane push ordinal. Equal-time events therefore tie-break by
// (lane, seq), not by whichever heap insertion happened first, so the
// schedule — and every stored Result digest — depends only on which
// entity did what, never on the interleaving of pushes across entities.
type event struct {
	t    simtime.PS
	j    *job
	lane int32
	seq  int32
	si   int32
	kind uint8
}

// before is the total event order (t, lane, seq).
func (a *event) before(b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// eventQueue is a plain binary min-heap over the (t, lane, seq) order.
// It replaces the old container/heap implementation: value-typed events
// avoid the interface boxing that allocated on every push, which matters
// when the pending set is hundreds of thousands of events.
type eventQueue struct {
	h []event
}

func (q *eventQueue) len() int    { return len(q.h) }
func (q *eventQueue) top() *event { return &q.h[0] }
func (q *eventQueue) empty() bool { return len(q.h) == 0 }

func (q *eventQueue) push(ev event) {
	q.h = append(q.h, ev)
	i := len(q.h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q.h[i].before(&q.h[p]) {
			break
		}
		q.h[i], q.h[p] = q.h[p], q.h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := q.h
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	q.h = h[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return ev
}

func (q *eventQueue) siftDown(i int) {
	h := q.h
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h[r].before(&h[c]) {
			c = r
		}
		if !h[c].before(&h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// schedQueue is an eventQueue that assigns per-lane push ordinals at
// push time: the scheduling front-end over every client and server lane.
type schedQueue struct {
	eventQueue
	seqs []int32
}

func newSchedQueue(lanes int) *schedQueue {
	return &schedQueue{seqs: make([]int32, lanes)}
}

func (q *schedQueue) sched(t simtime.PS, kind uint8, lane, si int32, j *job) {
	seq := q.seqs[lane]
	q.seqs[lane] = seq + 1
	q.push(event{t: t, lane: lane, seq: seq, si: si, kind: kind, j: j})
}
