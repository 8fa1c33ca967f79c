package main

import (
	"sort"
	"time"
)

// span is one timed call into a layer: its name, the span that caused it
// (-1 for a root), and its interval as offsets from the log's epoch.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// spanLog keeps every span of a run in memory; the record written at the
// end of the run carries them all.
type spanLog struct {
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span under parent and returns its id.
func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{name: name, parent: parent, start: time.Since(l.epoch), end: -1})
	return len(l.spans) - 1
}

// finish closes span id.
func (l *spanLog) finish(id int) { l.spans[id].end = time.Since(l.epoch) }

// do runs f inside a span named name under parent.
func (l *spanLog) do(name string, parent int, f func()) {
	id := l.begin(name, parent)
	f()
	l.finish(id)
}

// selfByName sums, per span name, the self time of every span from index
// `from` on: a span's duration minus the part of its interval that its
// children cover. Overlapping children count once, and a child sticking
// out of its parent counts only inside it.
func selfByName(spans []span, from int) map[string]time.Duration {
	children := map[int][]int{}
	for i := from; i < len(spans); i++ {
		if p := spans[i].parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	out := map[string]time.Duration{}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		var iv [][2]time.Duration
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		out[s.name] += s.end - s.start - covered(iv)
	}
	return out
}

// covered returns the total length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			curHi = max(curHi, x[1])
		default:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

type spanJSON struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// export renders the log for the run record; nil for a nil log.
func (l *spanLog) export() []spanJSON {
	if l == nil {
		return nil
	}
	out := make([]spanJSON, len(l.spans))
	for i, s := range l.spans {
		out[i] = spanJSON{s.name, s.parent, int64(s.start), int64(s.end)}
	}
	return out
}
