package fleet

import (
	"testing"

	"repro/internal/simtime"
)

// scanPick is the linear-scan dispatcher the load index replaced, kept
// as the differential oracle: it collects the live candidates, then
// draws among them (random, round-robin) or walks them for the least
// estWait (least-loaded) or the least up + estWait + execution + down
// (est-aware), ties to the first candidate.
func (d *dispatcher) scanPick(servers []*server, candidates []int, now, tm, up, down simtime.PS) (int, simtime.PS) {
	alive := make([]int, 0, len(candidates))
	for _, i := range candidates {
		if !servers[i].down {
			alive = append(alive, i)
		}
	}
	if len(alive) == 0 {
		return -1, 0
	}
	switch d.policy {
	case Random:
		i := alive[d.rng.intn(len(alive))]
		return i, servers[i].estWait(now)
	case RoundRobin:
		i := alive[d.rr%len(alive)]
		d.rr++
		return i, servers[i].estWait(now)
	case LeastLoaded:
		best, bestWait := alive[0], servers[alive[0]].estWait(now)
		for _, i := range alive[1:] {
			if w := servers[i].estWait(now); w < bestWait {
				best, bestWait = i, w
			}
		}
		return best, bestWait
	default: // EstAware
		best := alive[0]
		bestWait := servers[best].estWait(now)
		bestTotal := up + bestWait + servers[best].spec.execTime(tm) + down
		for _, i := range alive[1:] {
			w := servers[i].estWait(now)
			total := up + w + servers[i].spec.execTime(tm) + down
			if total < bestTotal {
				best, bestWait, bestTotal = i, w, total
			}
		}
		return best, bestWait
	}
}

// checkEveryPick holds every pick a run makes, until the test ends, to
// the scan oracle, so a load mutation that skipped its leaf update fails
// at the first decision it skews. It returns the pick counter.
func checkEveryPick(t *testing.T) *int {
	picks := new(int)
	pickCheck = func(pre dispatcher, servers []*server, p *pool, now, tm, up, down simtime.PS, si int, wait simtime.PS) {
		*picks++
		if wi, ww := pre.scanPick(servers, p.members, now, tm, up, down); wi != si || ww != wait {
			t.Fatalf("pick %d (%s at %v): index chose server %d (wait %v), scan chose %d (wait %v)",
				*picks, pre.policy, now, si, wait, wi, ww)
		}
	}
	t.Cleanup(func() { pickCheck = nil })
	return picks
}

// script hands out a byte string one value at a time, then zeros.
type script []byte

func (s *script) next() int {
	if len(*s) == 0 {
		return 0
	}
	v := (*s)[0]
	*s = (*s)[1:]
	return int(v)
}

// indexSpecs are the speed classes checkLoadIndex mixes: different R at
// equal Slots, equal R at different Slots, one slot through four.
var indexSpecs = []ServerSpec{{R: 6, Slots: 2}, {R: 3, Slots: 2}, {R: 6, Slots: 3}, {R: 8, Slots: 4}, {R: 2.5, Slots: 1}}

// indexCoverage counts the least-loaded picks, those whose least wait
// was positive (no idle member), and those where the winning wait was
// shared: by servers with equal K, or with K apart by less than Slots
// (equal after the division).
type indexCoverage struct{ picks, loaded, ties, floorTies int }

// checkLoadIndex drives up to 300 servers of mixed speed classes, in one
// pool or split across two, through the load mutations a run makes —
// reservations, queueing, slots, finishes, faults — under an advancing
// clock, all drawn from data. After every mutation it asks every pool
// for a pick under every policy and requires the server and wait the
// scan oracle gives. Amounts come from a small palette, so exact-K ties
// and K values under Slots ps apart are common.
func checkLoadIndex(t *testing.T, data []byte) indexCoverage {
	t.Helper()
	sc := script(data)
	n := 1 + (sc.next()<<8|sc.next())%300
	classes := 1 + sc.next()%len(indexSpecs)
	servers := make([]*server, n)
	for i := range servers {
		servers[i] = &server{spec: indexSpecs[sc.next()%classes]}
	}
	var members [2][]int
	split := sc.next()%2 == 1
	for i := range servers {
		k := 0
		if split {
			k = sc.next() % 2
		}
		members[k] = append(members[k], i)
	}
	pools := []*pool{newPool(servers, members[0])}
	if split {
		pools = append(pools, newPool(servers, members[1]))
	}
	// One dispatcher pair per pool and policy: the index side and the
	// oracle side draw from identical streams.
	var idx, orc [2][4]dispatcher
	for pi := range pools {
		for k, pol := range Policies() {
			idx[pi][k] = dispatcher{policy: pol, rng: entityStream(uint64(pi), dispatcherEntity)}
			orc[pi][k] = idx[pi][k]
		}
	}

	amount := func() simtime.PS { return simtime.PS(sc.next()%4)*1000 + simtime.PS(sc.next()%4) }
	var now simtime.PS
	var seq int64
	var cov indexCoverage
	for step := 0; len(sc) > 0; step++ {
		s := servers[(sc.next()<<8|sc.next())%n]
		switch sc.next() % 10 {
		case 0:
			s.reserve(amount())
		case 1:
			s.unreserve(amount())
		case 2:
			seq++
			s.enqueue(&job{exec: amount(), seq: seq})
		case 3:
			if len(s.queue) > 0 {
				s.pop(Discipline(sc.next() % 2))
			}
		case 4:
			if len(s.queue) > 0 {
				s.removeQueued(s.queue[sc.next()%len(s.queue)])
			}
		case 5:
			if s.busy < s.spec.Slots {
				seq++
				s.start(&job{seq: seq}, now+amount())
			}
		case 6:
			if len(s.running) > 0 {
				s.dropRunning(s.running[sc.next()%len(s.running)])
			}
		case 7:
			// The clock advances and every job it passes finishes, as its
			// evFinish would: running jobs always have finish >= now.
			now += simtime.PS(sc.next()%4) * 250
			for _, r := range servers {
				for i := 0; i < len(r.running); {
					if j := r.running[i]; j.finish < now {
						r.dropRunning(j)
						continue
					}
					i++
				}
			}
		case 8:
			// The steps of a fault, each on its own: a crash takes the
			// server down and empties slots and queue, a drain without
			// migration empties only the queue.
			switch sc.next() % 16 {
			case 0:
				s.takeDown()
			case 1:
				s.clearSlots()
			case 2:
				s.clearQueue()
			}
		case 9:
			// An end-of-service instant: the job finishing exactly now
			// still counts as running, contributing zero.
			if s.busy < s.spec.Slots {
				seq++
				s.start(&job{seq: seq}, now)
			}
		}

		tm := simtime.PS(sc.next()%3) * 600
		up, down := simtime.PS(sc.next()%2)*50, simtime.PS(sc.next()%2)*50
		for pi, p := range pools {
			for k := range Policies() {
				si, w := idx[pi][k].pickAmong(servers, p, now, tm, up, down)
				oi, ow := orc[pi][k].scanPick(servers, p.members, now, tm, up, down)
				if si != oi || w != ow {
					t.Fatalf("step %d, pool %d (%d members), %s at %v: index chose %d (wait %v), scan chose %d (wait %v)",
						step, pi, len(p.members), idx[pi][k].policy, now, si, w, oi, ow)
				}
				if idx[pi][k].policy == LeastLoaded && si >= 0 {
					cov.picks++
					if w > 0 {
						cov.loaded++
					}
					cov.ties += countTies(servers, p.members, now, si, w, &cov.floorTies)
				}
			}
		}
	}
	return cov
}

// countTies reports whether a member other than the winner si shares
// its wait w, and bumps floorTies when one does with a different K−n·now.
func countTies(servers []*server, members []int, now simtime.PS, si int, w simtime.PS, floorTies *int) int {
	num := func(s *server) simtime.PS {
		return s.reserved + s.queExec + s.finSum - simtime.PS(len(s.running))*now
	}
	tie, floor := 0, false
	for _, i := range members {
		if s := servers[i]; i != si && !s.down && s.estWait(now) == w {
			tie = 1
			floor = floor || num(s) != num(servers[si])
		}
	}
	if floor {
		*floorTies++
	}
	return tie
}

// TestLoadIndexMatchesScan is the differential test of the load index
// against the scan it replaced, over seeded random scripts.
func TestLoadIndexMatchesScan(t *testing.T) {
	var cov indexCoverage
	for seed := uint64(1); seed <= 40; seed++ {
		r := entityStream(seed, 1)
		data := make([]byte, 6000)
		for i := range data {
			data[i] = byte(r.next())
		}
		if seed%2 == 0 {
			// A pool of at most 32 servers under the same number of
			// mutations runs loaded, not idle.
			data[0], data[1] = 0, byte(seed)
		}
		c := checkLoadIndex(t, data)
		cov.picks += c.picks
		cov.loaded += c.loaded
		cov.ties += c.ties
		cov.floorTies += c.floorTies
	}
	// The scripts must reach loaded pools and both kinds of tie.
	if cov.loaded == 0 || cov.ties == 0 || cov.floorTies == 0 {
		t.Fatalf("coverage: %d least-loaded picks, %d loaded, %d with tied waits, %d of them across different K",
			cov.picks, cov.loaded, cov.ties, cov.floorTies)
	}
	t.Logf("%d least-loaded picks: %d loaded, %d tied, %d floor ties", cov.picks, cov.loaded, cov.ties, cov.floorTies)
}

// FuzzLoadIndex runs checkLoadIndex on fuzzer-chosen scripts.
func FuzzLoadIndex(f *testing.F) {
	f.Add([]byte{0, 40, 4, 1, 0, 1, 2, 3, 0, 7, 9, 1, 2, 0, 5, 3, 3, 0, 1, 7, 2})
	f.Add([]byte{1, 44, 2, 0, 0, 3, 5, 1, 1, 0, 9, 0, 2, 6, 8, 8, 0, 0, 2, 7, 1, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkLoadIndex(t, data)
	})
}

// TestPickAllocatesNothing pins the allocation-free pick under every
// policy (the scan allocated an O(servers) candidate slice per pick).
func TestPickAllocatesNothing(t *testing.T) {
	servers := make([]*server, 64)
	for i, spec := range DefaultServers(len(servers)) {
		servers[i] = &server{spec: spec}
	}
	p := newPool(servers, span(0, len(servers)))
	servers[5].takeDown()
	for _, pol := range Policies() {
		d := dispatcher{policy: pol, rng: entityStream(1, dispatcherEntity)}
		if a := testing.AllocsPerRun(100, func() { d.pickAmong(servers, p, 0, simtime.Second, 0, 0) }); a != 0 {
			t.Errorf("%s: %.1f allocations per pick, want 0", pol, a)
		}
	}
}
