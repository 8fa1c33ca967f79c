package fleet

import (
	"math"

	"repro/internal/simtime"
)

// noLoad fills every load-index entry with no live server behind it: a
// down server, a running count a server does not have, tree padding.
const noLoad = simtime.PS(math.MaxInt64)

// pool is one dispatch candidate set — the whole pool of a flat fleet,
// or one tier of a tiered one — with an exact index over its members'
// estimated waits, so the least-loaded and est-aware picks cost
// O(classes · log servers) instead of a scan of the pool.
//
// estWait(now) = (K − n·now)/Slots, where K = reserved + queExec + finSum
// and n = len(running). Within one speed class (one ServerSpec) and one
// running count n, the order of K does not depend on now, and integer
// division is monotone, so the smallest K has the smallest wait. Each
// class therefore keeps a segment tree over its servers in index order
// whose nodes hold minK[n] for n = 0..Slots; min_n (minK[n] − n·now)/Slots
// at a node is exactly the least estWait in its subtree. Every server
// belongs to exactly one pool, and every mutation of K, n or down ends in
// server.reindex, so the trees never lag the state estWait reads.
type pool struct {
	members []int // server indices, ascending
	classes []*classIndex
}

// classIndex is the segment tree over one speed class of a pool.
type classIndex struct {
	spec   ServerSpec
	srv    []int // server index of each leaf, ascending
	width  int   // entries per node: Slots + 1 running counts
	leaves int   // leaf count rounded up to a power of two
	// minK holds node i's minK[n] at i*width + n; node 1 is the root and
	// leaf l is node leaves + l.
	minK []simtime.PS
}

// newPool indexes the servers at members (ascending) as one pool and
// points each member at its leaf.
func newPool(servers []*server, members []int) *pool {
	p := &pool{members: members}
	bySpec := make(map[ServerSpec]*classIndex)
	for _, si := range members {
		s := servers[si]
		c := bySpec[s.spec]
		if c == nil {
			c = &classIndex{spec: s.spec, width: s.spec.Slots + 1}
			bySpec[s.spec] = c
			p.classes = append(p.classes, c)
		}
		s.cls, s.leaf = c, len(c.srv)
		c.srv = append(c.srv, si)
	}
	for _, c := range p.classes {
		c.leaves = 1
		for c.leaves < len(c.srv) {
			c.leaves *= 2
		}
		c.minK = make([]simtime.PS, 2*c.leaves*c.width)
		for i := range c.minK {
			c.minK[i] = noLoad
		}
	}
	for _, si := range members {
		servers[si].reindex()
	}
	return p
}

// set rewrites leaf l to hold k at running count n (nothing when down)
// and recomputes its ancestors, stopping at the first one unchanged.
func (c *classIndex) set(l int, k simtime.PS, n int, down bool) {
	w := c.width
	i := c.leaves + l
	row := c.minK[i*w : i*w+w]
	for x := range row {
		row[x] = noLoad
	}
	if !down {
		row[n] = k
	}
	for i >>= 1; i >= 1; i >>= 1 {
		p := c.minK[i*w : i*w+w]
		lo := c.minK[2*i*w : 2*i*w+w]
		hi := c.minK[(2*i+1)*w : (2*i+1)*w+w]
		changed := false
		for x := range p {
			if v := min(lo[x], hi[x]); v != p[x] {
				p[x], changed = v, true
			}
		}
		if !changed {
			return
		}
	}
}

// wait is the least estWait at now in node i's subtree; ok is false when
// the subtree holds no live server.
func (c *classIndex) wait(i int, now simtime.PS) (w simtime.PS, ok bool) {
	for n, k := range c.minK[i*c.width : i*c.width+c.width] {
		if k == noLoad {
			continue
		}
		if v := k - simtime.PS(n)*now; !ok || v < w {
			w, ok = v, true
		}
	}
	return w / simtime.PS(c.spec.Slots), ok
}

// best returns the lowest server index with the class's least estWait
// at now, and that wait; -1 when every server in the class is down.
// Descending left whenever the left subtree attains the root's wait
// yields the lowest index, the linear scan's tie-break.
func (c *classIndex) best(now simtime.PS) (int, simtime.PS) {
	root, ok := c.wait(1, now)
	if !ok {
		return -1, 0
	}
	i := 1
	for i < c.leaves {
		i *= 2
		if w, ok := c.wait(i, now); !ok || w != root {
			i++
		}
	}
	return c.srv[i-c.leaves], root
}

// least returns the live member minimizing the policy's cost, ties to
// the lowest index, and its estWait: estWait itself under LeastLoaded,
// up + estWait + execution + down under EstAware. The execution time is
// constant within a class, so each class's least-wait server is its
// candidate; -1 when every member is down.
func (p *pool) least(pol Policy, now, tm, up, down simtime.PS) (int, simtime.PS) {
	best, bestWait, bestCost := -1, simtime.PS(0), simtime.PS(0)
	for _, c := range p.classes {
		si, w := c.best(now)
		if si < 0 {
			continue
		}
		cost := w
		if pol == EstAware {
			cost = up + w + c.spec.execTime(tm) + down
		}
		if best < 0 || cost < bestCost || (cost == bestCost && si < best) {
			best, bestWait, bestCost = si, w, cost
		}
	}
	return best, bestWait
}
