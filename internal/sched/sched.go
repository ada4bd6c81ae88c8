// Package sched models the cluster's batch scheduler. The paper notes that
// CTE-Arm's scheduler "is aware of the network topology and can allocate
// nodes for user jobs to exploit proximity and reduce the latency of
// messages" — this package implements that policy (greedy hop-distance
// clustering) alongside a random baseline, so experiments can quantify what
// topology-aware placement buys.
package sched

import (
	"fmt"
	"slices"
	"sort"

	"clustereval/internal/topology"
	"clustereval/internal/xrand"
)

// Policy selects the node-allocation strategy.
type Policy int

// Allocation policies.
const (
	// TopologyAware grows allocations around a seed node by hop distance.
	TopologyAware Policy = iota
	// Random scatters the job across free nodes uniformly.
	Random
	// LinearFirstFit takes the lowest-indexed free nodes.
	LinearFirstFit
)

func (p Policy) String() string {
	switch p {
	case TopologyAware:
		return "topology-aware"
	case Random:
		return "random"
	default:
		return "linear-first-fit"
	}
}

// Scheduler tracks node occupancy of one cluster and hands out allocations.
type Scheduler struct {
	topo   topology.Topology
	policy Policy
	busy   []bool
	nBusy  int
	rng    *xrand.Rand
}

// New creates a scheduler over the topology with the given policy; seed
// drives the Random policy deterministically.
func New(topo topology.Topology, policy Policy, seed uint64) *Scheduler {
	return &Scheduler{
		topo:   topo,
		policy: policy,
		busy:   make([]bool, topo.Nodes()),
		rng:    xrand.New(seed),
	}
}

// FreeNodes returns how many nodes are currently unallocated.
func (s *Scheduler) FreeNodes() int { return len(s.busy) - s.nBusy }

// Allocate reserves n nodes and returns their indices (sorted). It fails
// when the cluster does not have n free nodes.
func (s *Scheduler) Allocate(n int) ([]int, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sched: job size %d must be positive", n)
	}
	if n > s.FreeNodes() {
		return nil, fmt.Errorf("sched: job needs %d nodes, only %d free", n, s.FreeNodes())
	}
	var alloc []int
	switch s.policy {
	case LinearFirstFit:
		alloc = s.allocateLinear(n)
	case Random:
		alloc = s.allocateRandom(n)
	default:
		alloc = s.allocateTopology(n)
	}
	for _, node := range alloc {
		s.busy[node] = true
	}
	s.nBusy += n
	sort.Ints(alloc)
	return alloc, nil
}

// Place is topology-aware placement of an n-node job on an empty
// machine: Allocate(n) on a fresh TopologyAware scheduler over topo. The
// application models place every sweep point this way.
func Place(topo topology.Topology, n int) ([]int, error) {
	return New(topo, TopologyAware, 1).Allocate(n)
}

func (s *Scheduler) allocateLinear(n int) []int {
	alloc := make([]int, 0, n)
	for i := 0; i < len(s.busy) && len(alloc) < n; i++ {
		if !s.busy[i] {
			alloc = append(alloc, i)
		}
	}
	return alloc
}

func (s *Scheduler) allocateRandom(n int) []int {
	free := make([]int, 0, s.FreeNodes())
	for i, b := range s.busy {
		if !b {
			free = append(free, i)
		}
	}
	perm := s.rng.Perm(len(free))
	alloc := make([]int, n)
	for i := 0; i < n; i++ {
		alloc[i] = free[perm[i]]
	}
	return alloc
}

// allocateTopology grows the job around the free node whose neighbourhood
// is densest: it tries each free node as a seed (every len(free)/48-th one
// once more than 48 nodes are free, so fewer than 96 seeds: 95 at 95 free
// nodes, 50 at 100, 48 on the 6144-node partition), costs the seed by the
// summed hop distance of its n nearest free nodes, ties broken on node
// index, and keeps the cheapest seed. On equal cost the earlier seed wins.
//
// Hop distances are bounded by the diameter, so a seed is costed by
// counting selection over a histogram of distances instead of a sort. On
// an empty machine the histogram is the topology's closed-form HopCounts,
// so costing the seeds makes no Hops call at all; on a partly busy one
// each seed takes len(free) Hops calls. Either way the winning seed then
// takes one pass of len(free) Hops calls to build its allocation, and the
// call allocates a constant number of buffers, reused across seeds.
func (s *Scheduler) allocateTopology(n int) []int {
	free := make([]int, 0, s.FreeNodes())
	for i, b := range s.busy {
		if !b {
			free = append(free, i)
		}
	}
	seedStride := 1
	if len(free) > 48 {
		seedStride = len(free) / 48
	}
	hops := make([]int, len(free))
	hist := make([]int, s.topo.Diameter()+1)
	bestSeed, bestCost := -1, 0
	for si := 0; si < len(free); si += seedStride {
		if s.nBusy == 0 {
			s.topo.HopCounts(free[si], hist)
		} else {
			s.distances(free[si], free, hops, hist)
		}
		if cost, _, _ := nearest(hist, n); bestSeed < 0 || cost < bestCost {
			bestSeed, bestCost = free[si], cost
		}
	}
	s.distances(bestSeed, free, hops, hist)
	_, cut, atCut := nearest(hist, n)
	// free is ascending, so taking the first atCut nodes at the cut
	// distance breaks ties on node index.
	alloc := make([]int, 0, n)
	for i, node := range free {
		switch h := hops[i]; {
		case h < cut:
			alloc = append(alloc, node)
		case h == cut && atCut > 0:
			alloc = append(alloc, node)
			atCut--
		}
	}
	return alloc
}

// distances fills hops[i] with the hop distance from seed to free[i] and
// hist[h] with the number of free nodes at distance h.
func (s *Scheduler) distances(seed int, free, hops, hist []int) {
	clear(hist)
	for i, node := range free {
		h := s.topo.Hops(seed, node)
		hops[i] = h
		hist[h]++
	}
}

// nearest selects the n closest nodes from a distance histogram: every
// node nearer than cut, plus atCut of the nodes at distance cut. cost is
// their summed distance.
func nearest(hist []int, n int) (cost, cut, atCut int) {
	for h, count := range hist {
		if count >= n {
			return cost + h*n, h, n
		}
		cost += h * count
		n -= count
	}
	panic("sched: fewer free nodes than the job size")
}

// Release frees an allocation. It fails on nodes that are out of range,
// not allocated, or listed twice, leaving occupancy unchanged in that case.
func (s *Scheduler) Release(nodes []int) error {
	for i, node := range nodes {
		var err error
		switch {
		case node < 0 || node >= len(s.busy):
			err = fmt.Errorf("sched: release of invalid node %d", node)
		case !s.busy[node] && slices.Contains(nodes[:i], node):
			err = fmt.Errorf("sched: release lists node %d twice", node)
		case !s.busy[node]:
			err = fmt.Errorf("sched: release of free node %d", node)
		}
		if err != nil {
			// Undo this call's frees: the nodes before i were all busy.
			for _, done := range nodes[:i] {
				s.busy[done] = true
			}
			return err
		}
		s.busy[node] = false
	}
	s.nBusy -= len(nodes)
	return nil
}

// AvgPairwiseHops measures the quality of an allocation: the mean hop
// distance over all node pairs (0 for single-node jobs).
func AvgPairwiseHops(topo topology.Topology, alloc []int) float64 {
	if len(alloc) < 2 {
		return 0
	}
	sum, count := 0.0, 0
	for i := range alloc {
		for j := i + 1; j < len(alloc); j++ {
			sum += float64(topo.Hops(alloc[i], alloc[j]))
			count++
		}
	}
	return sum / float64(count)
}
