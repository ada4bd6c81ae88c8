package sched

import (
	"slices"
	"sort"
	"testing"

	"clustereval/internal/topology"
	"clustereval/internal/xrand"
)

// refAllocateTopology is the sort-based placement allocateTopology
// replaced, kept as the oracle: its seed loop and nearestFrom, unchanged
// but for taking the topology as a parameter, sorting every free node by
// (hops, node) per seed.
func refAllocateTopology(topo topology.Topology, busy []bool, n int) []int {
	free := make([]int, 0, len(busy))
	for i, b := range busy {
		if !b {
			free = append(free, i)
		}
	}
	seedStride := 1
	if len(free) > 48 {
		seedStride = len(free) / 48
	}
	bestCost := -1.0
	var best []int
	for si := 0; si < len(free); si += seedStride {
		seed := free[si]
		cand, cost := refNearestFrom(topo, seed, free, n)
		if bestCost < 0 || cost < bestCost {
			best, bestCost = cand, cost
		}
	}
	sort.Ints(best)
	return best
}

// refNearestFrom returns the n free nodes closest to seed and the summed hop
// distance of the selection. Ties break on node index for determinism.
func refNearestFrom(topo topology.Topology, seed int, free []int, n int) ([]int, float64) {
	type nd struct{ node, hops int }
	ds := make([]nd, len(free))
	for i, f := range free {
		ds[i] = nd{node: f, hops: topo.Hops(seed, f)}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].hops != ds[j].hops {
			return ds[i].hops < ds[j].hops
		}
		return ds[i].node < ds[j].node
	})
	alloc := make([]int, n)
	cost := 0.0
	for i := 0; i < n; i++ {
		alloc[i] = ds[i].node
		cost += float64(ds[i].hops)
	}
	return alloc, cost
}

// oracleTopologies covers both topology kinds and the torus corner cases:
// TofuD at several sizes (48 and 96 nodes reach the strided seed sample),
// a mesh with no wrap, and a ring-only torus with size-1 and size-2
// dimensions, where wrap and mesh distances coincide.
func oracleTopologies(t *testing.T) []topology.Topology {
	t.Helper()
	var topos []topology.Topology
	for _, n := range []int{12, 24, 48, 96} {
		tf, err := topology.NewTofuD(n)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, tf)
	}
	mesh, err := topology.NewTorus("mesh", []int{5, 4, 3}, []bool{false, false, false})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topology.NewTorus("ring", []int{7, 1, 2, 5}, []bool{true, true, true, true})
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topology.NewFatTree(60, 24)
	if err != nil {
		t.Fatal(err)
	}
	return append(topos, mesh, ring, ft)
}

func TestAllocateOracle(t *testing.T) {
	for _, topo := range oracleTopologies(t) {
		nodes := topo.Nodes()
		// Exhaustive over job sizes on an empty cluster.
		for n := 1; n <= nodes; n++ {
			s := New(topo, TopologyAware, 1)
			want := refAllocateTopology(topo, s.busy, n)
			got, err := s.Allocate(n)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%d nodes: Allocate(%d) = %v, oracle %v", topo.Name(), nodes, n, got, want)
			}
		}

		// Seeded Allocate/Release sequences over partly busy clusters.
		r := xrand.New(uint64(nodes))
		s := New(topo, TopologyAware, 1)
		var live [][]int
		for step := 0; step < 200; step++ {
			if len(live) > 0 && (s.FreeNodes() == 0 || r.Intn(3) == 0) {
				i := r.Intn(len(live))
				if err := s.Release(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			n := 1 + r.Intn(s.FreeNodes())
			if n > 1 && r.Intn(2) == 0 {
				n = 1 + n/4
			}
			want := refAllocateTopology(topo, s.busy, n)
			got, err := s.Allocate(n)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%d nodes, step %d, %d free: Allocate(%d) = %v, oracle %v",
					topo.Name(), nodes, step, s.FreeNodes()+n, n, got, want)
			}
			live = append(live, got)
		}
	}
}

// TestAllocateAllocsIndependentOfSeeds pins the allocation count of a
// topology-aware Allocate: the buffers are reused across seeds, so 12, 24
// and 48 tried seeds cost the same number of heap allocations.
func TestAllocateAllocsIndependentOfSeeds(t *testing.T) {
	counts := map[int]float64{}
	for _, nodes := range []int{12, 24, 48} {
		topo, err := topology.NewTofuD(nodes)
		if err != nil {
			t.Fatal(err)
		}
		s := New(topo, TopologyAware, 1)
		counts[nodes] = testing.AllocsPerRun(20, func() {
			alloc, err := s.Allocate(6)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Release(alloc); err != nil {
				t.Fatal(err)
			}
		})
	}
	if counts[12] != counts[24] || counts[24] != counts[48] {
		t.Errorf("allocations per Allocate depend on the seed count: %v (by node count)", counts)
	}
}
