package sched

import (
	"testing"

	"clustereval/internal/topology"
)

func tofu(t *testing.T) *topology.Torus {
	t.Helper()
	tp, err := topology.NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func TestAllocateBasics(t *testing.T) {
	s := New(tofu(t), TopologyAware, 1)
	alloc, err := s.Allocate(16)
	if err != nil {
		t.Fatal(err)
	}
	if len(alloc) != 16 {
		t.Fatalf("allocated %d nodes", len(alloc))
	}
	seen := map[int]bool{}
	for _, n := range alloc {
		if n < 0 || n >= 192 || seen[n] {
			t.Fatalf("bad allocation %v", alloc)
		}
		seen[n] = true
	}
	if s.FreeNodes() != 176 {
		t.Errorf("free = %d, want 176", s.FreeNodes())
	}
}

func TestAllocateErrors(t *testing.T) {
	s := New(tofu(t), TopologyAware, 1)
	if _, err := s.Allocate(0); err == nil {
		t.Error("zero-size job accepted")
	}
	if _, err := s.Allocate(-4); err == nil {
		t.Error("negative job accepted")
	}
	if _, err := s.Allocate(193); err == nil {
		t.Error("oversized job accepted")
	}
	// Fill the machine, then one more must fail.
	if _, err := s.Allocate(192); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Allocate(1); err == nil {
		t.Error("allocation from a full machine accepted")
	}
}

func TestReleaseCycle(t *testing.T) {
	s := New(tofu(t), LinearFirstFit, 1)
	a, _ := s.Allocate(100)
	b, _ := s.Allocate(92)
	if s.FreeNodes() != 0 {
		t.Fatal("machine should be full")
	}
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	if s.FreeNodes() != 100 {
		t.Errorf("free = %d", s.FreeNodes())
	}
	// Double release fails and changes nothing.
	if err := s.Release(a); err == nil {
		t.Error("double release accepted")
	}
	if s.FreeNodes() != 100 {
		t.Error("failed release mutated occupancy")
	}
	if err := s.Release([]int{-1}); err == nil {
		t.Error("invalid node release accepted")
	}
	if err := s.Release(b); err != nil {
		t.Fatal(err)
	}
	if s.FreeNodes() != 192 {
		t.Errorf("free = %d after full release", s.FreeNodes())
	}
}

func TestNoDoubleAllocation(t *testing.T) {
	s := New(tofu(t), Random, 7)
	seen := map[int]bool{}
	for i := 0; i < 12; i++ {
		alloc, err := s.Allocate(16)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range alloc {
			if seen[n] {
				t.Fatalf("node %d allocated twice", n)
			}
			seen[n] = true
		}
	}
}

func TestTopologyAwareBeatsRandom(t *testing.T) {
	topo := tofu(t)
	ta := New(topo, TopologyAware, 1)
	rnd := New(topo, Random, 1)
	for _, jobSize := range []int{8, 16, 48} {
		aT, err := ta.Allocate(jobSize)
		if err != nil {
			t.Fatal(err)
		}
		aR, err := rnd.Allocate(jobSize)
		if err != nil {
			t.Fatal(err)
		}
		hT := AvgPairwiseHops(topo, aT)
		hR := AvgPairwiseHops(topo, aR)
		if hT >= hR {
			t.Errorf("job %d: topology-aware hops %.2f not better than random %.2f",
				jobSize, hT, hR)
		}
		ta.Release(aT)
		rnd.Release(aR)
	}
}

func TestTopologyAwareOnFragmentedMachine(t *testing.T) {
	topo := tofu(t)
	s := New(topo, TopologyAware, 3)
	// Fragment: allocate and release alternating chunks.
	a, _ := s.Allocate(64)
	b, _ := s.Allocate(64)
	s.Release(a)
	// A new job must still get a sensible allocation from the holes.
	c, err := s.Allocate(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c {
		for _, bn := range b {
			if n == bn {
				t.Fatal("allocated a busy node")
			}
		}
	}
}

func TestLinearFirstFit(t *testing.T) {
	s := New(tofu(t), LinearFirstFit, 1)
	alloc, _ := s.Allocate(5)
	for i, n := range alloc {
		if n != i {
			t.Errorf("first-fit alloc = %v, want 0..4", alloc)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a1, _ := New(tofu(t), Random, 42).Allocate(16)
	a2, _ := New(tofu(t), Random, 42).Allocate(16)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("random policy not deterministic per seed")
		}
	}
}

func TestAvgPairwiseHopsEdge(t *testing.T) {
	topo := tofu(t)
	if AvgPairwiseHops(topo, []int{5}) != 0 {
		t.Error("single node should have 0 avg hops")
	}
	if AvgPairwiseHops(topo, nil) != 0 {
		t.Error("empty allocation should have 0 avg hops")
	}
}

func TestPolicyStrings(t *testing.T) {
	if TopologyAware.String() != "topology-aware" || Random.String() != "random" ||
		LinearFirstFit.String() != "linear-first-fit" {
		t.Error("policy names")
	}
}

func TestReleaseRejectsDuplicates(t *testing.T) {
	topo, err := topology.NewTofuD(24)
	if err != nil {
		t.Fatal(err)
	}
	s := New(topo, TopologyAware, 1)
	a, err := s.Allocate(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release([]int{a[0], a[0]}); err == nil {
		t.Fatal("release listing a node twice accepted")
	}
	if s.FreeNodes() != 22 {
		t.Fatalf("failed release changed occupancy: %d free, want 22", s.FreeNodes())
	}
	// A failure after some valid nodes must also undo those.
	if err := s.Release([]int{a[0], a[1], 99}); err == nil {
		t.Fatal("release of an invalid node accepted")
	}
	if _, err := s.Allocate(22); err != nil {
		t.Fatal(err)
	}
	if s.FreeNodes() != 0 {
		t.Fatalf("free = %d on a full machine", s.FreeNodes())
	}
	if alloc, err := s.Allocate(1); err == nil {
		t.Fatalf("allocation from a full machine returned %v", alloc)
	}
	if err := s.Release(a); err != nil {
		t.Fatal(err)
	}
	if s.FreeNodes() != 2 {
		t.Errorf("free = %d after releasing the first job, want 2", s.FreeNodes())
	}
}
