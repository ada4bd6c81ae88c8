package sched_test

import (
	"slices"
	"testing"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/core"
	"clustereval/internal/interconnect"
	"clustereval/internal/machine"
	"clustereval/internal/sched"
)

// fugakuPartition is the node count the app sweeps place onto on the
// fugaku preset.
const fugakuPartition = 6144

// TestAllocateOraclePresets carries TestAllocateOracle's empty-cluster
// check over to the preset machines' fabrics, through Place: every job
// size on the small machines, the Table IV counts and the doubling sweep
// on the large ones. It sits in the external test package because core
// imports sched.
func TestAllocateOraclePresets(t *testing.T) {
	every := func(nodes int) []int {
		sizes := make([]int, nodes)
		for i := range sizes {
			sizes[i] = i + 1
		}
		return sizes
	}
	sweep := slices.Concat(core.TableIVNodes(), scaling.DoublingSweep(1, fugakuPartition))
	slices.Sort(sweep)
	sweep = slices.Compact(sweep)
	for _, c := range []struct {
		m     machine.Machine
		nodes int
		sizes []int
	}{
		{machine.CTEArm(), 192, every(192)},
		{machine.ThunderX2(), 40, every(40)},
		{machine.MareNostrum4(), 3456, sweep},
		{machine.Fugaku(), fugakuPartition, sweep},
	} {
		fab, err := interconnect.New(c.m, c.nodes)
		if err != nil {
			t.Fatal(err)
		}
		topo := fab.Topo
		empty := make([]bool, c.nodes)
		for _, n := range c.sizes {
			got, err := sched.Place(topo, n)
			if n > c.nodes {
				if err == nil {
					t.Errorf("%s/%d nodes: Place(%d) = %v, want an error", c.m.Name, c.nodes, n, got)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if want := sched.RefAllocateTopology(topo, empty, n); !slices.Equal(got, want) {
				t.Fatalf("%s/%d nodes: Place(%d) = %v, oracle %v", c.m.Name, c.nodes, n, got, want)
			}
		}
	}
}
