package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"clustereval/internal/apps/scaling"
	"clustereval/internal/core"
	"clustereval/internal/des"
	"clustereval/internal/interconnect"
	"clustereval/internal/journal"
	"clustereval/internal/machine"
	"clustereval/internal/mpisim"
	"clustereval/internal/sched"
	"clustereval/internal/topology"
	"clustereval/internal/units"
)

// Sinks keep the probed calls' results live.
var (
	hopsSink int
	timeSink units.Seconds
)

// fugakuPartition is the node count the app models schedule onto on the
// fugaku preset (experiment caps Fugaku-scale machines to it).
const fugakuPartition = 6144

// perCall times calls of f in batches of batch calls and returns the
// median time per call and the heap allocations per call over all
// batches, rounded to a whole count: runtime.MemStats also counts the
// rare allocation of an idle background goroutine.
func perCall(batches, batch int, f func(i int)) (time.Duration, float64) {
	times := make([]float64, 0, batches)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f(b*batch + i)
		}
		times = append(times, float64(time.Since(t0).Nanoseconds())/float64(batch))
	}
	runtime.ReadMemStats(&after)
	calls := float64(batches * batch)
	return time.Duration(median(times)), math.Round(float64(after.Mallocs-before.Mallocs) / calls)
}

// fabrics the app models build: CTE-Arm's 192-node TofuD and the 6144-node
// Fugaku partition.
func probeFabrics() (arm, fug *interconnect.Fabric, err error) {
	arm, err = interconnect.New(machine.CTEArm(), machine.CTEArm().Nodes)
	if err != nil {
		return nil, nil, err
	}
	m, ok := machine.Preset("fugaku")
	if !ok {
		return nil, nil, fmt.Errorf("no fugaku preset")
	}
	m.Nodes = fugakuPartition
	m.Topology.Dims, m.Topology.Wrap = nil, nil
	fug, err = interconnect.New(m, fugakuPartition)
	return arm, fug, err
}

// runProbes calls each layer's public function directly, with inputs
// taken from the workloads, and reports the median per call and the
// allocations per call.
func runProbes(dir string, m metrics) error {
	arm, fug, err := probeFabrics()
	if err != nil {
		return err
	}

	// topology: (*Torus).Hops over node pairs of both tori.
	topos := []topology.Topology{arm.Topo, fug.Topo}
	for _, t := range topos {
		if _, ok := t.(*topology.Torus); !ok {
			return fmt.Errorf("probe: %s is not a torus", t.Name())
		}
	}
	d, allocs := perCall(50, 20000, func(i int) {
		t := topos[i&1]
		n := t.Nodes()
		hopsSink += t.Hops((i*7919)%n, (i*104729+13)%n)
	})
	m.set("topology.hops_ns", float64(d.Nanoseconds()), "ns")
	m.set("topology.hops_allocs", allocs, "count")

	// sched: TopologyAware placement at the node counts the sweeps request,
	// on a fresh scheduler per call as the app models do.
	for _, c := range []struct {
		name   string
		fab    *interconnect.Fabric
		counts []int
		reps   int
	}{
		{"cte-arm", arm, core.TableIVNodes(), 10},
		{"fugaku", fug, scaling.DoublingSweep(1, fugakuPartition), 1},
	} {
		var err error
		d, allocs := perCall(c.reps*len(c.counts), 1, func(i int) {
			n := c.counts[i%len(c.counts)]
			alloc, aerr := sched.New(c.fab.Topo, sched.TopologyAware, 1).Allocate(n)
			if aerr != nil || len(alloc) != n {
				err = fmt.Errorf("probe: allocating %d nodes on %s: %v", n, c.name, aerr)
			}
		})
		if err != nil {
			return err
		}
		m.set("sched.allocate_ms."+c.name, float64(d.Nanoseconds())/1e6, "ms")
		m.set("sched.allocate_allocs."+c.name, allocs, "count")
	}

	// interconnect: (*Fabric).MessageTime over Fig. 5's stream of ordered
	// node pairs, sizes 2^0..2^24 and trials 0..3.
	fig5, err := interconnect.NewTofuD(machine.CTEArm(), machine.CTEArm().Nodes)
	if err != nil {
		return err
	}
	nodes := fig5.Topo.Nodes()
	d, allocs = perCall(50, 20000, func(i int) {
		pair := i / 4
		src := pair % nodes
		dst := (src + 1 + pair/nodes%(nodes-1)) % nodes
		size := units.Bytes(int64(1) << (pair % 25))
		timeSink += fig5.MessageTime(src, dst, size, uint64(i%4))
	})
	m.set("interconnect.message_time_ns", float64(d.Nanoseconds()), "ns")
	m.set("interconnect.message_time_allocs", allocs, "count")

	// mpisim: a 4-value Allreduce on the CTE-Arm fabric, one World reused.
	for _, ranks := range []int{64, 512} {
		w, err := mpisim.NewWorld(fig5, ranks, 4)
		if err != nil {
			return err
		}
		var runErr error
		d, _ := perCall(15, 1, func(int) {
			if err := w.Run(func(c *mpisim.Comm) {
				data := []float64{float64(c.Rank()), 1, 2, 3}
				c.Allreduce(data, mpisim.OpSum, 32)
			}); err != nil {
				runErr = err
			}
		})
		if runErr != nil {
			return runErr
		}
		m.set(fmt.Sprintf("mpisim.allreduce_ms.r%d", ranks), float64(d.Nanoseconds())/1e6, "ms")
	}

	// des: event throughput of 64 processes doing 100 delays each.
	const procs, delays = 64, 100
	var desErr error
	d, _ = perCall(20, 1, func(int) {
		e := des.New()
		for p := 0; p < procs; p++ {
			phase := units.Seconds(float64(p%7) * 0.25)
			e.Spawn("churn", func(pr *des.Proc) {
				for k := 0; k < delays; k++ {
					pr.Delay(1 + phase)
				}
			})
		}
		if err := e.Run(); err != nil {
			desErr = err
		}
	})
	if desErr != nil {
		return desErr
	}
	m.set("des.events_per_s", procs*delays/d.Seconds(), "1/s")

	if err := probeJournal(dir, m); err != nil {
		return err
	}
	return nil
}

// probeJournal times (*Journal).Append of one fsynced submitted record
// and (*ReplicaStore).Ingest of one fsynced frame, the two writes on a
// fleet submit's path.
func probeJournal(dir string, m metrics) error {
	const n = 200
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spec, err := json.Marshal(map[string]any{"kind": "stream", "machine": "cte-arm", "seed": 7})
	if err != nil {
		return err
	}
	rec := func(i int) journal.Record {
		return journal.Record{Type: journal.TypeSubmitted, JobID: fmt.Sprintf("j%06d", i+1),
			At: time.Unix(0, 0).UTC(), Spec: spec, Key: fmt.Sprintf("%064d", i)}
	}

	j, _, err := journal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	appendUS := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := j.Append(rec(i)); err != nil {
			j.Close()
			return err
		}
		appendUS = append(appendUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := j.Close(); err != nil {
		return err
	}

	store, err := journal.OpenReplicaStore(filepath.Join(dir, "replica"))
	if err != nil {
		return err
	}
	ingestUS := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := store.Ingest([]journal.Frame{{Src: "s0", Seq: uint64(i + 1), Rec: rec(i)}}); err != nil {
			store.Close()
			return err
		}
		ingestUS = append(ingestUS, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	if err := store.Close(); err != nil {
		return err
	}
	m.set("journal.append_fsync_us.p50", quantile(appendUS, 0.5), "us")
	m.set("journal.append_fsync_us.p99", quantile(appendUS, 0.99), "us")
	m.set("replication.ingest_us.p50", quantile(ingestUS, 0.5), "us")
	m.set("replication.ingest_us.p99", quantile(ingestUS, 0.99), "us")
	return nil
}
