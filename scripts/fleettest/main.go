// Command fleettest is the fleet durability acceptance harness wired
// into `make crashtest` (and `make fleettest`): it builds clusterd and
// clusterfleet, starts a three-shard fleet, submits a mid-weight
// workload through the coordinator, SIGKILLs the busiest shard's child
// process mid-flight, and asserts that the supervisor restarts it with
// the same journal and that every job still reaches exactly one terminal
// state under its original fleet ID — no losses, no duplicates. It then
// restarts the whole fleet against the same journals and asserts the
// results survive, exercising the prefix-route fallback that keeps fleet
// IDs resolvable without coordinator persistence. It exits non-zero with
// a diagnostic on the first violated invariant.
package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"clustereval/scripts/internal/harness"
)

// jobCount is overridable through FLEETTEST_JOBS for the race-detector
// smoke lane, which trades workload size for instrumented builds.
var jobCount = harness.EnvInt("FLEETTEST_JOBS", 60)

func main() { harness.Main("fleettest", run) }

func run() error {
	dir, err := os.MkdirTemp("", "clusterfleet-test")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bins, err := harness.Build(dir, "clusterd", "clusterfleet")
	if err != nil {
		return err
	}
	clusterd, clusterfleet := bins[0], bins[1]
	fleetArgs := []string{
		"-addr", "127.0.0.1:0", "-bin", clusterd, "-shards", "3", "-data", filepath.Join(dir, "fleet-data"),
		"-workers", "2", "-queue", "128", "-probe-interval", "100ms",
	}
	threeLive := func(h harness.Health) bool { return h.LiveShards >= 3 }

	// Incarnation 1: run the workload, kill a shard mid-flight.
	fleet, base, err := harness.Start(clusterfleet, fleetArgs...)
	if err != nil {
		return err
	}
	defer fleet.Process.Kill()
	if err := harness.WaitHealthz(base, 30*time.Second, threeLive); err != nil {
		return err
	}

	ids := make([]string, 0, jobCount)
	seen := map[string]bool{}
	for i := 0; i < jobCount; i++ {
		// Distinct DES-backed network jobs, slow enough that the kill
		// lands while part of the workload is queued or running.
		spec := fmt.Sprintf(`{"kind":"net","size_bytes":%d,"iters":60,"src_node":0,"dst_node":%d}`,
			4096+i*512, 1+i%31)
		v, code, err := harness.Post(base+"/v1/jobs", spec)
		if err != nil {
			return fmt.Errorf("submitting job %d: %w", i, err)
		}
		if code != http.StatusAccepted && code != http.StatusOK {
			return fmt.Errorf("submitting job %d: HTTP %d", i, code)
		}
		if v.ID == "" || seen[v.ID] {
			return fmt.Errorf("job %d got duplicate or empty fleet ID %q", i, v.ID)
		}
		seen[v.ID] = true
		ids = append(ids, v.ID)
	}

	// Let part of the workload finish, then SIGKILL the shard with the
	// most jobs still in flight.
	if err := harness.WaitTerminal(base, ids, 10, 60*time.Second); err != nil {
		return fmt.Errorf("before kill: %w", err)
	}
	victim, pid, err := harness.BusiestShard(base, ids)
	if err != nil {
		return err
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		return fmt.Errorf("killing shard %s (pid %d): %w", victim, pid, err)
	}
	fmt.Printf("fleettest: shard %s (pid %d) killed mid-workload\n", victim, pid)

	// The supervisor must restart it with the same journal; every job
	// reaches exactly one terminal state under its original fleet ID.
	if err := harness.WaitTerminal(base, ids, jobCount, 180*time.Second); err != nil {
		return fmt.Errorf("after shard kill: %w", err)
	}
	for _, id := range ids {
		v, err := harness.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return fmt.Errorf("job %s lost across the shard kill: %w", id, err)
		}
		if v.State != "done" || len(v.Result) == 0 {
			return fmt.Errorf("job %s ended %q (%s), want done with a result", id, v.State, v.Error)
		}
	}
	metrics, err := harness.GetText(base + "/v1/metrics")
	if err != nil {
		return err
	}
	if strings.Contains(metrics, "fleet_shard_restarts_total 0\n") {
		return fmt.Errorf("supervisor reported no restarts after the kill")
	}
	if !strings.Contains(metrics, `clusterd_jobs_submitted_total{shard="`+victim+`"}`) {
		return fmt.Errorf("restarted shard %s missing from the merged exposition", victim)
	}
	fmt.Printf("fleettest: %d jobs done after shard %s was killed and restarted\n", jobCount, victim)

	// Graceful fleet stop, then incarnation 2 against the same journals:
	// every result must still resolve under its original fleet ID.
	if err := harness.Stop(fleet); err != nil {
		return err
	}
	fleet2, base2, err := harness.Start(clusterfleet, fleetArgs...)
	if err != nil {
		return fmt.Errorf("restarting fleet: %w", err)
	}
	defer fleet2.Process.Kill()
	if err := harness.WaitHealthz(base2, 30*time.Second, threeLive); err != nil {
		return fmt.Errorf("after fleet restart: %w", err)
	}
	if err := harness.WaitTerminal(base2, ids, jobCount, 120*time.Second); err != nil {
		return fmt.Errorf("after fleet restart: %w", err)
	}
	for _, id := range ids {
		v, err := harness.Get(base2 + "/v1/jobs/" + id)
		if err != nil {
			return fmt.Errorf("job %s lost across the fleet restart: %w", id, err)
		}
		if v.State != "done" || len(v.Result) == 0 {
			return fmt.Errorf("job %s ended %q (%s) after fleet restart, want done", id, v.State, v.Error)
		}
	}
	// The restarted fleet still takes fresh work.
	v, code, err := harness.Post(base2+"/v1/jobs", `{"kind":"net","size_bytes":2048,"iters":5,"dst_node":7}`)
	if err != nil || (code != http.StatusAccepted && code != http.StatusOK) {
		return fmt.Errorf("fresh submission after fleet restart: HTTP %d, %v", code, err)
	}
	if err := harness.WaitTerminal(base2, []string{v.ID}, 1, 30*time.Second); err != nil {
		return err
	}
	if err := harness.Stop(fleet2); err != nil {
		return err
	}
	fmt.Printf("fleettest: %d jobs intact across a full fleet restart\n", jobCount)
	return nil
}
