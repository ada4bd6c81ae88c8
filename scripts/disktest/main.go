// Command disktest is the replication acceptance harness wired into
// `make disktest`: it builds clusterd and clusterfleet, starts a
// three-shard fleet with -replicas 2 -ack-quorum 2, pushes >=1000
// distinct jobs through the coordinator (retrying retryable verdicts the
// way a real client would), then destroys the busiest shard outright —
// rm -rf of its whole data directory (journal plus the replicas it held
// for others) followed by SIGKILL of its child. The supervisor must
// detect the disk loss, promote the follower's replica back into a
// primary journal and respawn the shard over it. The harness asserts
// that every acknowledged job still reaches exactly one terminal state
// under its original fleet ID — a lost disk loses nothing a quorum
// acknowledged — and that the revived fleet is whole: three live shards,
// a recorded promotion, recovered jobs on the victim, and fresh
// submissions completing. It exits non-zero with a diagnostic on the
// first violated invariant.
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

const (
	jobCount        = 1000
	terminalBefore  = 300 // jobs that must finish before the disk is destroyed
	submitAttempts  = 200 // retries per job on 429/503/transport errors
	submitRetryWait = 25 * time.Millisecond
)

func main() { harness.Main("disktest", run) }

func run() error {
	dir, err := os.MkdirTemp("", "clusterfleet-disktest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bins, err := harness.Build(dir, "clusterd", "clusterfleet")
	if err != nil {
		return err
	}
	clusterd, clusterfleet := bins[0], bins[1]
	data := filepath.Join(dir, "fleet-data")

	fleet, base, err := harness.Start(clusterfleet,
		"-addr", "127.0.0.1:0", "-bin", clusterd, "-shards", "3", "-data", data,
		"-replicas", "2", "-ack-quorum", "2",
		"-workers", "2", "-queue", "512", "-probe-interval", "100ms")
	if err != nil {
		return err
	}
	defer fleet.Process.Kill()
	threeLive := func(h harness.Health) bool { return h.LiveShards >= 3 }
	if err := harness.WaitHealthz(base, 30*time.Second, threeLive); err != nil {
		return err
	}

	// Submit the workload. Every verdict a real client would retry
	// (shed, quorum miss, transport blip) is retried here; only an
	// acknowledged ID joins the set the durability promise covers.
	ids := make([]string, 0, jobCount)
	seen := map[string]bool{}
	for i := 0; i < jobCount; i++ {
		spec := fmt.Sprintf(`{"kind":"net","size_bytes":%d,"iters":3,"src_node":0,"dst_node":%d}`,
			1024+i*64, 1+i%31)
		v, err := submitWithRetry(base, spec)
		if err != nil {
			return fmt.Errorf("submitting job %d: %w", i, err)
		}
		if v.ID == "" || seen[v.ID] {
			return fmt.Errorf("job %d got duplicate or empty fleet ID %q", i, v.ID)
		}
		seen[v.ID] = true
		ids = append(ids, v.ID)
	}
	fmt.Printf("disktest: %d jobs acknowledged under quorum\n", len(ids))

	// Let a chunk of the workload finish so the destroyed journal holds
	// both terminal results (which must rehydrate) and in-flight jobs
	// (which must re-run exactly once).
	if err := harness.WaitTerminal(base, ids, terminalBefore, 120*time.Second); err != nil {
		return fmt.Errorf("before disk loss: %w", err)
	}

	// Destroying the busiest shard maximizes what promotion must recover.
	victim, pid, err := harness.BusiestShard(base, ids)
	if err != nil {
		return err
	}
	// The disk dies first, then the process: rm -rf takes the victim's
	// journal AND every replica it was holding for the other shards,
	// exactly what losing the physical disk would do.
	if err := os.RemoveAll(filepath.Join(data, victim)); err != nil {
		return fmt.Errorf("destroying shard %s data dir: %w", victim, err)
	}
	if err := syscall.Kill(pid, syscall.SIGKILL); err != nil {
		return fmt.Errorf("killing shard %s (pid %d): %w", victim, pid, err)
	}
	fmt.Printf("disktest: shard %s (pid %d) lost its disk and was killed\n", victim, pid)

	// Zero lost jobs: every acknowledged ID reaches a terminal state
	// under its original fleet ID, served by the promoted journal.
	if err := harness.WaitTerminal(base, ids, jobCount, 300*time.Second); err != nil {
		return fmt.Errorf("after disk loss: %w", err)
	}
	for _, id := range ids {
		v, err := harness.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return fmt.Errorf("job %s lost across the disk loss: %w", id, err)
		}
		if v.State != "done" || len(v.Result) == 0 {
			return fmt.Errorf("job %s ended %q (%s), want done with a result", id, v.State, v.Error)
		}
	}
	fmt.Printf("disktest: all %d jobs terminal under their original fleet IDs\n", jobCount)

	// The failover must have gone through promotion, not a fresh journal.
	topo, err := harness.Fleet(base)
	if err != nil {
		return err
	}
	if topo.Promotions < 1 {
		return fmt.Errorf("fleet reports %d promotions; the victim came back without its replica", topo.Promotions)
	}
	if err := harness.WaitHealthz(base, 60*time.Second, threeLive); err != nil {
		return fmt.Errorf("victim never revived: %w", err)
	}
	metrics, err := harness.GetText(base + "/v1/metrics")
	if err != nil {
		return err
	}
	needle := `clusterd_recovered_jobs_total{shard="` + victim + `"}`
	if !strings.Contains(metrics, needle) || strings.Contains(metrics, needle+" 0\n") {
		return fmt.Errorf("revived shard %s recovered no jobs from its promoted journal", victim)
	}

	// Merged health must be whole again, and the revived fleet must take
	// fresh quorum-acknowledged work.
	if err := harness.WaitHealthz(base, 60*time.Second, func(h harness.Health) bool { return h.Status == "ok" }); err != nil {
		return fmt.Errorf("merged healthz never recovered to ok: %w", err)
	}
	v, err := submitWithRetry(base, `{"kind":"net","size_bytes":2048,"iters":3,"dst_node":7}`)
	if err != nil {
		return fmt.Errorf("fresh submission after failover: %w", err)
	}
	if err := harness.WaitTerminal(base, []string{v.ID}, 1, 30*time.Second); err != nil {
		return err
	}
	if err := harness.Stop(fleet); err != nil {
		return err
	}
	fmt.Printf("disktest: shard %s promoted from its follower and resumed service\n", victim)
	return nil
}

// submitWithRetry submits one spec, retrying the verdicts the durability
// contract declares retryable: 429 (shed), 503 (quorum miss, draining,
// rerouting) and transport errors. Anything else is a hard failure.
func submitWithRetry(base, spec string) (harness.JobView, error) {
	var lastErr error
	for attempt := 0; attempt < submitAttempts; attempt++ {
		v, code, err := harness.Post(base+"/v1/jobs", spec)
		switch {
		case code == 0: // transport error
			lastErr = err
		case code == http.StatusOK || code == http.StatusAccepted:
			if err != nil {
				return harness.JobView{}, fmt.Errorf("decoding accepted submission: %w", err)
			}
			return v, nil
		case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("HTTP %d", code)
		default:
			return harness.JobView{}, fmt.Errorf("HTTP %d (non-retryable)", code)
		}
		time.Sleep(submitRetryWait)
	}
	return harness.JobView{}, fmt.Errorf("gave up after %d attempts: %w", submitAttempts, lastErr)
}
