// Command crashtest is the durability acceptance harness wired into
// `make crashtest`: it builds clusterd, starts it with a write-ahead
// journal, submits a 50-job workload, kills the daemon with SIGKILL while
// jobs are still in flight, restarts it against the same journal and
// asserts that every job is still known and reaches a consistent terminal
// state — completed results intact, crash victims re-run to completion.
// It exits non-zero with a diagnostic on the first violated invariant.
package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"clustereval/scripts/internal/harness"
)

const jobCount = 50

func main() { harness.Main("crashtest", run) }

func run() error {
	dir, err := os.MkdirTemp("", "clusterd-crashtest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	bins, err := harness.Build(dir, "clusterd")
	if err != nil {
		return err
	}
	clusterd := bins[0]
	journal := filepath.Join(dir, "journal.wal")
	daemonArgs := []string{
		"-addr", "127.0.0.1:0", "-workers", "2", "-journal", journal,
		"-drain-timeout", "60s",
	}

	// Incarnation 1: submit the workload, kill it mid-flight.
	daemon, base, err := harness.Start(clusterd, daemonArgs...)
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()

	ids := make([]string, 0, jobCount)
	for i := 0; i < jobCount; i++ {
		// Distinct DES-backed network jobs: slow enough that the kill
		// lands while part of the workload is still queued or running.
		spec := fmt.Sprintf(`{"kind":"net","size_bytes":%d,"iters":60,"src_node":0,"dst_node":%d}`,
			4096+i*512, i+1)
		v, code, err := harness.Post(base+"/v1/jobs", spec)
		if err != nil {
			return fmt.Errorf("submitting job %d: %w", i, err)
		}
		if code != http.StatusAccepted && code != http.StatusOK {
			return fmt.Errorf("submitting job %d: HTTP %d", i, code)
		}
		ids = append(ids, v.ID)
	}

	// Let part of the workload finish so the journal holds a mix of
	// terminal and in-flight jobs, then pull the plug.
	if err := harness.WaitTerminal(base, ids, 5, 30*time.Second); err != nil {
		return fmt.Errorf("before kill: %w", err)
	}
	if err := daemon.Process.Kill(); err != nil { // SIGKILL: no drain, no marker
		return fmt.Errorf("killing daemon: %w", err)
	}
	_ = daemon.Wait()
	fmt.Println("crashtest: daemon killed mid-workload")

	// Incarnation 2: same journal; every job must come back and finish.
	daemon2, base2, err := harness.Start(clusterd, daemonArgs...)
	if err != nil {
		return fmt.Errorf("restarting: %w", err)
	}
	defer daemon2.Process.Kill()

	if err := harness.WaitTerminal(base2, ids, jobCount, 120*time.Second); err != nil {
		return fmt.Errorf("after restart: %w", err)
	}
	recovered := 0
	for _, id := range ids {
		v, err := harness.Get(base2 + "/v1/jobs/" + id)
		if err != nil {
			return fmt.Errorf("job %s lost across the crash: %w", id, err)
		}
		if v.State != "done" || len(v.Result) == 0 {
			return fmt.Errorf("job %s ended %q (%s) with result %q, want done",
				id, v.State, v.Error, v.Result)
		}
		if v.Recovered {
			recovered++
		}
	}
	if recovered != jobCount {
		return fmt.Errorf("%d/%d jobs marked recovered after restart", recovered, jobCount)
	}

	metrics, err := harness.GetText(base2 + "/v1/metrics")
	if err != nil {
		return err
	}
	if !strings.Contains(metrics, fmt.Sprintf("clusterd_recovered_jobs_total %d", jobCount)) {
		return fmt.Errorf("metrics do not report %d recovered jobs", jobCount)
	}

	// A graceful stop must still work on the recovered journal.
	if err := harness.Stop(daemon2); err != nil {
		return err
	}
	fmt.Printf("crashtest: %d jobs recovered, all done after restart\n", jobCount)
	return nil
}
