// Package harness holds the process and HTTP helpers the acceptance
// scripts (crashtest, fleettest, disktest, loadtest) share: building the
// daemons, starting them and parsing their startup banner, stopping them
// gracefully, and polling jobs, health and fleet topology over the JSON
// API. Each script keeps only its scenario and its assertions.
package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clustereval/internal/service"
)

const (
	// pollInterval is the one cadence every wait loop polls at.
	pollInterval = 20 * time.Millisecond
	// startTimeout bounds how long Start waits for a startup banner.
	startTimeout = 30 * time.Second
)

// Main runs a script's scenario, prints "<name>: PASS" or
// "<name>: FAIL: <err>" and exits non-zero on failure.
func Main(name string, run func() error) {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: FAIL: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Printf("%s: PASS\n", name)
}

// EnvInt reads a positive integer override from the environment,
// falling back to def when the variable is unset or not a positive
// integer.
func EnvInt(name string, def int) int {
	if n, err := strconv.Atoi(os.Getenv(name)); err == nil && n > 0 {
		return n
	}
	return def
}

// Build compiles ./cmd/<name> for each name into dir and returns the
// binary paths in the same order. When the RACE environment variable is
// set every binary is built with -race.
func Build(dir string, names ...string) ([]string, error) {
	bins := make([]string, len(names))
	for i, name := range names {
		bins[i] = filepath.Join(dir, name)
		args := []string{"build"}
		if os.Getenv("RACE") != "" {
			args = append(args, "-race")
		}
		args = append(args, "-o", bins[i], "./cmd/"+name)
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building %s: %v\n%s", name, err, out)
		}
	}
	return bins, nil
}

// Start launches bin with args, echoes its stdout prefixed with "  | ",
// and returns the process with the base URL parsed from its
// "<binary name> listening on <addr> ..." banner. A child that exits
// before announcing its address is reported at once, with its exit
// status.
func Start(bin string, args ...string) (*exec.Cmd, string, error) {
	name := filepath.Base(bin)
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}

	prefix := name + " listening on "
	addrCh := make(chan string, 1)
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println("  |", line)
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				if i := strings.IndexByte(rest, ' '); i > 0 {
					select {
					case addrCh <- rest[:i]:
					default:
					}
				}
			}
		}
	}()

	select {
	case addr := <-addrCh:
		return cmd, "http://" + addr, nil
	case <-eof:
		select {
		case addr := <-addrCh: // banner was the last line before exit
			return cmd, "http://" + addr, nil
		default:
		}
		_ = cmd.Wait()
		return nil, "", fmt.Errorf("%s exited before announcing its address: %s", name, cmd.ProcessState)
	case <-time.After(startTimeout):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, "", fmt.Errorf("%s never announced its address", name)
	}
}

// Stop drains a started process with SIGTERM and reports an unclean
// exit.
func Stop(cmd *exec.Cmd) error {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("%s exited uncleanly: %w", filepath.Base(cmd.Path), err)
	}
	return nil
}

// JobView mirrors the fields of a served job the scripts assert on.
type JobView struct {
	ID        string           `json:"id"`
	State     service.JobState `json:"state"`
	Error     string           `json:"error"`
	Recovered bool             `json:"recovered"`
	Result    json.RawMessage  `json:"result"`
}

// Post submits a JSON body and decodes the job view it is answered with,
// returning the HTTP status alongside.
func Post(url, body string) (JobView, int, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return JobView{}, 0, err
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return JobView{}, resp.StatusCode, err
	}
	return v, resp.StatusCode, nil
}

// Get fetches one job view; any status but 200 is an error.
func Get(url string) (JobView, error) {
	resp, err := http.Get(url)
	if err != nil {
		return JobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobView{}, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return JobView{}, err
	}
	return v, nil
}

// GetText fetches a plain-text body such as the /v1/metrics exposition.
func GetText(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	return string(buf), err
}

// WaitTerminal polls until at least n of the jobs are done, failed or
// cancelled. A job whose GET fails — a restarting shard answers 503, a
// restarting daemon refuses connections — counts as not terminal yet.
func WaitTerminal(base string, ids []string, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		terminal := 0
		for _, id := range ids {
			if v, err := Get(base + "/v1/jobs/" + id); err == nil && v.State.Terminal() {
				terminal++
			}
		}
		if terminal >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d/%d jobs terminal after %v", terminal, n, timeout)
		}
		time.Sleep(pollInterval)
	}
}

// Health mirrors the /v1/healthz fields the scripts wait on.
type Health struct {
	Status     string `json:"status"`
	LiveShards int    `json:"live_shards"`
}

// WaitHealthz polls /v1/healthz until ok accepts the report. Unreachable
// or undecodable answers count as not ready.
func WaitHealthz(base string, timeout time.Duration, ok func(Health) bool) error {
	deadline := time.Now().Add(timeout)
	for {
		var h Health
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
		}
		if err == nil && ok(h) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz not ready after %v: last status %q, %d live shards (err %v)",
				timeout, h.Status, h.LiveShards, err)
		}
		time.Sleep(pollInterval)
	}
}

// Shard is one supervised shard as /v1/fleet reports it.
type Shard struct {
	Name string `json:"name"`
	Live bool   `json:"live"`
	PID  int    `json:"pid"`
}

// Topology mirrors the /v1/fleet fields the scripts read.
type Topology struct {
	Shards     []Shard `json:"shards"`
	Promotions int     `json:"promotions_total"`
}

// Fleet reads the coordinator's /v1/fleet topology.
func Fleet(base string) (Topology, error) {
	var topo Topology
	resp, err := http.Get(base + "/v1/fleet")
	if err != nil {
		return topo, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&topo)
	return topo, err
}

// BusiestShard returns the live shard with a child PID that owns the
// most non-terminal jobs among ids (fleet IDs are "<shard>-<local id>").
func BusiestShard(base string, ids []string) (string, int, error) {
	inflight := map[string]int{}
	for _, id := range ids {
		v, err := Get(base + "/v1/jobs/" + id)
		if err != nil || v.State.Terminal() {
			continue
		}
		if shard, _, ok := strings.Cut(id, "-"); ok {
			inflight[shard]++
		}
	}
	topo, err := Fleet(base)
	if err != nil {
		return "", 0, err
	}
	best, bestPID, bestCount := "", 0, -1
	for _, s := range topo.Shards {
		if s.Live && s.PID != 0 && inflight[s.Name] > bestCount {
			best, bestPID, bestCount = s.Name, s.PID, inflight[s.Name]
		}
	}
	if best == "" {
		return "", 0, fmt.Errorf("no live shard with a PID")
	}
	return best, bestPID, nil
}
