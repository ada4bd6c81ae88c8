package harness

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// childEnv selects a helper-process mode when the test binary re-execs
// itself as a child for the Start/Stop tests.
const childEnv = "HARNESS_TEST_CHILD"

func TestMain(m *testing.M) {
	switch os.Getenv(childEnv) {
	case "":
		os.Exit(m.Run())
	case "banner":
		// A well-behaved daemon: chatter, banner, then drain on SIGTERM.
		term := make(chan os.Signal, 1)
		signal.Notify(term, syscall.SIGTERM)
		fmt.Println("warming up")
		fmt.Printf("%s listening on 127.0.0.1:4321 (test child)\n", filepath.Base(os.Args[0]))
		<-term
		os.Exit(0)
	case "unclean":
		// Announces, then dies with a non-zero status instead of draining.
		term := make(chan os.Signal, 1)
		signal.Notify(term, syscall.SIGTERM)
		fmt.Printf("%s listening on 127.0.0.1:4321 (test child)\n", filepath.Base(os.Args[0]))
		<-term
		os.Exit(4)
	case "nobanner":
		// What a daemon rejecting a bad flag looks like: output, no
		// banner, non-zero exit.
		fmt.Println("flag provided but not defined: -bogus")
		os.Exit(3)
	}
}

// startChild runs the test binary itself as a child in the given mode.
func startChild(t *testing.T, mode string) (string, error) {
	t.Helper()
	t.Setenv(childEnv, mode)
	cmd, base, err := Start(os.Args[0])
	if err != nil {
		return "", err
	}
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	if err := Stop(cmd); err != nil {
		return base, err
	}
	return base, nil
}

func TestStartParsesBannerAndStopsCleanly(t *testing.T) {
	base, err := startChild(t, "banner")
	if err != nil {
		t.Fatal(err)
	}
	if base != "http://127.0.0.1:4321" {
		t.Errorf("base URL = %q, want http://127.0.0.1:4321", base)
	}
}

func TestStopReportsUncleanExit(t *testing.T) {
	_, err := startChild(t, "unclean")
	if err == nil || !strings.Contains(err.Error(), "exited uncleanly") || !strings.Contains(err.Error(), "exit status 4") {
		t.Fatalf("Stop error = %v, want an unclean exit with status 4", err)
	}
}

// TestStartFailsFastWithoutBanner pins the startup failure path: a child
// that exits before announcing must be reported at once with its exit
// status, not after the 30 s banner timeout.
func TestStartFailsFastWithoutBanner(t *testing.T) {
	began := time.Now()
	_, err := startChild(t, "nobanner")
	if err == nil {
		t.Fatal("Start succeeded for a child that never announced")
	}
	if !strings.Contains(err.Error(), "exited before announcing") || !strings.Contains(err.Error(), "exit status 3") {
		t.Errorf("Start error = %v, want the early exit with status 3", err)
	}
	if took := time.Since(began); took > startTimeout/2 {
		t.Errorf("Start took %v to notice the exited child", took)
	}
}

func TestEnvInt(t *testing.T) {
	const name = "HARNESS_TEST_ENVINT"
	for _, tc := range []struct {
		val  string
		want int
	}{{"", 7}, {"12", 12}, {"0", 7}, {"-3", 7}, {"x", 7}} {
		t.Setenv(name, tc.val)
		if got := EnvInt(name, 7); got != tc.want {
			t.Errorf("EnvInt(%q) = %d, want %d", tc.val, got, tc.want)
		}
	}
}

// fakeDaemon is an httptest stand-in for the clusterd/clusterfleet JSON
// API: jobs with scripted states and transient failures, a scripted
// health sequence, a fleet topology and a metrics exposition.
type fakeDaemon struct {
	mu       sync.Mutex
	states   map[string]string // job ID -> state
	unavail  map[string]int    // job ID -> 503 answers left
	drop     map[string]int    // job ID -> dropped connections left
	health   []Health          // served in order; the last one repeats
	healthN  int
	topology string
}

func newFakeDaemon(t *testing.T, f *fakeDaemon) *httptest.Server {
	t.Helper()
	if f.unavail == nil {
		f.unavail = map[string]int{}
	}
	if f.drop == nil {
		f.drop = map[string]int{}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		f.mu.Lock()
		state, ok := f.states[id]
		unavail, drop := f.unavail[id], f.drop[id]
		if drop > 0 {
			f.drop[id]--
		} else if unavail > 0 {
			f.unavail[id]--
		}
		f.mu.Unlock()
		switch {
		case drop > 0: // transport error: close without answering
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		case unavail > 0:
			http.Error(w, `{"error":"shard restarting"}`, http.StatusServiceUnavailable)
		case !ok:
			http.Error(w, `{"error":"not found"}`, http.StatusNotFound)
		default:
			_ = json.NewEncoder(w).Encode(map[string]any{"id": id, "state": state, "result": map[string]int{"v": 1}})
		}
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"s1-j000009","state":"queued","recovered":true,"error":"x","result":{"v":2}}`))
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		h := f.health[min(f.healthN, len(f.health)-1)]
		f.healthN++
		f.mu.Unlock()
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("GET /v1/fleet", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(f.topology))
	})
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte("fleet_shard_restarts_total 1\n"))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestWaitTerminalCountsOnlyTerminalStates(t *testing.T) {
	ts := newFakeDaemon(t, &fakeDaemon{states: map[string]string{
		"a": "done", "b": "failed", "c": "cancelled", "d": "running", "e": "queued",
	}})
	ids := []string{"a", "b", "c", "d", "e", "missing"}
	if err := WaitTerminal(ts.URL, ids, 3, time.Second); err != nil {
		t.Fatalf("three terminal jobs: %v", err)
	}
	began := time.Now()
	err := WaitTerminal(ts.URL, ids, 4, 150*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "only 3/4 jobs terminal") {
		t.Fatalf("want timeout with only 3/4 terminal, got %v", err)
	}
	if took := time.Since(began); took < 150*time.Millisecond || took > 5*time.Second {
		t.Errorf("timeout honoured after %v, want about 150ms", took)
	}
}

func TestWaitTerminalRetriesUnavailableAndTransportErrors(t *testing.T) {
	f := &fakeDaemon{
		states:  map[string]string{"a": "done", "b": "done", "c": "done"},
		unavail: map[string]int{"a": 5},
		drop:    map[string]int{"b": 5},
	}
	ts := newFakeDaemon(t, f)
	if err := WaitTerminal(ts.URL, []string{"a", "b", "c"}, 3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unavail["a"] != 0 || f.drop["b"] != 0 {
		t.Errorf("WaitTerminal finished before the failures were consumed: %v %v", f.unavail, f.drop)
	}
}

func TestBusiestShardPicksLiveShardWithPID(t *testing.T) {
	states := map[string]string{}
	var ids []string
	add := func(shard, state string, n int) {
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s-%s%d", shard, state, i)
			states[id] = state
			ids = append(ids, id)
		}
	}
	add("s0", "running", 5) // busiest, but no PID (dead or unsupervised)
	add("s1", "queued", 4)  // next busiest, but not live
	add("s2", "running", 2) // the answer
	add("s3", "queued", 1)
	add("s3", "done", 6)    // terminal jobs are not in flight
	add("s4", "running", 2) // ties with s2, listed later
	ts := newFakeDaemon(t, &fakeDaemon{states: states, topology: `{"shards":[
		{"name":"s0","live":true},
		{"name":"s1","live":false,"pid":11},
		{"name":"s2","live":true,"pid":22},
		{"name":"s3","live":true,"pid":33},
		{"name":"s4","live":true,"pid":44}]}`})
	name, pid, err := BusiestShard(ts.URL, ids)
	if err != nil {
		t.Fatal(err)
	}
	if name != "s2" || pid != 22 {
		t.Errorf("BusiestShard = %s (pid %d), want s2 (pid 22)", name, pid)
	}

	none := newFakeDaemon(t, &fakeDaemon{states: states, topology: `{"shards":[
		{"name":"s0","live":true},{"name":"s1","live":false,"pid":11}]}`})
	if name, pid, err := BusiestShard(none.URL, ids); err == nil {
		t.Errorf("BusiestShard = %s (pid %d) with no live shard holding a PID, want an error", name, pid)
	}
}

func TestWaitHealthzAppliesPredicate(t *testing.T) {
	f := &fakeDaemon{health: []Health{
		{Status: "degraded", LiveShards: 2},
		{Status: "degraded", LiveShards: 3},
		{Status: "ok", LiveShards: 3},
	}}
	ts := newFakeDaemon(t, f)
	healthy := func(h Health) bool { return h.Status == "ok" && h.LiveShards >= 3 }
	if err := WaitHealthz(ts.URL, 10*time.Second, healthy); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	polls := f.healthN
	f.mu.Unlock()
	if polls != 3 {
		t.Errorf("healthz polled %d times, want 3 (ready on the third report)", polls)
	}

	began := time.Now()
	err := WaitHealthz(ts.URL, 150*time.Millisecond, func(h Health) bool { return h.LiveShards >= 4 })
	if err == nil || !strings.Contains(err.Error(), `last status "ok", 3 live shards`) {
		t.Fatalf("want a timeout naming the last report, got %v", err)
	}
	if took := time.Since(began); took < 150*time.Millisecond || took > 5*time.Second {
		t.Errorf("timeout honoured after %v, want about 150ms", took)
	}
}

func TestFleetPostAndGetTextDecodeTheWire(t *testing.T) {
	ts := newFakeDaemon(t, &fakeDaemon{topology: `{"promotions_total":2,"replicas":2,"shards":[{"name":"s0","live":true,"pid":7,"journal":"x"}]}`})
	topo, err := Fleet(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Promotions != 2 || len(topo.Shards) != 1 || topo.Shards[0] != (Shard{Name: "s0", Live: true, PID: 7}) {
		t.Errorf("Fleet = %+v", topo)
	}

	v, code, err := Post(ts.URL+"/v1/jobs", `{"kind":"net"}`)
	if err != nil || code != http.StatusAccepted {
		t.Fatalf("Post = %d, %v", code, err)
	}
	if v.ID != "s1-j000009" || v.State != "queued" || !v.Recovered || v.Error != "x" || string(v.Result) != `{"v":2}` {
		t.Errorf("Post decoded %+v", v)
	}

	text, err := GetText(ts.URL + "/v1/metrics")
	if err != nil || text != "fleet_shard_restarts_total 1\n" {
		t.Errorf("GetText = %q, %v", text, err)
	}
	if _, err := Get(ts.URL + "/v1/jobs/missing"); err == nil || !strings.Contains(err.Error(), "HTTP 404") {
		t.Errorf("Get of a missing job = %v, want HTTP 404", err)
	}
}
