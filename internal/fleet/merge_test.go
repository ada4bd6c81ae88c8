package fleet

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"clustereval/internal/service"
)

const stubExpoS0 = `# HELP clusterd_jobs_total Total jobs accepted.
# TYPE clusterd_jobs_total counter
clusterd_jobs_total 10
# HELP clusterd_queue_depth Jobs waiting in the queue.
# TYPE clusterd_queue_depth gauge
clusterd_queue_depth 1
# HELP clusterd_queue_capacity Queue capacity.
# TYPE clusterd_queue_capacity gauge
clusterd_queue_capacity 256
# HELP clusterd_job_duration_seconds Job runtime.
# TYPE clusterd_job_duration_seconds histogram
clusterd_job_duration_seconds_bucket{kind="net",le="0.1"} 4
clusterd_job_duration_seconds_sum{kind="net"} 0.2
clusterd_job_duration_seconds_count{kind="net"} 4
`

const stubExpoS1 = `# HELP clusterd_jobs_total Total jobs accepted.
# TYPE clusterd_jobs_total counter
clusterd_jobs_total 20
# HELP clusterd_queue_depth Jobs waiting in the queue.
# TYPE clusterd_queue_depth gauge
clusterd_queue_depth 2
# HELP clusterd_queue_capacity Queue capacity.
# TYPE clusterd_queue_capacity gauge
clusterd_queue_capacity 256
`

func TestParsePromText(t *testing.T) {
	fams := parsePromText(stubExpoS0 + "garbage line without value x\n# odd comment\n")
	f, ok := fams["clusterd_jobs_total"]
	if !ok {
		t.Fatal("clusterd_jobs_total family missing")
	}
	if f.typ != "counter" || f.help != "Total jobs accepted." {
		t.Fatalf("family parsed as typ=%q help=%q", f.typ, f.help)
	}
	if len(f.samples) != 1 || f.samples[0].value != 10 {
		t.Fatalf("samples = %+v, want one sample of 10", f.samples)
	}
	// Histogram children must group under the base family, not spawn
	// families of their own.
	h, ok := fams["clusterd_job_duration_seconds"]
	if !ok {
		t.Fatal("histogram family missing")
	}
	if h.typ != "histogram" || len(h.samples) != 3 {
		t.Fatalf("histogram family typ=%q with %d samples, want 3", h.typ, len(h.samples))
	}
	for _, spawned := range []string{"clusterd_job_duration_seconds_bucket", "clusterd_job_duration_seconds_sum", "clusterd_job_duration_seconds_count"} {
		if _, ok := fams[spawned]; ok {
			t.Fatalf("histogram child %s became its own family", spawned)
		}
	}
}

func TestWithShardLabel(t *testing.T) {
	if got := withShardLabel("clusterd_jobs_total", "s0"); got != `clusterd_jobs_total{shard="s0"}` {
		t.Fatalf("bare series: %s", got)
	}
	if got := withShardLabel(`m{kind="net",le="0.1"}`, "s1"); got != `m{kind="net",le="0.1",shard="s1"}` {
		t.Fatalf("labeled series: %s", got)
	}
}

// stubShard serves a fixed Prometheus exposition on /v1/metrics.
func stubShard(t *testing.T, expo string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = io.WriteString(w, expo)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func scrapeFleet(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatalf("GET /v1/metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func TestFleetMetricsMerge(t *testing.T) {
	s0 := stubShard(t, stubExpoS0)
	s1 := stubShard(t, stubExpoS1)
	coord, err := NewCoordinator(CoordinatorConfig{VirtualNodes: 16}, []Shard{
		{Name: "s0", BaseURL: s0.URL},
		{Name: "s1", BaseURL: s1.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	defer front.Close()

	body := scrapeFleet(t, front.URL)

	// Aggregates: counters sum across shards, and so does the queue-depth
	// gauge (the fleet's total backlog). Other gauges must not be summed —
	// a fleet-wide "capacity 512" would be an invented series.
	for _, want := range []string{
		"fleet_clusterd_jobs_total 30\n",
		"fleet_clusterd_queue_depth 3\n",
		"# TYPE fleet_clusterd_jobs_total counter\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("merged exposition missing %q", want)
		}
	}
	if strings.Contains(body, "fleet_clusterd_queue_capacity") {
		t.Error("non-backlog gauge clusterd_queue_capacity was aggregated")
	}

	// Per-shard series carry the shard label; labeled series get it
	// appended after the existing labels.
	for _, want := range []string{
		`clusterd_jobs_total{shard="s0"} 10` + "\n",
		`clusterd_jobs_total{shard="s1"} 20` + "\n",
		`clusterd_job_duration_seconds_bucket{kind="net",le="0.1",shard="s0"} 4` + "\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("merged exposition missing %q", want)
		}
	}

	// Each family's TYPE header appears exactly once even though two
	// shards report it.
	if n := strings.Count(body, "# TYPE clusterd_jobs_total counter\n"); n != 1 {
		t.Errorf("TYPE header for clusterd_jobs_total appears %d times, want 1", n)
	}

	// The coordinator's own registry leads the exposition.
	if !strings.Contains(body, "fleet_live_shards 2\n") {
		t.Error("coordinator registry series fleet_live_shards missing")
	}

	// Determinism: a second scrape is byte-identical (families and shards
	// are sorted; nothing changed in between).
	if again := scrapeFleet(t, front.URL); again != body {
		t.Error("two idle scrapes differ; exposition ordering is not deterministic")
	}
}

// A shard that stops answering must not break the merge: its series
// disappear, the scrape error is counted, and the aggregate drops to the
// survivors' sum.
func TestFleetMetricsMergeSkipsDownShard(t *testing.T) {
	s0 := stubShard(t, stubExpoS0)
	s1 := stubShard(t, stubExpoS1)
	coord, err := NewCoordinator(CoordinatorConfig{VirtualNodes: 16}, []Shard{
		{Name: "s0", BaseURL: s0.URL},
		{Name: "s1", BaseURL: s1.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord)
	defer front.Close()

	coord.SetShardLive("s1", false)
	body := scrapeFleet(t, front.URL)
	if !strings.Contains(body, "fleet_clusterd_jobs_total 10\n") {
		t.Error("aggregate should cover only the live shard")
	}
	if strings.Contains(body, `clusterd_jobs_total{shard="s1"}`) {
		t.Error("down shard still contributes series")
	}
	// The coordinator's own view still names the down shard.
	if !strings.Contains(body, `fleet_shard_up{shard="s1"} 0`+"\n") {
		t.Error("fleet_shard_up gauge does not report s1 down")
	}
}

func fleetHealthz(t *testing.T, base string) map[string]any {
	t.Helper()
	var report map[string]any
	getJSON(t, base+"/v1/healthz", &report)
	return report
}

// assertNestedReports checks that every shard report nested in the
// coordinator's /v1/healthz decodes equal to the shard's own /v1/healthz,
// and returns the nested reports by shard. Only uptime may differ: the
// shard is asked after the coordinator, so its uptime must not be lower.
func assertNestedReports(t *testing.T, base string, servers map[string]*httptest.Server) map[string]service.Health {
	t.Helper()
	var merged struct {
		Shards map[string]struct {
			Report *service.Health `json:"report"`
		} `json:"shards"`
	}
	getJSON(t, base+"/v1/healthz", &merged)
	out := map[string]service.Health{}
	for name, srv := range servers {
		nested := merged.Shards[name].Report
		if nested == nil {
			t.Fatalf("coordinator healthz nests no report for shard %s", name)
		}
		var own service.Health
		getJSON(t, srv.URL+"/v1/healthz", &own)
		if own.UptimeSeconds < nested.UptimeSeconds {
			t.Fatalf("shard %s uptime went backwards: nested %v, own %v", name, nested.UptimeSeconds, own.UptimeSeconds)
		}
		own.UptimeSeconds = nested.UptimeSeconds
		if !reflect.DeepEqual(*nested, own) {
			t.Fatalf("shard %s report nested by the coordinator differs from its own:\n nested %+v\n own    %+v", name, *nested, own)
		}
		out[name] = *nested
	}
	return out
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestFleetHealthzMerge(t *testing.T) {
	tf := newTestFleet(t, 2)
	front := tf.front(t)

	report := fleetHealthz(t, front.URL)
	if report["status"] != "ok" {
		t.Fatalf("fresh fleet status = %v, want ok", report["status"])
	}
	if got := report["live_shards"].(float64); got != 2 {
		t.Fatalf("live_shards = %v, want 2", got)
	}
	// Workers aggregate across shards (2 per test shard).
	if got := report["workers"].(float64); got != 4 {
		t.Fatalf("workers = %v, want 4", got)
	}
	shards, ok := report["shards"].(map[string]any)
	if !ok || len(shards) != 2 {
		t.Fatalf("shards = %v, want 2 entries", report["shards"])
	}
	s0 := shards["s0"].(map[string]any)
	if s0["live"] != true {
		t.Fatalf("s0 = %v, want live", s0)
	}
	// Each nested report is the shard's own healthz, shard identity
	// included.
	if rep := s0["report"].(map[string]any); rep["shard"] != "s0" {
		t.Fatalf("s0 report = %v, want shard identity s0", rep)
	}
	assertNestedReports(t, front.URL, tf.servers)

	// With replication on, the nested reports carry each shard's
	// replication block just as the shard serves it.
	rf := newReplFleet(t, 2, 2, 2)
	rf.coord.SyncReplication(context.Background())
	replFront := httptest.NewServer(rf.coord)
	defer replFront.Close()
	v, resp := postJob(t, replFront.URL, netSpec(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("replicated submit: HTTP %d", resp.StatusCode)
	}
	waitDone(t, replFront.URL, v.ID)
	// The done record is journaled and shipped just after the job turns
	// done; wait for it (submitted, started, done) so the reports hold
	// still between the two reads.
	for i := 0; ; i++ {
		st := rf.svcs[v.Shard].ReplicationStatus()
		if st.LastSeq == 3 && st.Peers[0].AckedSeq == 3 {
			break
		}
		if i == 500 {
			t.Fatalf("shard %s replication never settled: %+v", v.Shard, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for name, rep := range assertNestedReports(t, replFront.URL, rf.servers) {
		if repl := rep.Replication; repl == nil || repl.Quorum != 2 || len(repl.Peers) != 1 {
			t.Fatalf("shard %s nested replication block = %+v, want quorum 2 with one peer", name, repl)
		}
	}

	// One shard down: the fleet degrades but keeps serving 200.
	tf.coord.SetShardLive("s1", false)
	report = fleetHealthz(t, front.URL)
	if report["status"] != "degraded" {
		t.Fatalf("status with s1 down = %v, want degraded", report["status"])
	}
	if got := report["live_shards"].(float64); got != 1 {
		t.Fatalf("live_shards with s1 down = %v, want 1", got)
	}

	// Every shard down: the fleet is down.
	tf.coord.SetShardLive("s0", false)
	report = fleetHealthz(t, front.URL)
	if report["status"] != "down" {
		t.Fatalf("status with all shards down = %v, want down", report["status"])
	}
}
