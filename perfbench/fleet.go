package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"clustereval/internal/experiment"
	"clustereval/internal/fleet"
	"clustereval/internal/service"
)

const (
	// clients is the closed-loop client count: one per CPU of the
	// two-vCPU box the benchmark was sized on.
	clients = 2
	// jobsPerClient is each client's share of one round.
	jobsPerClient = 32
	// pollEvery paces a client's GETs while its job runs.
	pollEvery = time.Millisecond
	// jobTimeout bounds how long a client waits for a terminal state
	// before it counts the job as lost.
	jobTimeout = 30 * time.Second
	// sampleEvery picks the jobs whose served result is re-derived with
	// experiment.Run: every sampleEvery-th job of each client.
	sampleEvery = 64
)

// Trace headers the benchmark's clients send to the coordinator.
const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
	hdrKey  = "X-Perfbench-Key"
)

// fleetBench is a fleet.Coordinator in front of two durable clusterd
// shards that replicate to each other (Replicas 2, AckQuorum 2), all on
// loopback HTTP, driven by a closed loop of two clients. A round is
// jobsPerClient jobs from each client: submit, then poll until terminal.
type fleetBench struct {
	dir    string
	svcs   []*service.Service
	shards []*httptest.Server
	front  *httptest.Server
	client *http.Client
	gens   []*specGen
	tr     atomic.Pointer[tracer]
	base   map[string]float64 // shard counters after warm-up
	st     fleetStats
}

// fleetStats is what the clients observed, merged after each round.
type fleetStats struct {
	acked     int // submissions answered 200 or 202
	done      int // jobs observed done
	lost      int // acknowledged jobs never observed terminal
	hitSubmit []time.Duration
	missE2E   []time.Duration
	queueWait []time.Duration
	run       map[string][]time.Duration // execution time by kind
	polls     int
	sampled   []servedJob
	bad       error
}

func (a *fleetStats) merge(b fleetStats) {
	a.acked += b.acked
	a.done += b.done
	a.lost += b.lost
	a.hitSubmit = append(a.hitSubmit, b.hitSubmit...)
	a.missE2E = append(a.missE2E, b.missE2E...)
	a.queueWait = append(a.queueWait, b.queueWait...)
	if a.run == nil {
		a.run = map[string][]time.Duration{}
	}
	for k, v := range b.run {
		a.run[k] = append(a.run[k], v...)
	}
	a.polls += b.polls
	a.sampled = append(a.sampled, b.sampled...)
	if a.bad == nil {
		a.bad = b.bad
	}
}

// servedJob is a sampled job's spec and the result the fleet served.
type servedJob struct {
	spec   experiment.Spec
	result json.RawMessage
}

// jobView is the part of the served JobView the clients read.
type jobView struct {
	ID          string          `json:"id"`
	State       string          `json:"state"`
	Cached      bool            `json:"cached"`
	Degraded    bool            `json:"degraded"`
	Error       string          `json:"error"`
	Result      json.RawMessage `json:"result"`
	SubmittedAt time.Time       `json:"submitted_at"`
	StartedAt   time.Time       `json:"started_at"`
	FinishedAt  time.Time       `json:"finished_at"`
}

func newFleet(seed uint64, dir string) (_ bench, err error) {
	b := &fleetBench{dir: dir}
	defer func() {
		if err != nil {
			_ = b.close()
		}
	}()
	var decls []fleet.Shard
	for _, name := range []string{"s0", "s1"} {
		d := filepath.Join(dir, name)
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		journal := filepath.Join(d, "journal.wal")
		svc, err := service.OpenDurable(service.Config{ShardName: name, Workers: 2, ReplicaDir: d}, journal)
		if err != nil {
			return nil, fmt.Errorf("fleet-service: opening shard %s: %w", name, err)
		}
		b.svcs = append(b.svcs, svc)
		srv := httptest.NewServer(tap{service.NewServer(svc), name, b})
		b.shards = append(b.shards, srv)
		decls = append(decls, fleet.Shard{Name: name, BaseURL: srv.URL, DataDir: d, JournalPath: journal})
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{Replicas: 2, AckQuorum: 2}, decls)
	if err != nil {
		return nil, err
	}
	coord.SyncReplication(context.Background())
	for _, svc := range b.svcs {
		if st := svc.ReplicationStatus(); !st.Enabled || st.Quorum != 2 || len(st.Peers) != 1 {
			return nil, fmt.Errorf("fleet-service: shard %s replication not wired: %+v", svc.ShardName(), st)
		}
	}
	b.front = httptest.NewServer(tap{coord, "fleet", b})
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}, Timeout: jobTimeout}

	// Warm the result cache with the pool, so resubmissions are hits
	// from the first timed job on.
	pool := specPool(seed)
	var warm fleetStats
	for i, g := range pool {
		if _, err := b.job(&warm, -1, i, g, false, nil); err != nil {
			return nil, fmt.Errorf("fleet-service: warming pool spec %d: %w", i, err)
		}
	}
	for c := 0; c < clients; c++ {
		b.gens = append(b.gens, newSpecGen(seed, c, pool))
	}
	b.base, err = b.counters()
	return b, err
}

func (b *fleetBench) round(s *sample, tr *tracer) error {
	b.tr.Store(tr)
	defer b.tr.Store(nil)
	var wg sync.WaitGroup
	got := make([]fleetStats, clients)
	lat := make([][]time.Duration, clients)
	fails := make([]int, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for range jobsPerClient {
				g, hit := b.gens[c].next()
				d, err := b.job(&got[c], c, b.gens[c].drawn, g, hit, tr)
				if err != nil {
					if fails[c] == 0 {
						fmt.Fprintf(os.Stderr, "perfbench: fleet-service client %d: %v\n", c, err)
					}
					fails[c]++
					continue
				}
				lat[c] = append(lat[c], d)
			}
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		b.st.merge(got[c])
		for _, d := range lat[c] {
			s.job(d)
		}
		for range fails[c] {
			s.fail()
		}
	}
	return nil
}

// job submits one spec and, for a 202, polls until the job is terminal.
// It returns the job's latency from POST to observed terminal state, or
// an error when the job failed in any way: transport error, non-2xx
// status, a failed, degraded or cancelled end state, or a lost job.
func (b *fleetBench) job(st *fleetStats, client, seq int, g genSpec, hit bool, tr *tracer) (time.Duration, error) {
	req := fmt.Sprintf("c%d-%d", client, seq)
	t0 := time.Now()
	sid := tr.begin("client.submit", 0, req, "client", "")
	code, v, err := b.do(http.MethodPost, "/v1/jobs", g.body, sid, req, g.key)
	tr.end(sid)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return 0, fmt.Errorf("submit: HTTP %d", code)
	}
	st.acked++
	// A 200 is terminal already: a cache hit, or a miss so light that it
	// finished before the shard answered the submit. After a 202, poll
	// until terminal; a 404 or a timeout means the job is lost.
	for code == http.StatusAccepted && !service.JobState(v.State).Terminal() {
		if time.Since(t0) > jobTimeout {
			st.lost++
			return 0, fmt.Errorf("job %s not terminal after %v", v.ID, jobTimeout)
		}
		time.Sleep(pollEvery)
		st.polls++
		pid := tr.begin("client.poll", 0, req, "client", "")
		id := v.ID
		var pcode int
		pcode, v, err = b.do(http.MethodGet, "/v1/jobs/"+id, nil, pid, req, "")
		tr.end(pid)
		if err != nil {
			return 0, err
		}
		if pcode == http.StatusNotFound {
			st.lost++
			return 0, fmt.Errorf("job %s lost (404)", id)
		}
		if pcode != http.StatusOK {
			return 0, fmt.Errorf("poll %s: HTTP %d", id, pcode)
		}
	}
	if v.Cached {
		if !hit {
			st.fail(fmt.Errorf("fresh spec %s answered from the cache", g.body))
		}
		st.hitSubmit = append(st.hitSubmit, time.Since(t0))
	} else {
		st.missE2E = append(st.missE2E, time.Since(t0))
		if !v.StartedAt.IsZero() {
			st.queueWait = append(st.queueWait, v.StartedAt.Sub(v.SubmittedAt))
			if st.run == nil {
				st.run = map[string][]time.Duration{}
			}
			st.run[g.spec.Kind] = append(st.run[g.spec.Kind], v.FinishedAt.Sub(v.StartedAt))
		}
	}
	if v.State != string(service.StateDone) || v.Degraded {
		return 0, fmt.Errorf("job %s ended %s (degraded %v): %s", v.ID, v.State, v.Degraded, v.Error)
	}
	st.done++
	if seq%sampleEvery == 1 {
		st.sampled = append(st.sampled, servedJob{spec: g.spec, result: v.Result})
	}
	return time.Since(t0), nil
}

func (st *fleetStats) fail(err error) {
	if st.bad == nil {
		st.bad = err
	}
}

// do issues one request to the coordinator and decodes a JobView answer.
func (b *fleetBench) do(method, path string, body []byte, span int, req, key string) (int, jobView, error) {
	var v jobView
	var rd io.Reader = http.NoBody
	if body != nil {
		rd = bytes.NewReader(body)
	}
	r, err := http.NewRequest(method, b.front.URL+path, rd)
	if err != nil {
		return 0, v, err
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		r.Header.Set(hdrSpan, strconv.Itoa(span))
		r.Header.Set(hdrReq, req)
		r.Header.Set(hdrKey, key)
	}
	resp, err := b.client.Do(r)
	if err != nil {
		return 0, v, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, v, err
	}
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &v); err != nil {
			return 0, v, fmt.Errorf("decoding job view: %w", err)
		}
	}
	return resp.StatusCode, v, nil
}

// counters scrapes every shard's /v1/metrics and sums each series by
// metric name.
func (b *fleetBench) counters() (map[string]float64, error) {
	out := map[string]float64{}
	for _, srv := range b.shards {
		resp, err := b.client.Get(srv.URL + "/v1/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
				out[name] += f
			}
		}
		err = sc.Err()
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// delta returns the change of the shard counters since warm-up.
func (b *fleetBench) delta() (map[string]float64, error) {
	now, err := b.counters()
	if err != nil {
		return nil, err
	}
	for k := range now {
		now[k] -= b.base[k]
	}
	return now, nil
}

// check verifies that no acknowledged job was lost, that the shards
// counted exactly the submissions and completions the clients saw, and
// that every sampled served result equals experiment.Run of its spec.
func (b *fleetBench) check() error {
	st := &b.st
	if st.bad != nil {
		return fmt.Errorf("fleet-service: %w", st.bad)
	}
	if st.lost > 0 {
		return fmt.Errorf("fleet-service: %d acknowledged jobs lost", st.lost)
	}
	d, err := b.delta()
	if err != nil {
		return fmt.Errorf("fleet-service: scraping metrics: %w", err)
	}
	if got := int(d["clusterd_jobs_submitted_total"]); got != st.acked {
		return fmt.Errorf("fleet-service: shards counted %d submissions, clients saw %d acknowledged", got, st.acked)
	}
	if got := int(d["clusterd_jobs_completed_total"]); got != st.done {
		return fmt.Errorf("fleet-service: shards counted %d completions, clients saw %d done", got, st.done)
	}
	if len(st.sampled) == 0 {
		return errors.New("fleet-service: no job sampled for the result check")
	}
	for _, sj := range st.sampled {
		norm, _, err := experiment.Canonicalize(sj.spec)
		if err != nil {
			return err
		}
		res, err := experiment.Run(context.Background(), norm)
		if err != nil {
			return fmt.Errorf("fleet-service: re-running %+v: %w", sj.spec, err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		if !sameJSON(sj.result, want) {
			return fmt.Errorf("fleet-service: served result for %+v differs from experiment.Run:\nserved %s\nlocal  %s",
				sj.spec, sj.result, want)
		}
	}
	return nil
}

// sameJSON reports whether two JSON documents are equal once both are
// re-encoded the same way: the coordinator re-encodes shard views
// through a generic map, which reorders object keys, so the comparison
// is over that canonical encoding, byte for byte.
func sameJSON(a, b []byte) bool {
	canon := func(data []byte) ([]byte, error) {
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			return nil, err
		}
		return json.Marshal(v)
	}
	ca, errA := canon(a)
	cb, errB := canon(b)
	return errA == nil && errB == nil && bytes.Equal(ca, cb)
}

func (b *fleetBench) close() error {
	if b.front != nil {
		b.front.Close()
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	for _, srv := range b.shards {
		srv.Close()
	}
	var errs []error
	for _, svc := range b.svcs {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, svc.Close(ctx))
		cancel()
	}
	errs = append(errs, os.RemoveAll(b.dir))
	return errors.Join(errs...)
}

// tap wraps a server's handler to record a span per job request while a
// traced round runs. On the coordinator ("fleet") the span's parent and
// request ID come from the client's trace headers; a shard's span is
// matched to its coordinator span afterwards, by spec key or job ID.
type tap struct {
	next  http.Handler
	where string
	b     *fleetBench
}

func (h tap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.b.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	layer := "service"
	if h.where == "fleet" {
		layer = "fleet"
	}
	var name, match string
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
		name = layer + ".submit"
		match = h.submitKey(r)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
		name = layer + ".get"
		id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if h.where == "fleet" {
			id = strings.Replace(id, "-", "/", 1)
		} else {
			id = h.where + "/" + id
		}
		match = id
	case r.Method == http.MethodPost && r.URL.Path == "/v1/replication/ingest":
		name = "replication.ingest"
	default:
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
	id := tr.begin(name, parent, r.Header.Get(hdrReq), h.where, match)
	h.next.ServeHTTP(w, r)
	tr.end(id)
}

// submitKey returns the cache key of a submission: from the client's
// header at the coordinator, from the forwarded canonical spec at a shard.
func (h tap) submitKey(r *http.Request) string {
	if h.where == "fleet" {
		return r.Header.Get(hdrKey)
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return ""
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	var spec experiment.Spec
	if json.Unmarshal(body, &spec) != nil {
		return ""
	}
	_, key, err := experiment.Canonicalize(spec)
	if err != nil {
		return ""
	}
	return key
}

// layerMetrics reports the fleet's per-layer numbers: latency split by
// hit and miss, queue wait, run time by kind, polling, forwarding and
// replication costs from the spans, and the shards' counter deltas.
func (b *fleetBench) layerMetrics(spans []span, self map[int]int64, m metrics) error {
	st := &b.st
	hit, miss := millis(st.hitSubmit), millis(st.missE2E)
	m.set("fleet.hit_submit_p50_ms", quantile(hit, 0.5), "ms")
	m.set("fleet.hit_submit_p99_ms", quantile(hit, 0.99), "ms")
	m.set("fleet.miss_e2e_p50_ms", quantile(miss, 0.5), "ms")
	m.set("fleet.miss_e2e_p99_ms", quantile(miss, 0.99), "ms")
	qw := millis(st.queueWait)
	m.set("service.queue_wait_ms.p50", quantile(qw, 0.5), "ms")
	m.set("service.queue_wait_ms.p99", quantile(qw, 0.99), "ms")
	for _, kind := range []string{"net", "stream", "hpl", "hpcg"} {
		m.set("service.run_ms."+kind+".p50", quantile(millis(st.run[kind]), 0.5), "ms")
	}
	m.set("service.polls_per_miss", float64(st.polls)/float64(max(1, len(st.missE2E))), "count")

	selfMS := map[string][]float64{}
	for _, s := range spans {
		selfMS[s.Name] = append(selfMS[s.Name], float64(self[s.ID])/1e6)
	}
	var ingest []float64
	for _, s := range spans {
		if s.Name == "replication.ingest" && s.Parent != 0 {
			ingest = append(ingest, float64(s.dur())/1e6)
		}
	}
	m.set("fleet.forward_ms.p50", quantile(selfMS["fleet.submit"], 0.5), "ms")
	m.set("service.submit_self_ms.p50", quantile(selfMS["service.submit"], 0.5), "ms")
	m.set("replication.ingest_ms.p50", quantile(ingest, 0.5), "ms")

	d, err := b.delta()
	if err != nil {
		return err
	}
	subs := max(1, d["clusterd_jobs_submitted_total"])
	m.set("journal.records_per_submit", d["clusterd_journal_records_total"]/subs, "count")
	m.set("replication.frames_per_submit", d["clusterd_replica_frames_ingested_total"]/subs, "count")
	lookups := max(1, d["clusterd_cache_hits_total"]+d["clusterd_cache_misses_total"])
	m.set("service.cache_hit_ratio", d["clusterd_cache_hits_total"]/lookups, "frac")
	m.set("service.shed", d["clusterd_shed_total"], "count")
	m.set("service.retries", d["clusterd_job_retries_total"], "count")
	m.set("replication.errors", d["clusterd_replication_errors_total"], "count")
	return nil
}
