// Command perfbench is the repository's benchmark. It runs one workload
// in-process against the public entry points of core, figures,
// experiment, service and fleet, checks that the outputs are correct,
// and prints one JSON result line:
//
//	perfbench --workload paper --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics of the named
// workload. With --trace 1 it holds the per-layer metrics: one traced
// pass of every workload, direct probes of each layer's public
// functions, and the tracing overhead on the named workload; the spans
// are written to .bench_build/perfbench/. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// bench is one set-up workload.
type bench interface {
	// round runs one unit of the workload's fixed work, recording its
	// jobs into s; tr is nil in untraced runs.
	round(s *sample, tr *tracer) error
	// layerMetrics derives the workload's per-layer metrics from the
	// spans of its traced rounds.
	layerMetrics(spans []span, self map[int]int64, m metrics) error
	// check verifies the outputs of every round run so far.
	check() error
	close() error
}

type workload struct {
	name  string
	setup func(seed uint64, dir string) (bench, error)
	// tracedRounds is how many rounds the traced run makes with tracing
	// on, alternating with as many untraced rounds when the workload is
	// the one whose tracing overhead is measured.
	tracedRounds int
}

var workloads = []workload{
	{"paper", newPaper, 1},
	{"fugaku-apps", newFugaku, 1},
	{"fleet-service", newFleet, 16},
}

const (
	// setupReps is how many fresh processes an untraced run times its
	// workload's set-up in; the median is reported as setup_s.
	setupReps = 9
	// minRounds is the fewest rounds an untraced run measures.
	minRounds = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper, fugaku-apps or fleet-service")
	seed := fs.Uint64("seed", 0, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 30, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	// setupOnly is how an untraced run times set-up in fresh processes.
	setupOnly := fs.Bool("setup-only", false, "set the workload up, print a line, tear it down and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload paper|fugaku-apps|fleet-service, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	work := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(work)
	if *setupOnly {
		b, err := w.setup(*seed, work)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		if err := b.close(); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	var res result
	if *trace == 0 {
		res, err = untraced(*w, *seed, time.Duration(*secs)*time.Second, work)
	} else {
		spans := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		res, err = traced(*w, *seed, work, spans)
	}
	if err == nil {
		err = checkManifest(filepath.Join(root, "BENCHMARK.json"), *trace == 1, res.Metrics)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// untraced times the workload's set-up, sets it up, and runs rounds for
// the measured window (at least minRounds).
func untraced(w workload, seed uint64, window time.Duration, work string) (result, error) {
	setups, err := timeSetups(w, seed)
	if err != nil {
		return result{}, err
	}
	b, err := w.setup(seed, work)
	if err != nil {
		return result{}, err
	}
	s := &sample{}
	start := time.Now()
	for len(s.rounds) < minRounds || time.Since(start)+s.rounds[len(s.rounds)-1] <= window {
		if err := timedRound(b, s, nil); err != nil {
			return result{}, errors.Join(err, b.close())
		}
	}
	checkErr := b.check()
	if err := b.close(); err != nil {
		return result{}, err
	}
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect output:", checkErr)
	}
	lat, ref := seconds(s.jobs), s.refTime()
	m := metrics{}
	m.set("setup_s", median(setups), "s")
	m.set("peak_rss_mb", median(s.peaks), "MB")
	m.set("wall_ref", s.roundTime()/ref, "ref")
	m.set("job_p50_ref", quantile(lat, 0.5)/ref, "ref")
	m.set("job_p90_ref", quantile(lat, 0.9)/ref, "ref")
	return result{Correct: checkErr == nil && s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: m}, nil
}

// timeSetups starts this program setupReps times in set-up-only mode and
// returns, in seconds, the time from each start to the child's report
// that the workload is set up: process start, package initialisation and
// the workload's set-up, the cost a user pays before the first job.
// Fresh processes also average out the per-process speed differences
// (memory layout, CPU placement) that a set-up of tens of microseconds
// repeated in one process keeps.
func timeSetups(w workload, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setups []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(seed), "--setup-only")
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, readErr := bufio.NewReader(out).ReadString('\n')
		d := time.Since(t0)
		if err := cmd.Wait(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		if readErr != nil || line != "ready\n" {
			return nil, fmt.Errorf("set-up process did not report ready: %q, %v", line, readErr)
		}
		setups = append(setups, d.Seconds())
	}
	return setups, nil
}

// traced sets every workload up once and runs tracedRounds pairs of an
// untraced and a traced round of the named workload, to measure the
// tracing overhead; then it makes one traced pass of every other
// workload and probes each layer. The spans go to spansPath.
func traced(w workload, seed uint64, work, spansPath string) (res result, err error) {
	benches := map[string]bench{}
	defer func() {
		for _, b := range benches {
			err = errors.Join(err, b.close())
		}
	}()
	for _, wl := range workloads {
		b, err := wl.setup(seed, filepath.Join(work, wl.name))
		if err != nil {
			return result{}, err
		}
		benches[wl.name] = b
	}

	tr := newTracer()
	total := &sample{}
	plain, withTrace := &sample{}, &sample{}
	for i := 0; i < w.tracedRounds; i++ {
		if err := timedRound(benches[w.name], plain, nil); err != nil {
			return result{}, err
		}
		if err := timedRound(benches[w.name], withTrace, tr); err != nil {
			return result{}, err
		}
	}
	for _, s := range []*sample{plain, withTrace} {
		total.attempted += s.attempted
		total.failed += s.failed
	}
	for _, wl := range workloads {
		if wl.name == w.name {
			continue
		}
		for i := 0; i < wl.tracedRounds; i++ {
			if err := timedRound(benches[wl.name], total, tr); err != nil {
				return result{}, err
			}
		}
	}

	spans := tr.snapshot()
	linkFleetSpans(spans)
	self := selfTimes(spans)
	m := metrics{}
	// The rounds alternate, so both sides see the same host load.
	m.set("trace.overhead_frac", withTrace.roundTime()/plain.roundTime()-1, "frac")
	// The named workload's end-to-end numbers as measured, from its
	// untraced rounds.
	round := plain.roundTime()
	lat := seconds(plain.jobs)
	m.set("wall_s", round, "s")
	m.set("jobs_per_s", float64(len(plain.jobs))/float64(len(plain.rounds))/round, "1/s")
	m.set("job_p50_ms", quantile(lat, 0.5)*1e3, "ms")
	m.set("job_p90_ms", quantile(lat, 0.9)*1e3, "ms")
	m.set("ref_kernel_us", plain.refTime()*1e6, "us")
	m.set("failed_frac", float64(total.failed)/float64(max(1, total.attempted)), "frac")
	correct := total.failed == 0
	for _, wl := range workloads {
		b := benches[wl.name]
		if err := b.layerMetrics(spans, self, m); err != nil {
			return result{}, err
		}
		if err := b.check(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: incorrect output:", err)
			correct = false
		}
	}
	if err := runProbes(filepath.Join(work, "probes"), m); err != nil {
		return result{}, err
	}
	if err := writeSpans(spansPath, spans, self); err != nil {
		return result{}, err
	}
	return result{Correct: correct, Attempted: total.attempted, Failed: total.failed, Metrics: m}, nil
}

// linkFleetSpans parents the spans recorded inside shard handlers: a
// shard's submit or get under the coordinator span for the same spec key
// or job, and a follower's replication ingest under the submit on the
// other shard that it served.
func linkFleetSpans(spans []span) {
	same := func(c, p span) bool { return c.match == p.match }
	link(spans, "service.submit", "fleet.submit", same)
	link(spans, "service.get", "fleet.get", same)
	link(spans, "replication.ingest", "service.submit", func(c, p span) bool { return c.Where != p.Where })
}

// checkManifest verifies that a run reports exactly the metrics, with
// exactly the units, that BENCHMARK.json declares for its mode.
func checkManifest(path string, traced bool, m metrics) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var manifest struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	want := manifest.EndToEnd
	if traced {
		want = manifest.PerLayer
	}
	if len(want) != len(m) {
		return fmt.Errorf("run reports %d metrics, %s declares %d", len(m), path, len(want))
	}
	for _, w := range want {
		got, ok := m[w.Name]
		if !ok || got.Unit != w.Unit {
			return fmt.Errorf("metric %s (%s) declared in %s is not reported as declared", w.Name, w.Unit, path)
		}
	}
	return nil
}
