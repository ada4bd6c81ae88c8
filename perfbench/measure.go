package main

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample accumulates what the rounds of one workload produced, and the
// reference-kernel times measured between its jobs.
type sample struct {
	rounds    []time.Duration // each round, without the reference time in it
	peaks     []float64       // each round's peak resident memory, MiB
	jobs      []time.Duration // each finished job
	attempted int             // operations attempted
	failed    int             // operations that failed
	// parts holds, for workloads whose every round runs the same jobs,
	// each job's times by job name.
	parts map[string][]time.Duration

	refs     []time.Duration // every reference-kernel time
	refSpent time.Duration   // reference time spent inside the current round
}

// calibrate times the reference kernel once.
func (s *sample) calibrate() {
	r := refKernel()
	s.refs = append(s.refs, r)
	s.refSpent += r
}

// part records a job that every round of the workload runs, then times
// the reference kernel.
func (s *sample) part(name string, d time.Duration) {
	s.job(d)
	if s.parts == nil {
		s.parts = map[string][]time.Duration{}
	}
	s.parts[name] = append(s.parts[name], d)
	s.calibrate()
}

// job records a finished job.
func (s *sample) job(d time.Duration) {
	s.attempted++
	s.jobs = append(s.jobs, d)
}

// fail records a failed operation.
func (s *sample) fail() {
	s.attempted++
	s.failed++
}

// timedRound runs one round of b, records its time without the reference
// time spent in it, and then times the reference kernel.
func timedRound(b bench, s *sample, tr *tracer) error {
	resetPeakRSS()
	s.refSpent = 0
	t0 := time.Now()
	if err := b.round(s, tr); err != nil {
		return err
	}
	s.rounds = append(s.rounds, time.Since(t0)-s.refSpent)
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	s.peaks = append(s.peaks, peak)
	s.calibrate()
	return nil
}

// roundTime estimates one round's time in seconds. A round of fixed jobs
// is the sum of each job's median over the rounds, which a stall in one
// round cannot move; otherwise it is the median round.
func (s *sample) roundTime() float64 {
	if len(s.parts) == 0 {
		return median(seconds(s.rounds))
	}
	t := 0.0
	for _, ds := range s.parts {
		t += median(seconds(ds))
	}
	return t
}

// refTime is the median reference-kernel time in seconds. Workload times
// divided by it are in reference units.
func (s *sample) refTime() float64 { return median(seconds(s.refs)) }

// seconds converts durations to seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// refBuf is the reference kernel's working set; only the goroutine that
// drives the rounds runs the kernel.
var (
	refBuf  [16384]struct{ node, hops int }
	refSink int
)

// refKernel runs a fixed, allocation-free, CPU-bound job and returns its
// time: a xorshift fill of 16384 (node, hops) pairs and a sort by hops
// then node, the shape of the placement code the workloads spend most of
// their time in, with a working set (256 KiB) past the first-level
// caches, as the 6144-node placements have. On a shared host the CPU a run gets varies by up to 2x
// within minutes; workload times divided by the kernel's median time,
// timed between the jobs of the same run, stay comparable across such
// swings and across machines.
func refKernel() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := range refBuf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refBuf[i].node = i
		refBuf[i].hops = int(x%24) + int(x>>8%18) + int(x>>16%16)
	}
	slices.SortFunc(refBuf[:], func(a, b struct{ node, hops int }) int {
		if c := cmp.Compare(a.hops, b.hops); c != 0 {
			return c
		}
		return cmp.Compare(a.node, b.node)
	})
	refSink += refBuf[0].node
	return time.Since(t0)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// millis converts durations to milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// resetPeakRSS resets the process's peak resident set to its current
// resident set, so that the next peakRSSMB covers one round. Where the
// kernel refuses, the peak stays process-wide.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
