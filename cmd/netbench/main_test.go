package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"sync"
	"testing"

	"clustereval/internal/experiment/cli"
	"clustereval/internal/units"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", errRun, out)
	}
	return out
}

type netBenchArgs struct {
	size units.Bytes
	des  bool
	seed uint64
}

var (
	sharedMu  sync.Mutex
	sharedOut = map[netBenchArgs]string{}
)

// shared returns the output of cli.NetBench for args, running it at most
// once per test binary, so the -des runs serve both tests below.
func shared(t *testing.T, args netBenchArgs) string {
	t.Helper()
	sharedMu.Lock()
	defer sharedMu.Unlock()
	out, ok := sharedOut[args]
	if !ok {
		out = capture(t, func() error { return cli.NetBench(args.size, args.des, args.seed) })
		sharedOut[args] = out
	}
	return out
}

// TestRunFlagCombinations checks each flag's visible effect. The -des cases
// reuse the runs of TestSeedReproducibility.
func TestRunFlagCombinations(t *testing.T) {
	tests := []struct {
		name    string
		size    units.Bytes
		des     bool
		seed    uint64
		want    []string
		notWant []string
	}{
		{
			name: "defaults",
			size: 256,
			want: []string{
				"Fig. 4: bandwidth of all node pairs (msg size 256 B)",
				"degraded receiver: node 23",
				"Fig. 5: bandwidth distribution over all node pairs",
				"bimodal sizes:",
			},
			notWant: []string{"DES Sendrecv loop"},
		},
		{
			name: "large message",
			size: 4 << 20,
			want: []string{"msg size 4 MiB", "degraded receiver: node 23"},
		},
		{
			name: "des loop",
			size: 256,
			des:  true,
			want: []string{
				"DES Sendrecv loop, nodes 0->100",
				"DES ping-pong latency (half round trip), nodes 0->100:",
			},
		},
		{
			name: "seeded",
			size: 256,
			des:  true,
			seed: 7,
			// The degraded node is injected, not noise: it must survive any
			// reseeding of the fabric.
			want: []string{"degraded receiver: node 23", "bimodal sizes:"},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out := shared(t, netBenchArgs{tc.size, tc.des, tc.seed})
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
			for _, nw := range tc.notWant {
				if strings.Contains(out, nw) {
					t.Errorf("output unexpectedly contains %q", nw)
				}
			}
		})
	}
}

// TestSeedReproducibility pins the -seed contract: the same seed yields
// byte-identical output, and the paper seed (0) differs from a reseeded run
// somewhere in the DES bandwidth numbers. The second seed-7 run is always
// fresh.
func TestSeedReproducibility(t *testing.T) {
	a := shared(t, netBenchArgs{256, true, 7})
	b := capture(t, func() error { return cli.NetBench(256, true, 7) })
	if a != b {
		t.Error("same seed produced different output")
	}
	c := shared(t, netBenchArgs{256, true, 0})
	if a == c {
		t.Error("seed 7 output identical to paper-default output; seed not plumbed through")
	}
}
