package experiment_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"clustereval/internal/experiment"
	"clustereval/internal/faultsim"
)

// -update regenerates the golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

// appResultSpecs is the app-kind matrix app_results.golden pins: every
// catalog application on both paper machines and one machine outside the
// pair, at the paper seed and a reseeded fabric, plus node probes and a
// faulted run.
func appResultSpecs() []experiment.Spec {
	var specs []experiment.Spec
	for _, app := range experiment.AppNames() {
		for _, m := range []string{"cte-arm", "mn4", "thunderx2"} {
			for _, seed := range []uint64{0, 7} {
				specs = append(specs, experiment.Spec{Kind: "app", App: app, Machine: m, Seed: seed})
			}
		}
	}
	return append(specs,
		experiment.Spec{Kind: "app", App: "alya", Machine: "cte-arm", Nodes: 32},
		experiment.Spec{Kind: "app", App: "nemo", Machine: "mn4", Nodes: 16},
		experiment.Spec{Kind: "app", App: "alya", Machine: "cte-arm",
			Faults: &faultsim.Spec{Nodes: []faultsim.NodeFault{{Node: 0, Slowdown: 2}}}},
	)
}

// TestAppResultsGolden pins the full experiment.Run result of every app
// spec above: one line per spec, its canonical JSON and the SHA-256 of
// the result JSON. Refresh intentionally with:
// go test ./internal/experiment -run TestAppResultsGolden -update
func TestAppResultsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, spec := range appResultSpecs() {
		canon, _, err := experiment.Canonicalize(spec)
		if err != nil {
			t.Fatalf("canonicalize %+v: %v", spec, err)
		}
		key, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		res, err := experiment.Run(context.Background(), canon)
		if err != nil {
			t.Fatalf("run %s: %v", key, err)
		}
		out, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "%s %x\n", key, sha256.Sum256(out))
	}
	golden := filepath.Join("testdata", "app_results.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("app results drifted from golden file %s\n--- got ---\n%s--- want ---\n%s",
			golden, buf.Bytes(), want)
	}
}
