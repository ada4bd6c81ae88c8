package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"clustereval/internal/core"
	"clustereval/internal/experiment/cli"
)

// -update regenerates the golden files from current output.
var update = flag.Bool("update", false, "rewrite golden files")

// run calls f with a buffer and returns what it wrote; a failed run
// fails the test.
func run(t *testing.T, f func(w io.Writer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := f(&buf); err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, buf.String())
	}
	return buf.String()
}

// memo runs f at most once per test binary and keeps what it wrote.
func memo(f func(w io.Writer) error) func() (string, error) {
	return sync.OnceValues(func() (string, error) {
		var buf bytes.Buffer
		err := f(&buf)
		return buf.String(), err
	})
}

// The full modes regenerate the whole paper, so each runs at most once
// per test binary and every test that needs one shares its output. The
// tests reading them run in parallel, so the three runs overlap.
var (
	paperText = memo(func(w io.Writer) error { return cli.Eval(w, 0, 0, false) })
	paperCSV  = memo(func(w io.Writer) error { return cli.Eval(w, 0, 0, true) })
	exportDir string // removed by TestMain
	exportLog = memo(func(w io.Writer) error {
		dir, err := os.MkdirTemp("", "clustereval-export-")
		if err != nil {
			return err
		}
		exportDir = dir
		return cli.ExportAll(w, dir)
	})
)

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if exportDir != "" {
		os.RemoveAll(exportDir)
	}
	os.Exit(code)
}

// shared marks t parallel and returns the output of a memoised
// full-mode run, failing t if the run failed.
func shared(t *testing.T, run func() (string, error)) string {
	t.Helper()
	t.Parallel()
	out, err := run()
	if err != nil {
		t.Fatalf("run failed: %v\noutput:\n%s", err, out)
	}
	return out
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden file %s\n--- got ---\n%s--- want ---\n%s",
			golden, got, want)
	}
}

func TestRunTable4(t *testing.T) {
	out := run(t, func(w io.Writer) error { return cli.Eval(w, 4, 0, false) })
	for _, want := range []string{"LINPACK", "NEMO", "NP", "N/A"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 4 output missing %q", want)
		}
	}
}

func TestRunTable4CSV(t *testing.T) {
	out := run(t, func(w io.Writer) error { return cli.Eval(w, 4, 0, true) })
	if !strings.Contains(out, "Applications,1,16,32,64,128,192") {
		t.Errorf("CSV header missing:\n%s", out)
	}
}

// TestRunTable4CSVGolden pins the exact Table IV CSV byte-for-byte. The
// table aggregates HPL, HPCG and all five application models, so any
// accidental drift anywhere in the simulation stack shows up here as a
// one-line diff. Refresh intentionally with: go test ./cmd/clustereval -update
func TestRunTable4CSVGolden(t *testing.T) {
	out := run(t, func(w io.Writer) error { return cli.Eval(w, 4, 0, true) })
	checkGolden(t, "table4.golden", []byte(out))
}

func TestRunFigure(t *testing.T) {
	out := run(t, func(w io.Writer) error { return cli.Eval(w, 0, 6, false) })
	if !strings.Contains(out, "Linpack scalability") {
		t.Errorf("figure 6 output wrong:\n%s", out)
	}
	out = run(t, func(w io.Writer) error { return cli.Eval(w, 0, 4, false) })
	if !strings.Contains(out, "degraded receiver detected: node 23") {
		t.Errorf("figure 4 should flag node 23:\n%s", out)
	}
}

func TestExportAll(t *testing.T) {
	out := shared(t, exportLog)
	dir := exportDir
	if !strings.Contains(out, "table4.csv") || !strings.Contains(out, "fig16.csv") {
		t.Errorf("export log incomplete:\n%s", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// 4 tables + 16 figures + the energy-to-solution table.
	if len(entries) != 21 {
		t.Errorf("exported %d files, want 21", len(entries))
	}
	data, err := os.ReadFile(dir + "/fig2.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,x,y\n") {
		t.Errorf("fig2.csv header wrong: %.40s", data)
	}
	// The degraded-receiver lines belong to Fig. 4's text rendering only.
	data, err = os.ReadFile(filepath.Join(dir, "fig4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("degraded")) {
		t.Error("fig4.csv carries the text-mode degraded-receiver lines")
	}
}

// TestExportOrder pins -out's write order: the paper's order, then the
// energy table, identical on every run.
func TestExportOrder(t *testing.T) {
	var want []string
	for i := 1; i <= 4; i++ {
		want = append(want, fmt.Sprintf("table%d.csv", i))
	}
	for i := 1; i <= 16; i++ {
		want = append(want, fmt.Sprintf("fig%d.csv", i))
	}
	want = append(want, "energy.csv")

	var got []string
	for _, line := range strings.Split(strings.TrimSpace(shared(t, exportLog)), "\n") {
		path, ok := strings.CutPrefix(line, "wrote ")
		if !ok {
			t.Fatalf("unexpected log line %q", line)
		}
		got = append(got, filepath.Base(path))
	}
	if !slices.Equal(got, want) {
		t.Errorf("write order\n got %v\nwant %v", got, want)
	}
}

func TestRunRejectsBadSelectors(t *testing.T) {
	if err := cli.Eval(io.Discard, 9, 0, false); err == nil {
		t.Error("table 9 accepted")
	}
	if err := cli.Eval(io.Discard, 0, 99, false); err == nil {
		t.Error("figure 99 accepted")
	}
}

// TestExportGoldenCSVs pins the exported CSVs of the paper's headline
// benchmark figures byte-for-byte: Fig. 2 (STREAM Triad sweep), Fig. 5
// (network bandwidth distribution), Fig. 6 (HPL scalability) and Fig. 7
// (HPCG). Together with table4.golden this covers the memory, network and
// compute layers of the simulation, so any unintended drift anywhere below
// shows up as a CSV diff. Refresh intentionally with:
//
//	go test ./cmd/clustereval -run TestExportGoldenCSVs -update
func TestExportGoldenCSVs(t *testing.T) {
	shared(t, exportLog)
	for _, name := range []string{"fig2.csv", "fig5.csv", "fig6.csv", "fig7.csv"} {
		got, err := os.ReadFile(filepath.Join(exportDir, name))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, name+".golden", got)
	}
}

// TestPaperGolden pins the full text-mode output of clustereval: every
// table, figure and conclusion in paper order.
func TestPaperGolden(t *testing.T) {
	checkGolden(t, "paper.golden", []byte(shared(t, paperText)))
}

// TestPaperCSVGolden pins the full -csv output. Tables are CSV in this
// mode; plots and the heatmap stay in their text rendering.
func TestPaperCSVGolden(t *testing.T) {
	checkGolden(t, "paper_csv.golden", []byte(shared(t, paperCSV)))
}

// TestExportHashes pins every file -out writes by its SHA-256, one
// "hash  name" line per file sorted by name (fig4.csv alone is close to
// 1 MB, so the bytes are not committed).
func TestExportHashes(t *testing.T) {
	shared(t, exportLog)
	entries, err := os.ReadDir(exportDir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var sums bytes.Buffer
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(exportDir, name))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(data), name)
	}
	checkGolden(t, "export.sha256", sums.Bytes())
}

// TestTableIVCellsGolden pins every Table IV cell exactly: NP, N/A or
// the shortest decimal that round-trips the float64 speedup, so drift in
// the last bits shows even where the rendered %.2f would hide it.
func TestTableIVCellsGolden(t *testing.T) {
	rows, err := core.New().TableIV()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, r := range rows {
		for _, c := range r.Cells {
			v := strconv.FormatFloat(c.Speedup, 'g', -1, 64)
			switch {
			case c.NP:
				v = "NP"
			case c.NA:
				v = "NA"
			}
			fmt.Fprintf(&b, "%s %d %s\n", r.App, c.Nodes, v)
		}
	}
	checkGolden(t, "table4_cells.golden", b.Bytes())
}
