package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"clustereval/internal/core"
	"clustereval/internal/experiment"
	"clustereval/internal/figures"
	"clustereval/internal/report"
)

func init() {
	registerTool(&Tool{Name: "clustereval",
		Bind: func(fs *flag.FlagSet) func(experiment.Spec) error {
			table := fs.Int("table", 0, "render one table (1..4); 0 = all")
			figure := fs.Int("figure", 0, "render one figure (1..16); 0 = all")
			csv := fs.Bool("csv", false, "emit tables as CSV")
			out := fs.String("out", "", "write every table and figure as CSV files into this directory")
			kind := fs.String("kind", "", "run one experiment kind from the registry and print its result as JSON (see -spec)")
			spec := fs.String("spec", "", `JSON parameters for -kind, e.g. '{"app":"alya","nodes":32}'`)
			cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
			memprofile := fs.String("memprofile", "", "write a heap profile to this file after the run")
			return func(experiment.Spec) error {
				return withProfiling(*cpuprofile, *memprofile, func() error {
					switch {
					case *kind != "":
						return RunKind(context.Background(), *kind, *spec, os.Stdout)
					case *out != "":
						return ExportAll(os.Stdout, *out)
					default:
						return Eval(os.Stdout, *table, *figure, *csv)
					}
				})
			}
		}})
}

// RunKind executes one registry kind directly — the generic path that
// makes every registered experiment reachable from the clustereval binary
// without a dedicated flag set. params is a JSON object of spec fields
// (without "kind"); the result is printed as indented JSON, preceded by
// the run's summary and the cache key clusterd would file it under.
func RunKind(ctx context.Context, kind, params string, w io.Writer) error {
	var spec experiment.Spec
	if params != "" {
		dec := json.NewDecoder(strings.NewReader(params))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("invalid -spec: %w", err)
		}
	}
	spec.Kind = kind
	norm, key, err := experiment.Canonicalize(spec)
	if err != nil {
		return err
	}
	res, err := experiment.Run(ctx, norm)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# %s\n# cache key %s\n", res.Summary, key)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// Eval reproduces the paper's tables and figures on w: everything by
// default, or one table / one figure when selected. With csv, tables are
// written as CSV; plots and the heatmap keep their text rendering.
func Eval(w io.Writer, table, figure int, csv bool) error {
	pair := figures.Default()
	emit := func(a figures.Artefact) error {
		out, err := a.Make(pair)
		if err != nil {
			return err
		}
		t, ok := out.(*report.Table)
		if !ok {
			return out.Render(w)
		}
		if csv {
			return t.CSV(w)
		}
		if err := t.Render(w); err != nil {
			return err
		}
		_, err = fmt.Fprintln(w)
		return err
	}

	switch {
	case table > 0:
		a, ok := figures.Lookup(fmt.Sprintf("table%d", table))
		if !ok {
			return fmt.Errorf("no table %d (valid: 1..4)", table)
		}
		return emit(a)
	case figure > 0:
		a, ok := figures.Lookup(fmt.Sprintf("fig%d", figure))
		if !ok {
			return fmt.Errorf("no figure %d (valid: 1..16)", figure)
		}
		return emit(a)
	}
	for _, a := range figures.Artefacts() {
		if err := emit(a); err != nil {
			return err
		}
		if strings.HasPrefix(a.Name, "fig") {
			fmt.Fprintln(w)
		}
	}
	// Section VI: the paper's conclusions, re-derived and checked.
	findings, err := core.New().Conclusions()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Conclusions (Section VI), checked against the models:")
	for _, f := range findings {
		mark := "ok  "
		if !f.Holds {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  [%s] %s — %s\n", mark, f.Statement, f.Evidence)
	}
	return nil
}

// ExportAll writes every table and figure of the reproduction as CSV
// files under dir, in paper order, so the data can be replotted with
// external tooling. Each file written is logged on w.
func ExportAll(w io.Writer, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, out figures.Output) error {
		path := filepath.Join(dir, name+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := out.CSV(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote", path)
		return nil
	}

	pair := figures.Default()
	for _, a := range figures.Artefacts() {
		out, err := a.Make(pair)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		if err := write(a.Name, out); err != nil {
			return err
		}
	}
	// Beyond the paper: modeled energy-to-solution for every workload on
	// every registered machine preset.
	energy, err := figures.EnergyToSolution()
	if err != nil {
		return fmt.Errorf("energy: %w", err)
	}
	return write("energy", energy)
}
