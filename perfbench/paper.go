package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"clustereval/internal/core"
	"clustereval/internal/figures"
	"clustereval/internal/report"
)

// paperGoldens are the committed clustereval outputs a paper round must
// reproduce byte for byte, keyed by the artefact they pin.
var paperGoldens = map[string]string{
	"table4": "cmd/clustereval/testdata/table4.golden",
	"fig2":   "cmd/clustereval/testdata/fig2.csv.golden",
	"fig5":   "cmd/clustereval/testdata/fig5.csv.golden",
	"fig6":   "cmd/clustereval/testdata/fig6.csv.golden",
	"fig7":   "cmd/clustereval/testdata/fig7.csv.golden",
}

// paperBench regenerates Tables I–IV, Figs. 1–16 and the Section VI
// conclusions on one goroutine, in clustereval's order and with its text
// rendering, into a buffer. Its inputs are the paper's own (core.New,
// figures.Default), so they do not depend on the seed.
type paperBench struct {
	ev     *core.Evaluation
	pair   figures.Pair
	golden map[string][]byte

	first []byte            // rendered output of the first round
	csv   map[string][]byte // golden-pinned CSVs of the first round
	bad   error             // first correctness failure seen
	alloc runtime.MemStats  // allocation delta of the last round
}

func newPaper(_ uint64, _ string) (bench, error) {
	golden := map[string][]byte{}
	for name, path := range paperGoldens {
		data, err := os.ReadFile(filepath.FromSlash(path))
		if err != nil {
			return nil, fmt.Errorf("paper: reading golden: %w", err)
		}
		golden[name] = data
	}
	return &paperBench{ev: core.New(), pair: figures.Default(), golden: golden}, nil
}

// paperStep is one artefact: layer names the span around the call into
// core or figures, and run renders the artefact into w.
type paperStep struct {
	layer string
	run   func(w io.Writer, call func(func() error) error) error
}

func (p *paperBench) steps() []paperStep {
	keep := func(name string, emit func(io.Writer) error) error {
		if p.csv == nil || p.csv[name] != nil {
			return nil
		}
		var buf bytes.Buffer
		if err := emit(&buf); err != nil {
			return err
		}
		p.csv[name] = buf.Bytes()
		return nil
	}
	table := func(layer string, get func() (*report.Table, error)) paperStep {
		return paperStep{layer, func(w io.Writer, call func(func() error) error) error {
			var t *report.Table
			if err := call(func() (err error) { t, err = get(); return err }); err != nil {
				return err
			}
			return renderTable(w, t)
		}}
	}
	plot := func(layer string, get func() (*report.Plot, error)) paperStep {
		return paperStep{layer, func(w io.Writer, call func(func() error) error) error {
			var pl *report.Plot
			if err := call(func() (err error) { pl, err = get(); return err }); err != nil {
				return err
			}
			return pl.Render(w)
		}}
	}
	ev, pair := p.ev, p.pair
	steps := []paperStep{
		table("core.table1", func() (*report.Table, error) { return ev.TableI(), nil }),
		table("core.table2", func() (*report.Table, error) { return ev.TableII(), nil }),
		table("core.table3", func() (*report.Table, error) { return ev.TableIII(), nil }),
		table("core.table4", func() (*report.Table, error) {
			rows, err := ev.TableIV()
			if err != nil {
				return nil, err
			}
			t := core.RenderTableIV(rows)
			return t, keep("table4", t.CSV)
		}),
		table("figures.fig1", pair.Figure1),
		plot("figures.fig2", func() (*report.Plot, error) {
			pl, _, err := pair.Figure2()
			if err != nil {
				return nil, err
			}
			return pl, keep("fig2", pl.CSV)
		}),
		table("figures.fig3", func() (*report.Table, error) {
			t, _, err := pair.Figure3()
			return t, err
		}),
		{"figures.fig4", func(w io.Writer, call func(func() error) error) error {
			var hm *report.Heatmap
			var degraded []int
			if err := call(func() error {
				h, raw, err := pair.Figure4(256)
				if err != nil {
					return err
				}
				hm, degraded = h, raw.DegradedReceivers(0.5)
				return nil
			}); err != nil {
				return err
			}
			if !slices.Contains(degraded, 23) {
				return fmt.Errorf("fig4: degraded receiver node 23 not detected (got %v)", degraded)
			}
			if err := hm.Render(w); err != nil {
				return err
			}
			for _, d := range degraded {
				fmt.Fprintf(w, "degraded receiver detected: node %d\n", d)
			}
			return nil
		}},
		table("figures.fig5", func() (*report.Table, error) {
			t, _, err := pair.Figure5()
			if err != nil {
				return nil, err
			}
			return t, keep("fig5", t.CSV)
		}),
		plot("figures.fig6", func() (*report.Plot, error) {
			pl, _, err := pair.Figure6()
			if err != nil {
				return nil, err
			}
			return pl, keep("fig6", pl.CSV)
		}),
		table("figures.fig7", func() (*report.Table, error) {
			t, _, err := pair.Figure7()
			if err != nil {
				return nil, err
			}
			return t, keep("fig7", t.CSV)
		}),
	}
	for i, f := range []func() (*report.Plot, error){
		pair.Figure8, pair.Figure9, pair.Figure10, pair.Figure11, pair.Figure12,
		pair.Figure13, pair.Figure14, pair.Figure15, pair.Figure16,
	} {
		steps = append(steps, plot(fmt.Sprintf("figures.fig%d", i+8), f))
	}
	return append(steps, paperStep{"core.conclusions", func(w io.Writer, call func(func() error) error) error {
		var findings []core.Finding
		if err := call(func() (err error) { findings, err = ev.Conclusions(); return err }); err != nil {
			return err
		}
		fmt.Fprintln(w, "Conclusions (Section VI), checked against the models:")
		for _, f := range findings {
			if !f.Holds {
				return fmt.Errorf("conclusion does not hold: %s", f.Statement)
			}
			fmt.Fprintf(w, "  [ok  ] %s — %s\n", f.Statement, f.Evidence)
		}
		return nil
	}})
}

// renderTable prints a table the way clustereval does without -csv.
func renderTable(w io.Writer, t *report.Table) error {
	if err := t.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}

func (p *paperBench) round(s *sample, tr *tracer) error {
	if p.first == nil {
		p.csv = map[string][]byte{}
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	root := tr.begin("paper.round", 0, "", "", "")
	var out bytes.Buffer
	steps := p.steps()
	for i, st := range steps {
		t0 := time.Now()
		err := st.run(&out, func(f func() error) error { return tr.do(st.layer, root, f) })
		if i >= 4 && i < len(steps)-1 { // clustereval follows each figure with a blank line
			fmt.Fprintln(&out)
		}
		if err != nil {
			s.fail()
			p.fail(fmt.Errorf("%s: %w", st.layer, err))
			continue
		}
		s.part(st.layer, time.Since(t0))
	}
	tr.end(root)
	runtime.ReadMemStats(&p.alloc)
	p.alloc.TotalAlloc -= before.TotalAlloc
	p.alloc.Mallocs -= before.Mallocs

	switch {
	case p.first == nil:
		p.first = out.Bytes()
	case !bytes.Equal(out.Bytes(), p.first):
		p.fail(fmt.Errorf("paper output differs between rounds"))
	}
	return nil
}

func (p *paperBench) fail(err error) {
	if p.bad == nil {
		p.bad = err
	}
}

func (p *paperBench) check() error {
	if p.bad != nil {
		return p.bad
	}
	for name, want := range p.golden {
		if !bytes.Equal(p.csv[name], want) {
			return fmt.Errorf("paper: %s differs from %s", name, paperGoldens[name])
		}
	}
	return nil
}

func (p *paperBench) close() error { return nil }

// layerMetrics reports the paper spans: the placement-bound Table IV and
// application figures, the pricing-bound Figs. 4–5, the FPU kernel, the
// Section VI conclusions and the rest, plus the allocation volume of one
// round.
func (p *paperBench) layerMetrics(spans []span, _ map[int]int64, m metrics) error {
	sum := map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += float64(s.dur()) / 1e9
	}
	apps := 0.0
	for i := 8; i <= 16; i++ {
		apps += sum[fmt.Sprintf("figures.fig%d", i)]
	}
	m.set("core.table4_s", sum["core.table4"], "s")
	m.set("figures.apps_s", apps, "s")
	m.set("figures.fig1_s", sum["figures.fig1"], "s")
	m.set("figures.fig4_s", sum["figures.fig4"], "s")
	m.set("figures.fig5_s", sum["figures.fig5"], "s")
	m.set("core.conclusions_s", sum["core.conclusions"], "s")
	rest := 0.0
	for _, name := range []string{"core.table1", "core.table2", "core.table3", "figures.fig2",
		"figures.fig3", "figures.fig6", "figures.fig7"} {
		rest += sum[name]
	}
	m.set("figures.rest_s", rest, "s")
	m.set("paper.alloc_mb", float64(p.alloc.TotalAlloc)/(1<<20), "MB")
	m.set("paper.mallocs", float64(p.alloc.Mallocs), "count")
	return nil
}
