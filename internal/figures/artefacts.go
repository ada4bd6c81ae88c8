package figures

import (
	"fmt"
	"io"
	"slices"

	"clustereval/internal/core"
)

// Output is a rendered artefact: a *report.Table, *report.Plot or
// *report.Heatmap.
type Output interface {
	Render(w io.Writer) error
	CSV(w io.Writer) error
}

// Artefact is one table or figure of the paper.
type Artefact struct {
	// Name is "table1".."table4" or "fig1".."fig16".
	Name string
	// App is the Section V application owning Figs. 8-16, named as in
	// the experiment registry's catalog; empty for every other artefact.
	App string
	// Make regenerates the artefact on a machine pair.
	Make func(Pair) (Output, error)
}

// artefacts lists the paper's tables and figures in paper order. It is
// the only list of them: clustereval's -table, -figure, -csv and -out
// modes and appbench's per-application figures all iterate it.
var artefacts = []Artefact{
	{Name: "table1", Make: func(p Pair) (Output, error) { return p.evaluation().TableI(), nil }},
	{Name: "table2", Make: func(p Pair) (Output, error) { return p.evaluation().TableII(), nil }},
	{Name: "table3", Make: func(p Pair) (Output, error) { return p.evaluation().TableIII(), nil }},
	{Name: "table4", Make: func(p Pair) (Output, error) {
		rows, err := p.evaluation().TableIV()
		if err != nil {
			return nil, err
		}
		return core.RenderTableIV(rows), nil
	}},
	{Name: "fig1", Make: one(Pair.Figure1)},
	{Name: "fig2", Make: first(Pair.Figure2)},
	{Name: "fig3", Make: first(Pair.Figure3)},
	{Name: "fig4", Make: func(p Pair) (Output, error) {
		hm, raw, err := p.Figure4(256)
		if err != nil {
			return nil, err
		}
		out := noted{Output: hm}
		for _, d := range raw.DegradedReceivers(0.5) {
			out.notes = append(out.notes, fmt.Sprintf("degraded receiver detected: node %d", d))
		}
		return out, nil
	}},
	{Name: "fig5", Make: first(Pair.Figure5)},
	{Name: "fig6", Make: first(Pair.Figure6)},
	{Name: "fig7", Make: first(Pair.Figure7)},
	{Name: "fig8", App: "alya", Make: one(Pair.Figure8)},
	{Name: "fig9", App: "alya", Make: one(Pair.Figure9)},
	{Name: "fig10", App: "alya", Make: one(Pair.Figure10)},
	{Name: "fig11", App: "nemo", Make: one(Pair.Figure11)},
	{Name: "fig12", App: "gromacs", Make: one(Pair.Figure12)},
	{Name: "fig13", App: "gromacs", Make: one(Pair.Figure13)},
	{Name: "fig14", App: "openifs", Make: one(Pair.Figure14)},
	{Name: "fig15", App: "openifs", Make: one(Pair.Figure15)},
	{Name: "fig16", App: "wrf", Make: one(Pair.Figure16)},
}

// Artefacts returns the paper's tables and figures in paper order.
func Artefacts() []Artefact { return slices.Clone(artefacts) }

// Lookup returns the artefact with the given name.
func Lookup(name string) (Artefact, bool) {
	i := slices.IndexFunc(artefacts, func(a Artefact) bool { return a.Name == name })
	if i < 0 {
		return Artefact{}, false
	}
	return artefacts[i], true
}

// evaluation returns the tables' view of the pair.
func (p Pair) evaluation() *core.Evaluation {
	return &core.Evaluation{Arm: p.Arm, Ref: p.Ref}
}

// one adapts a figure entry point to an artefact producer.
func one[T Output](f func(Pair) (T, error)) func(Pair) (Output, error) {
	return func(p Pair) (Output, error) { return f(p) }
}

// first adapts a figure entry point that also returns its raw data.
func first[T Output, D any](f func(Pair) (T, D, error)) func(Pair) (Output, error) {
	return func(p Pair) (Output, error) {
		out, _, err := f(p)
		return out, err
	}
}

// noted is an output whose text rendering ends with extra lines; its CSV
// carries the data alone.
type noted struct {
	Output
	notes []string
}

func (n noted) Render(w io.Writer) error {
	if err := n.Output.Render(w); err != nil {
		return err
	}
	for _, line := range n.notes {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
