// Package core regenerates the paper's tables over the CTE-Arm vs
// MareNostrum 4 pair: the hardware configuration (Table I), the STREAM
// and application build configurations (Tables II and III), the Table IV
// speedup summary, and the Section VI conclusions re-derived from it.
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"clustereval/internal/apps/alya"
	"clustereval/internal/apps/gromacs"
	"clustereval/internal/apps/nemo"
	"clustereval/internal/apps/openifs"
	"clustereval/internal/apps/wrf"
	"clustereval/internal/hpcg"
	"clustereval/internal/hpl"
	"clustereval/internal/machine"
	"clustereval/internal/report"
	"clustereval/internal/toolchain"
	"clustereval/internal/units"
)

// Evaluation binds the two systems under comparison.
type Evaluation struct {
	Arm machine.Machine // CTE-Arm (A64FX)
	Ref machine.Machine // MareNostrum 4 (Skylake)
}

// New returns the paper's evaluation: CTE-Arm vs MareNostrum 4.
func New() *Evaluation {
	return &Evaluation{Arm: machine.CTEArm(), Ref: machine.MareNostrum4()}
}

// TableI renders the hardware configuration table.
func (e *Evaluation) TableI() *report.Table {
	t := &report.Table{
		Title:   "Table I: hardware configuration",
		Headers: []string{"", e.Arm.Name, e.Ref.Name},
	}
	simd := func(m machine.Machine) string {
		parts := make([]string, len(m.SIMD))
		for i, s := range m.SIMD {
			parts[i] = string(s)
		}
		return strings.Join(parts, ", ")
	}
	rows := []struct {
		label    string
		arm, ref string
	}{
		{"System integrator", e.Arm.Integrator, e.Ref.Integrator},
		{"Core architecture", e.Arm.Arch, e.Ref.Arch},
		{"SIMD extensions", simd(e.Arm), simd(e.Ref)},
		{"CPU name", e.Arm.CPUName, e.Ref.CPUName},
		{"Frequency [GHz]", fmt.Sprintf("%.2f", e.Arm.Node.Core.FrequencyHz/1e9),
			fmt.Sprintf("%.2f", e.Ref.Node.Core.FrequencyHz/1e9)},
		{"Sockets / node", fmt.Sprint(e.Arm.Node.Sockets), fmt.Sprint(e.Ref.Node.Sockets)},
		{"Cores / node", fmt.Sprint(e.Arm.Node.Cores()), fmt.Sprint(e.Ref.Node.Cores())},
		{"DP peak / core [GFlop/s]", fmt.Sprintf("%.2f", e.Arm.Node.Core.DoublePeak().Giga()),
			fmt.Sprintf("%.2f", e.Ref.Node.Core.DoublePeak().Giga())},
		{"DP peak / node [GFlop/s]", fmt.Sprintf("%.2f", e.Arm.Node.DoublePeak().Giga()),
			fmt.Sprintf("%.2f", e.Ref.Node.DoublePeak().Giga())},
		{"Memory / node [GB]", fmt.Sprintf("%.0f", e.Arm.Node.MemoryBytes/1e9),
			fmt.Sprintf("%.0f", e.Ref.Node.MemoryBytes/1e9)},
		{"Memory technology", e.Arm.Node.Domains[0].Technology, e.Ref.Node.Domains[0].Technology},
		{"Peak memory BW [GB/s]", fmt.Sprintf("%.0f", e.Arm.Node.MemoryPeak().GB()),
			fmt.Sprintf("%.0f", e.Ref.Node.MemoryPeak().GB())},
		{"Number of nodes", fmt.Sprint(e.Arm.Nodes), fmt.Sprint(e.Ref.Nodes)},
		{"Interconnect", string(e.Arm.Network.Kind), string(e.Ref.Network.Kind)},
		{"Peak network BW [GB/s]", fmt.Sprintf("%.2f", e.Arm.Network.LinkPeak.GB()),
			fmt.Sprintf("%.2f", e.Ref.Network.LinkPeak.GB())},
	}
	for _, r := range rows {
		t.AddRow(r.label, r.arm, r.ref)
	}
	return t
}

// TableII renders the STREAM build configurations.
func (e *Evaluation) TableII() *report.Table {
	t := &report.Table{
		Title:   "Table II: build configurations for STREAM",
		Headers: []string{"Build", "Compiler", "Flags"},
	}
	add := func(name string, c toolchain.Compiler) {
		t.AddRow(name, c.String(), strings.Join(c.Flags, " "))
	}
	add("CTE-Arm OpenMP", toolchain.StreamOpenMPArm())
	add("CTE-Arm MPI+OpenMP", toolchain.StreamHybridArm())
	add("MareNostrum 4 OpenMP", toolchain.StreamMN4())
	add("MareNostrum 4 MPI+OpenMP", toolchain.StreamMN4())
	return t
}

// TableIII renders the application build configurations.
func (e *Evaluation) TableIII() *report.Table {
	t := &report.Table{
		Title:   "Table III: build configurations for all HPC applications",
		Headers: []string{"Application", "Machine", "Compiler", "MPI", "Dependencies"},
	}
	for _, b := range toolchain.AppBuilds() {
		t.AddRow(b.App, b.Machine, b.Compiler.String(), b.MPIFlavor,
			strings.Join(b.Dependencies, " "))
	}
	return t
}

// Cell is one Table IV entry.
type Cell struct {
	Nodes   int
	Speedup float64
	NP, NA  bool
}

// String renders the cell the way the paper prints it.
func (c Cell) String() string {
	switch {
	case c.NP:
		return "NP"
	case c.NA:
		return "N/A"
	default:
		return fmt.Sprintf("%.2f", c.Speedup)
	}
}

// Row is one Table IV application row.
type Row struct {
	App   string
	Cells []Cell
}

// TableIVNodes are the columns of Table IV.
func TableIVNodes() []int { return []int{1, 16, 32, 64, 128, 192} }

// speedupRow declares one Table IV row. TableIV decides every cell from
// it: NP where the case does not fit on either machine, N/A where the
// paper has no measurement, the speedup otherwise.
type speedupRow struct {
	app string
	// model builds the row's model on one machine.
	model func(m machine.Machine) (rowModel, error)
	// measured reports whether the paper measured the n-node column.
	measured func(n int) bool
	// perf marks a performance metric, whose speedup is Arm/Ref. Every
	// other row measures a time, whose speedup is Ref/Arm.
	perf bool
}

// rowModel is one Table IV row's model on one machine.
type rowModel struct {
	// fits is the memory-floor rule: whether the case fits on n nodes.
	// Nil means every node count fits.
	fits func(n int) bool
	// metric is the row's performance or time on n nodes.
	metric func(n int) (float64, error)
}

func every(int) bool { return true }

func upTo(max int) func(int) bool { return func(n int) bool { return n <= max } }

func atLeast(min int) func(int) bool { return func(n int) bool { return n >= min } }

func only(cols ...int) func(int) bool {
	return func(n int) bool { return slices.Contains(cols, n) }
}

func seconds(t units.Seconds, err error) (float64, error) { return float64(t), err }

// tableIVRows are Table IV's rows in the paper's order, with the columns
// the paper measured.
var tableIVRows = []speedupRow{
	{app: "LINPACK", measured: every, perf: true, model: func(m machine.Machine) (rowModel, error) {
		return rowModel{metric: func(n int) (float64, error) {
			r, err := hpl.Predict(m, n)
			return float64(r.Perf), err
		}}, nil
	}},
	{app: "HPCG", measured: only(1, 192), perf: true, model: func(m machine.Machine) (rowModel, error) {
		return rowModel{metric: func(n int) (float64, error) {
			r, err := hpcg.Predict(m, hpcg.Optimized, n)
			return float64(r.Perf), err
		}}, nil
	}},
	{app: "Alya", measured: upTo(64), model: func(m machine.Machine) (rowModel, error) {
		mod, err := alya.NewModel(m, alya.TestCaseB())
		if err != nil {
			return rowModel{}, err
		}
		return rowModel{fits: atLeast(mod.MinNodes()), metric: func(n int) (float64, error) {
			_, _, t, err := mod.StepTimes(n)
			return float64(t), err
		}}, nil
	}},
	// OpenIFS runs the TL255L91 case on one node and TC0511L91 above it.
	{app: "OpenIFS", measured: upTo(128), model: func(m machine.Machine) (rowModel, error) {
		single, err := openifs.NewModel(m, openifs.TL255L91())
		if err != nil {
			return rowModel{}, err
		}
		multi, err := openifs.NewModel(m, openifs.TC0511L91())
		if err != nil {
			return rowModel{}, err
		}
		cores := m.Node.Cores()
		return rowModel{
			fits: func(n int) bool { return n == 1 || n >= multi.MinNodes() },
			metric: func(n int) (float64, error) {
				if n == 1 {
					return seconds(single.DayTime(1, cores))
				}
				return seconds(multi.DayTime(n, n*cores))
			},
		}, nil
	}},
	{app: "Gromacs", measured: every, model: func(m machine.Machine) (rowModel, error) {
		mod, err := gromacs.NewModel(m, gromacs.LignocelluloseRF())
		if err != nil {
			return rowModel{}, err
		}
		return rowModel{metric: func(n int) (float64, error) {
			return seconds(mod.StepTime(gromacs.Layout{Nodes: n, Ranks: 8 * n, ThreadsPerRank: 6}))
		}}, nil
	}},
	{app: "WRF", measured: upTo(64), model: func(m machine.Machine) (rowModel, error) {
		mod, err := wrf.NewModel(m, wrf.Iberia4km())
		if err != nil {
			return rowModel{}, err
		}
		return rowModel{metric: func(n int) (float64, error) { return seconds(mod.ElapsedTime(n, true)) }}, nil
	}},
	{app: "NEMO", measured: only(16), model: func(m machine.Machine) (rowModel, error) {
		mod, err := nemo.NewModel(m, nemo.BenchORCA1())
		if err != nil {
			return rowModel{}, err
		}
		return rowModel{fits: atLeast(mod.MinNodes()), metric: func(n int) (float64, error) {
			return seconds(mod.ExecutionTime(n))
		}}, nil
	}},
}

// TableIV computes the speedup summary of the paper's conclusions: the
// performance of CTE-Arm relative to MareNostrum 4 at equal node counts.
func (e *Evaluation) TableIV() ([]Row, error) {
	rows := make([]Row, 0, len(tableIVRows))
	for _, r := range tableIVRows {
		row, err := e.speedups(r)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", r.app, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// speedups evaluates one Table IV row over every column.
func (e *Evaluation) speedups(r speedupRow) (Row, error) {
	arm, err := r.model(e.Arm)
	if err != nil {
		return Row{}, err
	}
	ref, err := r.model(e.Ref)
	if err != nil {
		return Row{}, err
	}
	row := Row{App: r.app}
	for _, n := range TableIVNodes() {
		c := Cell{Nodes: n}
		switch {
		case !arm.fitsOn(n) || !ref.fitsOn(n):
			c.NP = true
		case !r.measured(n):
			c.NA = true
		default:
			a, err := arm.metric(n)
			if err != nil {
				return Row{}, err
			}
			b, err := ref.metric(n)
			if err != nil {
				return Row{}, err
			}
			c.Speedup = b / a
			if r.perf {
				c.Speedup = a / b
			}
		}
		row.Cells = append(row.Cells, c)
	}
	return row, nil
}

func (m rowModel) fitsOn(n int) bool { return m.fits == nil || m.fits(n) }

// RenderTableIV formats the rows as the paper's Table IV.
func RenderTableIV(rows []Row) *report.Table {
	headers := []string{"Applications"}
	for _, n := range TableIVNodes() {
		headers = append(headers, strconv.Itoa(n))
	}
	t := &report.Table{
		Title:   "Table IV: speedup of CTE-Arm relative to MareNostrum 4",
		Headers: headers,
	}
	for _, r := range rows {
		cells := []string{r.App}
		for _, c := range r.Cells {
			cells = append(cells, c.String())
		}
		t.AddRow(cells...)
	}
	return t
}
