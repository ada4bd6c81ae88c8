package main

import (
	"context"
	"encoding/csv"
	"fmt"
	"os"
	"time"

	"clustereval/internal/experiment"
)

// energyGolden is the committed energy-to-solution figure; its fugaku
// column pins the result of every app sweep on the Fugaku partition.
const energyGolden = "internal/figures/testdata/energy_to_solution.csv"

// energyLabels maps app names to their row labels in energyGolden.
var energyLabels = map[string]string{
	"alya": "Alya", "nemo": "NEMO", "gromacs": "Gromacs", "openifs": "OpenIFS", "wrf": "WRF",
}

// fugakuBench runs the five Section V app sweeps one after another through
// experiment.Run on the fugaku preset, the entry point clusterd serves.
// Its inputs are the apps' paper sweeps, so they do not depend on the seed.
type fugakuBench struct {
	apps  []string
	specs []experiment.Spec   // canonical spec per app
	want  map[string]string   // golden fugaku cell per app
	got   map[string][]string // fugaku cell per app, one per round
	bad   error
}

func newFugaku(_ uint64, _ string) (bench, error) {
	f, err := os.Open(energyGolden)
	if err != nil {
		return nil, fmt.Errorf("fugaku-apps: %w", err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil || len(rows) == 0 {
		return nil, fmt.Errorf("fugaku-apps: parsing %s: %v", energyGolden, err)
	}
	col := -1
	for i, h := range rows[0] {
		if h == "fugaku" {
			col = i
		}
	}
	if col < 0 {
		return nil, fmt.Errorf("fugaku-apps: %s has no fugaku column", energyGolden)
	}
	b := &fugakuBench{apps: experiment.AppNames(), want: map[string]string{}, got: map[string][]string{}}
	for _, app := range b.apps {
		for _, row := range rows[1:] {
			if row[0] == energyLabels[app] {
				b.want[app] = row[col]
			}
		}
		if b.want[app] == "" {
			return nil, fmt.Errorf("fugaku-apps: %s has no row for %s", energyGolden, app)
		}
		spec, _, err := experiment.Canonicalize(experiment.Spec{Kind: "app", App: app, Machine: "fugaku"})
		if err != nil {
			return nil, err
		}
		b.specs = append(b.specs, spec)
	}
	return b, nil
}

func (b *fugakuBench) round(s *sample, tr *tracer) error {
	root := tr.begin("fugaku.round", 0, "", "", "")
	defer tr.end(root)
	for i, app := range b.apps {
		t0 := time.Now()
		var res *experiment.Result
		err := tr.do("experiment.fugaku."+app, root, func() (err error) {
			res, err = experiment.Run(context.Background(), b.specs[i])
			return err
		})
		if err == nil && res.Energy == nil {
			err = fmt.Errorf("no energy block")
		}
		if err != nil {
			s.fail()
			if b.bad == nil {
				b.bad = fmt.Errorf("fugaku-apps: %s: %w", app, err)
			}
			continue
		}
		s.part(app, time.Since(t0))
		b.got[app] = append(b.got[app], fmt.Sprintf("%.4g kJ / %d nd", res.Energy.Joules/1e3, res.Energy.Nodes))
	}
	return nil
}

// check compares every round's energy-to-solution cell with the golden
// fugaku column, formatted as figures.EnergyToSolution formats it.
func (b *fugakuBench) check() error {
	if b.bad != nil {
		return b.bad
	}
	for _, app := range b.apps {
		for _, got := range b.got[app] {
			if got != b.want[app] {
				return fmt.Errorf("fugaku-apps: %s gives %q, golden %q", app, got, b.want[app])
			}
		}
	}
	return nil
}

func (b *fugakuBench) close() error { return nil }

// layerMetrics reports the time of each app sweep.
func (b *fugakuBench) layerMetrics(spans []span, _ map[int]int64, m metrics) error {
	sum := map[string]float64{}
	for _, s := range spans {
		sum[s.Name] += float64(s.dur()) / 1e9
	}
	for _, app := range b.apps {
		m.set("experiment.fugaku."+app+"_s", sum["experiment.fugaku."+app], "s")
	}
	return nil
}
