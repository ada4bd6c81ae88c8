package figures

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clustereval/internal/experiment"
	"clustereval/internal/report"
)

// TestArtefactsCoverThePaper checks the artefact list without running
// it: Tables I-IV then Figs. 1-16 in paper order, every name found by
// Lookup, and each application of the experiment catalog owning at least
// one of Figs. 8-16 and nothing else.
func TestArtefactsCoverThePaper(t *testing.T) {
	var want []string
	for i := 1; i <= 4; i++ {
		want = append(want, fmt.Sprintf("table%d", i))
	}
	for i := 1; i <= 16; i++ {
		want = append(want, fmt.Sprintf("fig%d", i))
	}
	owned := map[string]int{}
	var got []string
	for i, a := range Artefacts() {
		got = append(got, a.Name)
		if b, ok := Lookup(a.Name); !ok || b.Name != a.Name {
			t.Errorf("Lookup(%q) = %q, %v", a.Name, b.Name, ok)
		}
		isApp := i >= len(want)-9 // Figs. 8-16
		if isApp != (a.App != "") {
			t.Errorf("%s: owning app %q", a.Name, a.App)
		}
		if a.App != "" {
			if _, ok := experiment.AppByName(a.App); !ok {
				t.Errorf("%s: app %q is not in the experiment catalog", a.Name, a.App)
			}
			owned[a.App]++
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("artefacts\n got %v\nwant %v", got, want)
	}
	for _, app := range experiment.AppNames() {
		if owned[app] == 0 {
			t.Errorf("app %s owns no figure", app)
		}
	}
	if _, ok := Lookup("fig17"); ok {
		t.Error("Lookup found fig17")
	}
}

// TestAppKindServesItsFigure checks that, on each paper machine, the app
// kind serves exactly the curves its catalog figure plots for that
// machine: the same series, node counts and times.
func TestAppKindServesItsFigure(t *testing.T) {
	p := Default()
	for _, app := range experiment.AppNames() {
		info, _ := experiment.AppByName(app)
		a, ok := Lookup("fig" + strings.TrimPrefix(info.Figure, "Fig. "))
		if !ok || a.App != app {
			t.Fatalf("%s: catalog figure %q is not one of its artefacts", app, info.Figure)
		}
		out, err := a.Make(p)
		if err != nil {
			t.Fatal(err)
		}
		plot := out.(*report.Plot)
		for _, m := range []struct{ slug, name string }{{"cte-arm", p.Arm.Name}, {"mn4", p.Ref.Name}} {
			res, err := experiment.Run(context.Background(), experiment.Spec{Kind: "app", App: app, Machine: m.slug})
			if err != nil {
				t.Fatal(err)
			}
			var served []report.Series
			for _, s := range res.App.Series {
				name := m.name
				if s.Label != "" {
					name += " (" + s.Label + ")"
				}
				rs := report.Series{Name: name}
				for _, pt := range s.Points {
					rs.X = append(rs.X, float64(pt.Nodes))
					rs.Y = append(rs.Y, pt.Seconds)
				}
				served = append(served, rs)
			}
			var plotted []report.Series
			for _, s := range plot.Series {
				if s.Name == m.name || strings.HasPrefix(s.Name, m.name+" (") {
					plotted = append(plotted, s)
				}
			}
			if !reflect.DeepEqual(served, plotted) {
				t.Errorf("%s on %s: served %v, %s plots %v", app, m.name, served, a.Name, plotted)
			}
		}
	}
}
