package figures

import (
	"fmt"
	"slices"
	"testing"

	"clustereval/internal/experiment"
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
