package main

import (
	"bytes"
	"testing"

	"clustereval/internal/experiment"
)

// The spec generator must be a pure function of the seed: the same seed
// gives the same pool and the same per-client submission streams, and a
// different seed gives different ones.
func TestSpecGenDeterministicPerSeed(t *testing.T) {
	stream := func(seed uint64, client int) [][]byte {
		g := newSpecGen(seed, client, specPool(seed))
		var out [][]byte
		for i := 0; i < 500; i++ {
			s, _ := g.next()
			out = append(out, s.body)
		}
		return out
	}
	same := func(a, b [][]byte) bool {
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if !same(stream(7, 0), stream(7, 0)) {
		t.Fatal("seed 7 gave two different streams")
	}
	if same(stream(7, 0), stream(8, 0)) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
	if same(stream(7, 0), stream(7, 1)) {
		t.Fatal("clients 0 and 1 got the same stream")
	}
}

// Pool specs are distinct and every fresh spec has a key no pool spec
// and no earlier fresh spec has, so resubmissions hit and fresh specs
// miss; about hitShare of the draws are resubmissions.
func TestSpecGenHitsAndMisses(t *testing.T) {
	pool := specPool(3)
	keys := map[string]bool{}
	for _, s := range pool {
		keys[s.key] = true
	}
	if len(keys) != poolSize {
		t.Fatalf("pool has %d distinct keys, want %d", len(keys), poolSize)
	}
	const n = 4000
	hits := 0
	for c := 0; c < clients; c++ {
		g := newSpecGen(3, c, pool)
		for i := 0; i < n; i++ {
			s, hit := g.next()
			if hit {
				hits++
				if !keys[s.key] {
					t.Fatalf("resubmission %s is not a pool spec", s.body)
				}
				continue
			}
			if keys[s.key] {
				t.Fatalf("fresh spec %s repeats a key", s.body)
			}
			keys[s.key] = true
		}
	}
	if share := float64(hits) / (clients * n); share < hitShare-0.03 || share > hitShare+0.03 {
		t.Fatalf("hit share %.3f, want about %.2f", share, hitShare)
	}
}

// Every generated body decodes to the spec it was made from and is a
// valid experiment spec.
func TestSpecGenBodiesAreValidSpecs(t *testing.T) {
	g := newSpecGen(11, 0, specPool(11))
	for i := 0; i < 200; i++ {
		s, _ := g.next()
		if _, _, err := experiment.Canonicalize(s.spec); err != nil {
			t.Fatalf("%s: %v", s.body, err)
		}
	}
}

// Self time on a hand-built tree: a root [0,100] with overlapping
// children [10,30] and [20,50] and a child [90,120] that outlives it
// covers [10,50] and [90,100], so the root's self time is 50. The first
// child's grandchild [12,18] leaves it 14 of its 20, and does not count
// against the root a second time.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "g", Start: 12, End: 18},
	}
	want := map[int]int64{1: 50, 2: 14, 3: 30, 4: 30, 5: 6}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self time %d, want %d", id, got[id], w)
		}
	}
	byName := selfByName(spans, got)
	if byName["root"] != 50e-9 {
		t.Errorf("root self seconds %g, want 5e-08", byName["root"])
	}
}

// link parents a far-side span under the latest-starting enclosing span
// that matches, and leaves unmatched spans as roots.
func TestLink(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "fleet.submit", Req: "c0-1", Start: 0, End: 100, match: "k1"},
		{ID: 2, Name: "fleet.submit", Req: "c1-1", Start: 5, End: 100, match: "k2"},
		{ID: 3, Name: "fleet.submit", Req: "c1-2", Start: 8, End: 100, match: "k1"},
		{ID: 4, Name: "service.submit", Start: 10, End: 90, match: "k1"},
		{ID: 5, Name: "service.submit", Start: 110, End: 120, match: "k1"},
	}
	link(spans, "service.submit", "fleet.submit", func(c, p span) bool { return c.match == p.match })
	if spans[3].Parent != 3 || spans[3].Req != "c1-2" {
		t.Errorf("service span linked to %d (req %q), want 3 (c1-2)", spans[3].Parent, spans[3].Req)
	}
	if spans[4].Parent != 0 {
		t.Errorf("span outside every caller linked to %d", spans[4].Parent)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}
