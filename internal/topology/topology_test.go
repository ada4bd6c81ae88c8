package topology

import (
	"slices"
	"testing"
	"testing/quick"

	"clustereval/internal/xrand"
)

func TestTofuD192(t *testing.T) {
	tf, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Nodes() != 192 {
		t.Fatalf("nodes = %d", tf.Nodes())
	}
	dims := tf.Dims()
	if len(dims) != 6 {
		t.Fatalf("TofuD must be six-dimensional, got %v", dims)
	}
	// Inner unit 2x3x2.
	if dims[3] != 2 || dims[4] != 3 || dims[5] != 2 {
		t.Errorf("inner dims = %v, want [... 2 3 2]", dims)
	}
	// Outer 16 nodes factored 4x2x2.
	if dims[0]*dims[1]*dims[2] != 16 {
		t.Errorf("outer product = %d, want 16", dims[0]*dims[1]*dims[2])
	}
	if dims[0] != 4 {
		t.Errorf("balanced factorization of 16 should lead with 4, got %v", dims)
	}
}

func TestTofuDRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, -12, 7, 100} {
		if _, err := NewTofuD(n); err == nil {
			t.Errorf("NewTofuD(%d) accepted", n)
		}
	}
}

func TestBalancedTriple(t *testing.T) {
	cases := []struct{ m, x, y, z int }{
		{1, 1, 1, 1},
		{8, 2, 2, 2},
		{16, 4, 2, 2},
		{12, 3, 2, 2},
		{7, 7, 1, 1},
		{288, 8, 6, 6},
	}
	for _, c := range cases {
		x, y, z := balancedTriple(c.m)
		if x*y*z != c.m {
			t.Errorf("balancedTriple(%d) = %d*%d*%d != %d", c.m, x, y, z, c.m)
		}
		if x != c.x || y != c.y || z != c.z {
			t.Errorf("balancedTriple(%d) = (%d,%d,%d), want (%d,%d,%d)", c.m, x, y, z, c.x, c.y, c.z)
		}
	}
}

func TestCoordsIndexRoundTrip(t *testing.T) {
	tf, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tf.Nodes(); i++ {
		if got := tf.Index(tf.Coords(i)); got != i {
			t.Fatalf("round trip %d -> %v -> %d", i, tf.Coords(i), got)
		}
	}
}

func TestTorusHopsProperties(t *testing.T) {
	tf, err := NewTofuD(192)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw) % tf.Nodes()
		b := int(bRaw) % tf.Nodes()
		h := tf.Hops(a, b)
		// Symmetric; zero iff same node; bounded by diameter.
		if h != tf.Hops(b, a) {
			return false
		}
		if (h == 0) != (a == b) {
			return false
		}
		return h <= tf.Diameter()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTorusTriangleInequality(t *testing.T) {
	tf, err := NewTofuD(24)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(9)
	for trial := 0; trial < 2000; trial++ {
		a, b, c := r.Intn(24), r.Intn(24), r.Intn(24)
		if tf.Hops(a, c) > tf.Hops(a, b)+tf.Hops(b, c) {
			t.Fatalf("triangle inequality violated for %d,%d,%d", a, b, c)
		}
	}
}

func TestTorusWrapDistance(t *testing.T) {
	// A ring of 4: distance from 0 to 3 must be 1, not 3.
	tr, err := NewTorus("ring", []int{4}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Hops(0, 3); got != 1 {
		t.Errorf("ring wrap distance = %d, want 1", got)
	}
	// A line of 4: distance is 3.
	ln, err := NewTorus("line", []int{4}, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Hops(0, 3); got != 3 {
		t.Errorf("line distance = %d, want 3", got)
	}
}

func TestTorusDiameter(t *testing.T) {
	tf, _ := NewTofuD(192)
	// dims [4 2 2 2 3 2], wrap [T T T F T F]: 2+1+1+1+1+1 = 7.
	if got := tf.Diameter(); got != 7 {
		t.Errorf("TofuD(192) diameter = %d, want 7", got)
	}
	// The diameter must actually be attained.
	max := 0
	for i := 0; i < tf.Nodes(); i++ {
		for j := i; j < tf.Nodes(); j++ {
			if h := tf.Hops(i, j); h > max {
				max = h
			}
		}
	}
	if max != tf.Diameter() {
		t.Errorf("observed max hops %d != Diameter() %d", max, tf.Diameter())
	}
}

func TestDiagonalBanding(t *testing.T) {
	// The paper's Fig. 4 shows recurring diagonal patterns: pairs (i, i+k)
	// at fixed stride k share hop distances periodically. Coordinates below
	// the outermost dimension repeat every 48 indices, so the hop count
	// along any fixed-stride diagonal has period 48.
	tf, _ := NewTofuD(192)
	for _, k := range []int{1, 2, 5, 12} {
		for i := 0; i+k+48 < tf.Nodes(); i++ {
			if tf.Hops(i, i+k) != tf.Hops(i+48, i+48+k) {
				t.Fatalf("no periodic banding at i=%d stride=%d", i, k)
			}
		}
	}
}

func TestNodeNames(t *testing.T) {
	if got := TofuNodeName(0); got != "arms0b0-0c" {
		t.Errorf("node 0 = %s", got)
	}
	// The degraded node of Fig. 4.
	if got := TofuNodeName(23); got != "arms0b1-11c" {
		t.Errorf("node 23 = %s, want arms0b1-11c", got)
	}
	if got := TofuNodeName(48); got != "arms1b0-0c" {
		t.Errorf("node 48 = %s", got)
	}
}

func TestFatTree(t *testing.T) {
	ft, err := NewFatTree(96, 24)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Nodes() != 96 {
		t.Fatalf("nodes = %d", ft.Nodes())
	}
	if got := ft.Hops(0, 0); got != 0 {
		t.Errorf("self hops = %d", got)
	}
	if got := ft.Hops(0, 5); got != 2 {
		t.Errorf("same-leaf hops = %d, want 2", got)
	}
	if got := ft.Hops(0, 30); got != 4 {
		t.Errorf("cross-leaf hops = %d, want 4", got)
	}
	if got := ft.Diameter(); got != 4 {
		t.Errorf("diameter = %d", got)
	}
}

func TestFatTreeSmall(t *testing.T) {
	ft, _ := NewFatTree(1, 24)
	if ft.Diameter() != 0 {
		t.Error("single-node fat tree diameter should be 0")
	}
	ft, _ = NewFatTree(10, 24)
	if ft.Diameter() != 2 {
		t.Error("single-leaf fat tree diameter should be 2")
	}
}

func TestFatTreeErrors(t *testing.T) {
	if _, err := NewFatTree(0, 24); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := NewFatTree(10, 0); err == nil {
		t.Error("zero leaf accepted")
	}
}

func TestTorusErrors(t *testing.T) {
	if _, err := NewTorus("x", []int{2, 3}, []bool{true}); err == nil {
		t.Error("mismatched wrap accepted")
	}
	if _, err := NewTorus("x", nil, nil); err == nil {
		t.Error("empty dims accepted")
	}
	if _, err := NewTorus("x", []int{0}, []bool{true}); err == nil {
		t.Error("zero dim accepted")
	}
}

func TestCoordsPanics(t *testing.T) {
	tf, _ := NewTofuD(24)
	for _, f := range []func(){
		func() { tf.Coords(-1) },
		func() { tf.Coords(24) },
		func() { tf.Hops(-1, 0) },
		func() { tf.Hops(0, 24) },
		func() { tf.Index([]int{0}) },
		func() { tf.Index([]int{9, 0, 0, 0, 0, 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// coordsHops is the Coords-based hop distance Hops must reproduce.
func coordsHops(t *Torus, a, b int) int {
	ca, cb := t.Coords(a), t.Coords(b)
	h := 0
	for d, size := range t.Dims() {
		diff := ca[d] - cb[d]
		if diff < 0 {
			diff = -diff
		}
		if t.wrap[d] && size-diff < diff {
			diff = size - diff
		}
		h += diff
	}
	return h
}

// mustTorus builds a torus or fails the test.
func mustTorus(t *testing.T, name string, dims []int, wrap []bool) *Torus {
	t.Helper()
	tr, err := NewTorus(name, dims, wrap)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// mustTofuD builds a TofuD torus or fails the test.
func mustTofuD(t *testing.T, nodes int) *Torus {
	t.Helper()
	tf, err := NewTofuD(nodes)
	if err != nil {
		t.Fatal(err)
	}
	return tf
}

// mustFatTree builds a fat tree or fails the test.
func mustFatTree(t *testing.T, nodes, leafSize int) *FatTree {
	t.Helper()
	ft, err := NewFatTree(nodes, leafSize)
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func TestTorusHopsOracle(t *testing.T) {
	var small []*Torus
	for _, n := range []int{12, 24, 48, 192} {
		small = append(small, mustTofuD(t, n))
	}
	small = append(small,
		mustTorus(t, "mesh", []int{5, 4, 3}, []bool{false, false, false}),
		mustTorus(t, "ring", []int{7, 1, 2, 5}, []bool{true, true, true, true}))
	for _, tr := range small {
		for a := 0; a < tr.Nodes(); a++ {
			for b := 0; b < tr.Nodes(); b++ {
				if got, want := tr.Hops(a, b), coordsHops(tr, a, b); got != want {
					t.Fatalf("%s %v: Hops(%d, %d) = %d, want %d", tr.Name(), tr.Dims(), a, b, got, want)
				}
			}
		}
	}

	partition := mustTofuD(t, 6144)
	// The fugaku machine preset's production shape.
	fugaku := mustTorus(t, "TofuD", []int{24, 23, 24, 2, 3, 2}, []bool{true, true, true, false, true, false})
	r := xrand.New(17)
	for _, tr := range []*Torus{partition, fugaku} {
		n := tr.Nodes()
		for trial := 0; trial < 20000; trial++ {
			a, b := r.Intn(n), r.Intn(n)
			if trial < 4 {
				a, b = trial/2*(n-1), trial%2*(n-1) // the corners
			}
			if got, want := tr.Hops(a, b), coordsHops(tr, a, b); got != want {
				t.Fatalf("%s %v: Hops(%d, %d) = %d, want %d", tr.Name(), tr.Dims(), a, b, got, want)
			}
		}
	}
}

func TestTorusHopsAllocFree(t *testing.T) {
	tf, err := NewTofuD(6144)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { hopsSink += tf.Hops(17, 6000) }); allocs != 0 {
		t.Errorf("Hops allocates %.0f times per call, want 0", allocs)
	}
}

// hopsSink keeps measured Hops calls live.
var hopsSink int

// hopCountsOracle counts Hops(a, b) over every b: the histogram HopCounts
// must reproduce.
func hopCountsOracle(topo Topology, a int) []int {
	hist := make([]int, topo.Diameter()+1)
	for b := 0; b < topo.Nodes(); b++ {
		hist[topo.Hops(a, b)]++
	}
	return hist
}

func TestHopCountsOracle(t *testing.T) {
	type stridedTopo struct {
		topo   Topology
		stride int
	}
	cases := []stridedTopo{
		{mustTofuD(t, 12), 1},
		{mustTofuD(t, 24), 1},
		{mustTofuD(t, 48), 1},
		{mustTofuD(t, 96), 1},
		{mustTorus(t, "mesh", []int{5, 4, 3}, []bool{false, false, false}), 1},
		{mustTorus(t, "ring", []int{7, 1, 2, 5}, []bool{true, true, true, true}), 1},
		{mustFatTree(t, 60, 24), 1}, // a partial last leaf of 12
		{mustTorus(t, "point", []int{1}, []bool{true}), 1},
		{mustFatTree(t, 1, 24), 1},
		// The preset fabrics: cte-arm, thunderx2 and mn4 ...
		{mustTofuD(t, 192), 1},
		{mustFatTree(t, 40, 20), 1},
		{mustFatTree(t, 3456, 24), 1},
		// ... and the Fugaku partition the app sweeps place onto.
		{mustTofuD(t, 6144), 7},
	}
	for _, c := range cases {
		// Two spare entries, refilled with junk before every call, check
		// that HopCounts overwrites the whole buffer.
		hist := make([]int, c.topo.Diameter()+3)
		for a := 0; a < c.topo.Nodes(); a += c.stride {
			for i := range hist {
				hist[i] = -1
			}
			c.topo.HopCounts(a, hist)
			want := append(hopCountsOracle(c.topo, a), 0, 0)
			if !slices.Equal(hist, want) {
				t.Fatalf("%s/%d nodes: HopCounts(%d) = %v, counted %v", c.topo.Name(), c.topo.Nodes(), a, hist, want)
			}
		}
	}

	// The seeds a placement costs run HopCounts in a loop: no garbage.
	for _, topo := range []Topology{mustTofuD(t, 6144), mustFatTree(t, 3456, 24)} {
		hist := make([]int, topo.Diameter()+1)
		if allocs := testing.AllocsPerRun(100, func() { topo.HopCounts(topo.Nodes()-17, hist) }); allocs != 0 {
			t.Errorf("%s: HopCounts allocates %.0f times per call, want 0", topo.Name(), allocs)
		}
	}
}
