package main

import (
	"encoding/json"
	"math/rand/v2"

	"clustereval/internal/experiment"
)

// genSpec is one generated submission: the JSON body the service sees,
// and the decoded spec with its cache key for the benchmark's own checks.
type genSpec struct {
	body []byte
	spec experiment.Spec
	key  string
}

// poolSize is the number of distinct specs cache hits draw from, far
// inside the service's 1024-entry result cache.
const poolSize = 48

// hitShare is the fraction of submissions that resubmit a pool spec.
const hitShare = 0.75

// lightSpec draws one light job (net, stream, hpl or hpcg on a paper
// machine), which simulates in milliseconds. noise is the spec's seed
// field: distinct values make distinct cache keys.
func lightSpec(rng *rand.Rand, noise uint64) genSpec {
	s := experiment.Spec{Seed: noise}
	s.Machine = []string{"cte-arm", "mn4"}[rng.IntN(2)]
	switch rng.IntN(4) {
	case 0:
		s.Kind = "net"
		s.SizeBytes = 1 << (6 + rng.IntN(15))
		s.Iters = 50 * (1 + rng.IntN(4))
		s.SrcNode = rng.IntN(16)
		s.DstNode = 16 + rng.IntN(16)
	case 1:
		s.Kind = "stream"
		s.Language = []string{"c", "fortran"}[rng.IntN(2)]
	case 2:
		s.Kind = "hpl"
		s.Nodes = 1 << rng.IntN(6)
	default:
		s.Kind = "hpcg"
		s.Nodes = 1 << rng.IntN(5)
		s.Version = []string{"vanilla", "optimized"}[rng.IntN(2)]
	}
	body, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Spec of plain fields always encodes
	}
	_, key, err := experiment.Canonicalize(s)
	if err != nil {
		panic("perfbench: generated an invalid spec: " + err.Error())
	}
	return genSpec{body: body, spec: s, key: key}
}

// specPool returns the seed's pool of resubmitted specs. Their seed
// fields are 1..poolSize.
func specPool(seed uint64) []genSpec {
	rng := rand.New(rand.NewPCG(seed, 0))
	pool := make([]genSpec, poolSize)
	for i := range pool {
		pool[i] = lightSpec(rng, uint64(i+1))
	}
	return pool
}

// specGen is one client's deterministic submission stream: about
// hitShare of its specs come from the pool, the rest are fresh specs
// whose seed field, unique to this client and draw, guarantees a miss.
type specGen struct {
	rng    *rand.Rand
	pool   []genSpec
	client uint64
	fresh  uint64
	drawn  int // specs drawn so far
}

func newSpecGen(seed uint64, client int, pool []genSpec) *specGen {
	return &specGen{rng: rand.New(rand.NewPCG(seed, uint64(client)+1)), pool: pool, client: uint64(client)}
}

// next returns the client's next spec and whether it resubmits a pool
// spec.
func (g *specGen) next() (genSpec, bool) {
	g.drawn++
	if g.rng.Float64() < hitShare {
		return g.pool[g.rng.IntN(len(g.pool))], true
	}
	g.fresh++
	return lightSpec(g.rng, 1<<40|g.client<<32|g.fresh), false
}
