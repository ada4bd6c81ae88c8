package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from benchmark code into a layer. Times are
// nanoseconds since the tracer's epoch. Parent is the ID of the span that
// caused this one (0 for a root); spans of one client request share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Where  string `json:"where,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// match pairs a span recorded on the far side of an HTTP hop with the
	// caller's span, which has the same match key and encloses it.
	match string
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req, where, match string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Where: where, Start: now, End: now, match: match,
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span and returns f's error.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.begin(name, parent, "", "", "")
	defer t.end(id)
	return f()
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// link parents every root span named child to the latest-starting span
// named parent that encloses it in time and satisfies ok. It is how a
// span recorded inside a server handler finds the caller span of the
// request, when the request crossed a hop that carries no trace header.
func link(spans []span, child, parent string, ok func(c, p span) bool) {
	var parents []int
	for i, s := range spans {
		if s.Name == parent {
			parents = append(parents, i)
		}
	}
	for i := range spans {
		c := &spans[i]
		if c.Name != child || c.Parent != 0 {
			continue
		}
		best := -1
		for _, pi := range parents {
			p := spans[pi]
			if p.Start <= c.Start && c.End <= p.End && ok(*c, p) &&
				(best < 0 || p.Start > spans[best].Start) {
				best = pi
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
			if c.Req == "" {
				c.Req = spans[best].Req
			}
		}
	}
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
// Children may overlap each other and may outlive their parent; only the
// covered part of the parent's own interval counts. Keys are span IDs.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered returns how much of [lo, hi] the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	flush := func() {
		if curHi > curLo {
			total += curHi - curLo
		}
	}
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			flush()
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	flush()
	return total
}

// selfByName sums self time (seconds) per span name.
func selfByName(spans []span, self map[int]int64) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// writeSpans writes the spans and the per-name self-time summary as one
// JSON document.
func writeSpans(path string, spans []span, self map[int]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := struct {
		SelfSeconds map[string]float64 `json:"self_seconds"`
		Spans       []span             `json:"spans"`
	}{selfByName(spans, self), spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
