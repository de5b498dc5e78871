package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory: one per public call perfbench makes into
// the program, with its parent span and the run (pass or round) it belongs
// to. A nil *tracer records nothing, so untraced passes pay one nil check
// per call.
type tracer struct {
	mu    sync.Mutex
	start time.Time
	spans []span
}

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    int    `json:"run"`
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // e.g. the experiment id
	Start  int64  `json:"start_ns"`      // since the tracer started
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent, run int, name string) int {
	return t.beginTag(parent, run, name, "")
}

// beginTag is begin with a tag that tells same-named spans apart.
func (t *tracer) beginTag(parent, run int, name, tag string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: run, Name: name, Tag: tag, Start: now})
	return len(t.spans)
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.start).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span.
func (t *tracer) do(parent, run int, name string, f func()) {
	id := t.begin(parent, run, name)
	f()
	t.end(id)
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string, meta map[string]any) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"meta": meta, "spans": t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanSet indexes a snapshot of spans.
type spanSet struct {
	spans    []span
	children map[int][]int // parent id -> child ids
}

func index(spans []span) *spanSet {
	s := &spanSet{spans: spans, children: map[int][]int{}}
	for _, sp := range spans {
		s.children[sp.Parent] = append(s.children[sp.Parent], sp.ID)
	}
	return s
}

func (s *spanSet) get(id int) span { return s.spans[id-1] }

// self is a span's duration minus the part of it its children cover.
func (s *spanSet) self(id int) int64 {
	sp := s.get(id)
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range s.children[id] {
		ch := s.get(c)
		a, b := max(ch.Start, sp.Start), min(ch.End, sp.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, reach := int64(0), sp.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return sp.End - sp.Start - covered
}

// total sums the durations of the run's spans with the given name.
func (s *spanSet) total(run int, name string) time.Duration {
	var d int64
	for _, sp := range s.spans {
		if sp.Run == run && sp.Name == name {
			d += sp.End - sp.Start
		}
	}
	return time.Duration(d)
}

// Layer spans must cover a structural span (a pass, a phase, a worker
// lane) except for at most unattributedTol of its duration, or
// unattributedFloor on a span too short for the share to mean anything.
const (
	unattributedTol   = 0.05
	unattributedFloor = time.Millisecond
)

// unattributed is the largest share of a structural span's duration that
// none of its child spans covers, over the given span ids, and whether
// every span is within the tolerance. It is the check that the layer spans
// account for the whole of a pass.
func (s *spanSet) unattributed(ids []int) (worst float64, ok bool) {
	ok = true
	for _, id := range ids {
		sp := s.get(id)
		d := sp.End - sp.Start
		if d <= 0 {
			continue
		}
		self := s.self(id)
		worst = max(worst, float64(self)/float64(d))
		if float64(self) > max(unattributedTol*float64(d), float64(unattributedFloor)) {
			ok = false
		}
	}
	return worst, ok
}

// checkCoverage reports trace.unattributed_pct over every span named in
// structural, and records a problem when one of them is not covered within
// the tolerance.
func checkCoverage(out *outcome, tr *tracer, structural ...string) {
	ss := index(tr.snapshot())
	var ids []int
	for _, sp := range ss.spans {
		for _, name := range structural {
			if sp.Name == name {
				ids = append(ids, sp.ID)
			}
		}
	}
	worst, ok := ss.unattributed(ids)
	out.layer["trace.unattributed_pct"] = 100 * worst
	if !ok {
		out.problem("layer spans leave %.1f%% of a %v span uncovered (tolerance %.0f%% or %v)",
			100*worst, structural, 100*unattributedTol, unattributedFloor)
	}
}
