package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"ximd/internal/obs"
)

// spanCapacity bounds the spans one traced pass keeps. The store is a
// preallocated ring, so it is created only when a traced pass starts.
const spanCapacity = 1 << 16

// tracing holds the benchmark's own spans for one traced pass, plus the
// daemons' span trees imported after each request. Spans are recorded
// only around calls into the program's public API; the program's own
// spans (runner phases, serve and fabric trees) come from
// runner.Options.Span and GET /v1/traces/{id}.
type tracing struct {
	store *obs.SpanStore
	tr    *obs.Tracer
}

func newTracing() *tracing {
	st := obs.NewSpanStore(spanCapacity)
	return &tracing{store: st, tr: obs.NewTracer("bench", st)}
}

// root starts a new trace; nil-safe on a nil *tracing (untraced runs).
func (t *tracing) root(name string) *obs.Span {
	if t == nil {
		return nil
	}
	return t.tr.Root(name)
}

// importSpans adds spans fetched from a daemon. Duplicates are dropped
// when the pass is indexed.
func (t *tracing) importSpans(spans []obs.Span) {
	if t == nil {
		return
	}
	for _, sp := range spans {
		t.store.Add(sp)
	}
}

// spans returns every retained span and reports whether the store
// overflowed (the oldest spans were evicted).
func (t *tracing) spans() ([]obs.Span, bool) {
	all := t.store.Snapshot()
	return all, len(all) == spanCapacity
}

// writeNDJSON writes spans one JSON object per line.
func writeNDJSON(path string, spans []obs.Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// spanIndex answers the per-layer questions asked of one pass's spans.
type spanIndex struct {
	byID     map[string]*obs.Span
	children map[string][]*obs.Span
	byName   map[string][]*obs.Span
}

func indexSpans(spans []obs.Span) *spanIndex {
	ix := &spanIndex{
		byID:     make(map[string]*obs.Span, len(spans)),
		children: map[string][]*obs.Span{},
		byName:   map[string][]*obs.Span{},
	}
	for i := range spans {
		sp := &spans[i]
		if _, dup := ix.byID[sp.SpanID]; dup {
			continue
		}
		ix.byID[sp.SpanID] = sp
		ix.byName[sp.Name] = append(ix.byName[sp.Name], sp)
		if sp.ParentID != "" {
			ix.children[sp.ParentID] = append(ix.children[sp.ParentID], sp)
		}
	}
	return ix
}

// named returns the spans called name emitted by service ("" = any).
func (ix *spanIndex) named(name, service string) []*obs.Span {
	var out []*obs.Span
	for _, sp := range ix.byName[name] {
		if service == "" || sp.Service == service {
			out = append(out, sp)
		}
	}
	return out
}

// ms returns the durations of spans in milliseconds.
func ms(spans []*obs.Span) []float64 {
	out := make([]float64, len(spans))
	for i, sp := range spans {
		out[i] = sp.Ms
	}
	return out
}

// scaled multiplies every value by k (ms to us, for instance).
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// child returns sp's first direct child called name, or nil.
func (ix *spanIndex) child(sp *obs.Span, name string) *obs.Span {
	for _, c := range ix.children[sp.SpanID] {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ancestorAttr returns the nearest value of attribute key on sp or its
// ancestors.
func (ix *spanIndex) ancestorAttr(sp *obs.Span, key string) string {
	for depth := 0; sp != nil && depth < 64; depth++ {
		if v, ok := sp.Attrs[key]; ok {
			return v
		}
		sp = ix.byID[sp.ParentID]
	}
	return ""
}

// selfMS is sp's duration minus the part of its interval that its
// same-process children cover. Children that anchor a subtree of their
// own (another process's adopted root) have no comparable offset and
// are left out; their time stays in sp's self time.
func (ix *spanIndex) selfMS(sp *obs.Span) float64 {
	type iv struct{ lo, hi float64 }
	lo, hi := sp.StartOffMS, sp.StartOffMS+sp.Ms
	var ivs []iv
	for _, c := range ix.children[sp.SpanID] {
		if c.StartUnixMS != 0 {
			continue
		}
		a, b := max(c.StartOffMS, lo), min(c.StartOffMS+c.Ms, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		covered += v.hi - max(v.lo, end)
		end = v.hi
	}
	return max(sp.Ms-covered, 0)
}

// attrUint parses a numeric span attribute, 0 when absent.
func attrUint(sp *obs.Span, key string) uint64 {
	v, _ := strconv.ParseUint(sp.Attrs[key], 10, 64)
	return v
}
