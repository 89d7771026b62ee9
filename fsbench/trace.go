package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer. Spans with Derived set were not timed around a call: they are the
// per-stage wall times mapreduce.Metrics reports, laid end to end inside
// the call that produced them.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_s"`
	End     float64 `json:"end_s"`
	RunID   string  `json:"run_id"`
	Derived bool    `json:"derived,omitempty"`
}

// layer is the part of a span name before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A disabled tracer records
// nothing and costs one branch per call. It is used from one goroutine.
type tracer struct {
	on    bool
	runID string
	t0    time.Time
	spans []span
}

func newTracer(on bool, runID string) *tracer {
	return &tracer{on: on, runID: runID, t0: time.Now()}
}

// begin opens a span under parent (0 for a root) and returns its id, or 0
// when tracing is off.
func (t *tracer) begin(parent int, name string) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds(), RunID: t.runID,
	})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// derived adds a reconstructed span [start, start+d] under parent and
// returns its end.
func (t *tracer) derived(parent int, name string, start float64, d time.Duration) float64 {
	if !t.on {
		return start
	}
	end := start + d.Seconds()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start, End: end, RunID: t.runID, Derived: true,
	})
	return end
}

// startOf returns a span's start time.
func (t *tracer) startOf(id int) float64 {
	if id == 0 {
		return 0
	}
	return t.spans[id-1].Start
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer string
	Spans int
	Total float64
	Self  float64
}

// selfTimes aggregates spans per layer. A span's self time is its duration
// minus the part of it its children cover; nested spans of the same layer
// are counted once in Total.
func selfTimes(spans []span) []layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		row := rows[s.layer()]
		if row == nil {
			row = &layerTime{Layer: s.layer()}
			rows[s.layer()] = row
		}
		row.Spans++
		if p, ok := byID[s.Parent]; !ok || p.layer() != s.layer() {
			row.Total += s.End - s.Start
		}
		row.Self += s.End - s.Start - covered(s, children[s.ID])
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent.
func covered(parent span, kids []span) float64 {
	type iv struct{ a, b float64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// printSelfTimes renders the self-time table.
func printSelfTimes(w io.Writer, rows []layerTime) {
	all := 0.0
	for _, r := range rows {
		all += r.Self
	}
	fmt.Fprintf(w, "%-12s %7s %10s %10s %7s\n", "layer", "spans", "total_s", "self_s", "self_%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %7d %10.4f %10.4f %6.1f%%\n", r.Layer, r.Spans, r.Total, r.Self, 100*r.Self/all)
	}
}
