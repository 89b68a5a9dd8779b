package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// layerDefs names every per-layer metric with its unit. A layer a
// workload leaves idle reports 0 (no work counted, no busy time).
var layerDefs = []struct{ name, unit string }{
	{"client.query.wire_ms", "ms"},
	{"server.query.handler_ms", "ms"},
	{"core.query.answer_us", "us"},
	{"privtree.range_count_us", "us"},
	{"query.unattributed_ms", "ms"},
	{"obs.gc_pause_ms", "ms"},
	{"obs.gc_runs", "count"},
	{"server.shed", "count"},
	{"client.retries", "count"},
	{"server.release.handler_ms", "ms"},
	{"privtree.release.debit_ms", "ms"},
	{"store.release.wal_debit_ms", "ms"},
	{"core.release.build_ms", "ms"},
	{"privtree.release.envelope_ms", "ms"},
	{"store.release.wal_commit_ms", "ms"},
	{"create_release.unattributed_ms", "ms"},
	{"core.build_spatial_ms", "ms"},
	{"markov.build_sequence_ms", "ms"},
	{"store.fsync_ms", "ms"},
	{"store.fsyncs", "count"},
	{"privtree.session.cache_hit_ratio", "ratio"},
	{"privtree.envelope_kb", "KiB"},
	{"privtree.decode_ms", "ms"},
	{"privtree.open_session_ms", "ms"},
	{"node.boot_ms", "ms"},
	{"repl.wal_pull_ms", "ms"},
	{"repl.artifact_fetch_ms", "ms"},
	{"server.ingest.handler_ms", "ms"},
	{"server.ingest.append_ms", "ms"},
	{"store.journal_fsync_ms", "ms"},
	{"ingest.unattributed_ms", "ms"},
	{"privtree.stream.append_us", "us"},
	{"server.seal.debit_ms", "ms"},
	{"server.seal.wal_debit_ms", "ms"},
	{"server.seal.build_ms", "ms"},
	{"server.seal.envelope_ms", "ms"},
	{"server.seal.wal_commit_ms", "ms"},
	{"server.seal.wal_ms", "ms"},
	{"privtree.stream.seal_ms", "ms"},
}

func layerUnits() map[string]string {
	out := make(map[string]string, len(layerDefs))
	for _, d := range layerDefs {
		out[d.name] = d.unit
	}
	return out
}

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so untraced runs pay only a nil check. Spans
// recorded while a stage span is open (begin … end) are its children.
type spans struct {
	t0   time.Time
	list []span
	cur  int // open stage span, 0 for none
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// record adds a finished span under the open stage span.
func (s *spans) record(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	st := ms(start.Sub(s.t0))
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: s.cur, Name: name, Start: st, End: st + ms(d)})
}

// begin opens a stage span (set-up, timed phase, recovery, …).
func (s *spans) begin(name string) {
	if s == nil {
		return
	}
	s.end()
	st := ms(time.Since(s.t0))
	s.list = append(s.list, span{ID: len(s.list) + 1, Name: name, Start: st, End: st})
	s.cur = len(s.list)
}

// end closes the open stage span, if any.
func (s *spans) end() {
	if s == nil || s.cur == 0 {
		return
	}
	s.list[s.cur-1].End = ms(time.Since(s.t0))
	s.cur = 0
}

// durations returns the durations of every span with the given name.
func (s *spans) durations(name string) []float64 {
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, sp.End-sp.Start)
		}
	}
	return out
}

// layerRow is one row of the traced run's per-layer table.
type layerRow struct {
	Name   string  `json:"name"`
	Source string  `json:"source"`
	Count  float64 `json:"count,omitempty"`
	BusyMS float64 `json:"busy_ms,omitempty"`
	MeanMS float64 `json:"mean_ms,omitempty"`
	P50MS  float64 `json:"p50_ms,omitempty"`
	// Value is set instead of the timing columns for a count or ratio.
	Value *float64 `json:"value,omitempty"`
}

// routeSplit shows that a route's layer rows add up to the time the
// client observed on it.
type routeSplit struct {
	Route          string             `json:"route"`
	ClientMS       float64            `json:"client_ms"`
	Parts          map[string]float64 `json:"parts_ms"`
	UnattributedMS float64            `json:"unattributed_ms"`
}

type report struct {
	Rows   []layerRow   `json:"layers"`
	Routes []routeSplit `json:"routes"`
}

// unitScale converts milliseconds to a metric's unit.
func unitScale(unit string) float64 {
	if unit == "us" {
		return 1e3
	}
	return 1
}

// layerMean records a layer measured as count operations taking busyMS in
// total, and sets the metric to the mean per operation.
func (b *bench) layerMean(name, source string, count, busyMS float64, samples []float64) {
	if b.rep == nil {
		return
	}
	row := layerRow{Name: name, Source: source, Count: count, BusyMS: busyMS}
	mean := 0.0
	if count > 0 {
		mean = busyMS / count
	}
	row.MeanMS = mean
	if len(samples) >= 10 {
		row.P50MS = median(samples)
	}
	b.rep.Rows = append(b.rep.Rows, row)
	b.layers[name] = mean * unitScale(layerUnits()[name])
}

// layerSpans records a layer from the durations of the benchmark's own
// spans with the given span name.
func (b *bench) layerSpans(metric, spanName string) {
	if b.sp == nil {
		return
	}
	d := b.sp.durations(spanName)
	b.layerMean(metric, "span "+spanName, float64(len(d)), sum(d), d)
}

// layerValue records a layer metric that is a count or ratio, not a time.
func (b *bench) layerValue(name, source string, v float64) {
	if b.rep == nil {
		return
	}
	b.rep.Rows = append(b.rep.Rows, layerRow{Name: name, Source: source, Value: &v})
	b.layers[name] = v
}

// delta is the change of one scraped series between two scrapes.
func delta(before, after map[string]float64, key string) float64 {
	return after[key] - before[key]
}

// routeSplit adds a route breakdown row; parts must not overlap in time.
func (b *bench) routeSplit(route string, clientMS float64, parts map[string]float64, unattributedMetric string, perOp float64) {
	if b.rep == nil {
		return
	}
	var attributed float64
	for _, v := range parts {
		attributed += v
	}
	un := clientMS - attributed
	b.rep.Routes = append(b.rep.Routes, routeSplit{Route: route, ClientMS: clientMS, Parts: parts, UnattributedMS: un})
	if perOp > 0 {
		un /= perOp
	}
	b.layers[unattributedMetric] = un
	b.rep.Rows = append(b.rep.Rows, layerRow{Name: unattributedMetric, Source: "client time − attributed layers", Count: perOp, BusyMS: un * perOp, MeanMS: un})
}

// writeReports keeps the untraced result (the base of the tracing
// overhead) or, for a traced run, the spans, the per-layer table and the
// overhead against the untraced run of the same workload and seed.
func (b *bench) writeReports() error {
	base := filepath.Join(b.outDir, fmt.Sprintf("%s-seed%d", b.name, b.seed))
	if !b.traced {
		blob, err := json.Marshal(b.e2e)
		if err != nil {
			return err
		}
		return os.WriteFile(base+".untraced.json", blob, 0o644)
	}
	b.sp.end()
	for _, d := range layerDefs {
		if _, ok := b.layers[d.name]; !ok {
			b.layers[d.name] = 0
		}
	}
	overhead := map[string]float64{}
	if blob, err := os.ReadFile(base + ".untraced.json"); err == nil {
		var untraced map[string]float64
		if json.Unmarshal(blob, &untraced) == nil {
			for k, v := range b.e2e {
				if u, ok := untraced[k]; ok {
					overhead[k] = v - u
				}
			}
		}
	}
	doc := map[string]any{
		"workload": b.name, "seed": b.seed,
		"layers": b.rep.Rows, "routes": b.rep.Routes,
		"traced_end_to_end": b.e2e, "tracing_overhead": overhead,
		"spans": b.sp.list,
	}
	blob, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", blob, 0o644); err != nil {
		return err
	}
	fmt.Fprint(os.Stderr, b.formatReport(overhead))
	fmt.Fprintf(os.Stderr, "perfbench: spans and table written to %s\n", base+".trace.json")
	return nil
}

// formatReport renders the per-layer table for humans.
func (b *bench) formatReport(overhead map[string]float64) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nper-layer table: workload %s, seed %d\n", b.name, b.seed)
	fmt.Fprintf(&sb, "%-34s %10s %12s %12s %10s  %s\n", "layer", "count", "busy_ms", "mean_ms", "p50_ms", "source")
	for _, r := range b.rep.Rows {
		if r.Value != nil {
			fmt.Fprintf(&sb, "%-34s %10s %12s %12s %10s  %s = %.4g\n", r.Name, "", "", "", "", r.Source, *r.Value)
			continue
		}
		p50 := "-"
		if r.P50MS > 0 {
			p50 = fmt.Sprintf("%.4f", r.P50MS)
		}
		fmt.Fprintf(&sb, "%-34s %10.0f %12.3f %12.4f %10s  %s\n", r.Name, r.Count, r.BusyMS, r.MeanMS, p50, r.Source)
	}
	for _, rt := range b.rep.Routes {
		fmt.Fprintf(&sb, "route %s: client %.3f ms =", rt.Route, rt.ClientMS)
		keys := make([]string, 0, len(rt.Parts))
		for k := range rt.Parts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s %.3f +", k, rt.Parts[k])
		}
		fmt.Fprintf(&sb, " unattributed %.3f\n", rt.UnattributedMS)
	}
	if len(overhead) == 0 {
		sb.WriteString("tracing overhead: no untraced run of this workload and seed in this directory; run --trace 0 first\n")
	} else {
		keys := make([]string, 0, len(overhead))
		for k := range overhead {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sb.WriteString("tracing overhead (traced − untraced):")
		for _, k := range keys {
			if !math.IsNaN(overhead[k]) {
				fmt.Fprintf(&sb, " %s %+.4g;", k, overhead[k])
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
