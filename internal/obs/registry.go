package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Name, Value string
}

// metricType is the Prometheus TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labeled instance within a family.
type series struct {
	// labels is the pre-rendered, escaped `{a="b",c="d"}` suffix (empty
	// for unlabeled series), fixed at registration so scrapes do no
	// per-series formatting work beyond the value itself.
	labels string

	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family is one named metric with its HELP/TYPE and every labeled series.
type family struct {
	name, help string
	typ        metricType
	buckets    []float64 // histogram families only
	series     []*series // registration order
	byLabels   map[string]*series
}

// Registry is a named-metric registry: get-or-create registration under
// one lock (so concurrent handler setup can never race a scrape or
// duplicate a series — the fix for the old byRoute snapshot race), plus
// Prometheus text exposition. The zero value is not usable; call
// NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order
	byName   map[string]*family
	hooks    []func() // run at the start of every scrape
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter returns the counter named name with the given labels, creating
// family and series as needed. Registration panics on an invalid name, a
// type clash with an existing family, or invalid labels — these are
// programming errors at startup, not runtime conditions.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getOrCreate(name, help, typeCounter, nil, labels, nil).counter
}

// Gauge returns the gauge named name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getOrCreate(name, help, typeGauge, nil, labels, nil).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values that already live somewhere authoritative (a ledger's
// spent ε, a gate's in-flight count) and must not be shadowed by a copy.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, help, typeGauge, nil, labels, fn)
}

// Histogram returns the histogram named name with the given labels. The
// bucket ladder is a property of the FAMILY: the first registration fixes
// it, later series must pass nil or an identical ladder. Bounds must be
// strictly increasing and finite.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.getOrCreate(name, help, typeHistogram, buckets, labels, nil).hist
}

// OnScrape registers fn to run at the start of every WriteText, before
// any family renders — the hook point for collectors that refresh plain
// gauges from a snapshot source (e.g. runtime.ReadMemStats).
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// Names returns every registered family name in registration order (the
// metric-naming-convention test iterates it).
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.families))
	for i, f := range r.families {
		out[i] = f.name
	}
	return out
}

// getOrCreate returns the series, creating it — and the instrument its
// type implies — under the registry lock, so concurrent registrations of
// one series all get the same instrument. A non-nil fn is installed as
// the series' scrape-time value.
func (r *Registry) getOrCreate(name, help string, typ metricType, buckets []float64, labels []Label, fn func() float64) *series {
	if err := checkMetricName(name); err != nil {
		panic("obs: " + err.Error())
	}
	key, rendered := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.byName[name]
	if !ok {
		fam = &family{name: name, help: help, typ: typ, byLabels: make(map[string]*series)}
		if typ == typeHistogram {
			if len(buckets) == 0 {
				buckets = DefTimeBuckets
			}
			if err := checkBuckets(buckets); err != nil {
				panic("obs: histogram " + name + ": " + err.Error())
			}
			fam.buckets = append([]float64(nil), buckets...)
		}
		r.byName[name] = fam
		r.families = append(r.families, fam)
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, fam.typ, typ))
	}
	if typ == typeHistogram && buckets != nil && !equalBuckets(fam.buckets, buckets) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different buckets", name))
	}
	s, ok := fam.byLabels[key]
	if !ok {
		s = &series{labels: rendered}
		switch typ {
		case typeCounter:
			s.counter = &Counter{}
		case typeGauge:
			s.gauge = &Gauge{}
		case typeHistogram:
			s.hist = newHistogram(fam.buckets)
		}
		fam.byLabels[key] = s
		fam.series = append(fam.series, s)
	}
	if fn != nil {
		s.fn = fn
	}
	return s
}

func checkBuckets(b []float64) error {
	for i, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("bucket bound %v is not finite", v)
		}
		if i > 0 && v <= b[i-1] {
			return fmt.Errorf("bucket bounds not strictly increasing at %v", v)
		}
	}
	return nil
}

func equalBuckets(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkMetricName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*. privtree's own stricter convention
// (^privtree_[a-z0-9_]+$) is pinned by a test over the server registry,
// not here, so the package stays reusable.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("empty metric name")
	}
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid metric name %q", name)
		}
	}
	return nil
}

func checkLabelName(name string) error {
	if name == "" {
		return fmt.Errorf("empty label name")
	}
	for i, c := range name {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("invalid label name %q", name)
		}
	}
	return nil
}

// renderLabels returns a canonical identity key (sorted) and the
// exposition-ready rendering (registration order) of a label set.
func renderLabels(labels []Label) (key, rendered string) {
	if len(labels) == 0 {
		return "", ""
	}
	for _, l := range labels {
		if err := checkLabelName(l.Name); err != nil {
			panic("obs: " + err.Error())
		}
		// "le" is reserved for histogram buckets at registration time only;
		// the exposition parser accepts it, of course.
		if l.Name == "le" {
			panic(`obs: label name "le" is reserved for histogram buckets`)
		}
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var kb strings.Builder
	for _, l := range sorted {
		kb.WriteString(l.Name)
		kb.WriteByte('=')
		kb.WriteString(l.Value)
		kb.WriteByte(',')
	}
	var rb strings.Builder
	rb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			rb.WriteByte(',')
		}
		rb.WriteString(l.Name)
		rb.WriteString(`="`)
		rb.WriteString(escapeLabelValue(l.Value))
		rb.WriteByte('"')
	}
	rb.WriteByte('}')
	return kb.String(), rb.String()
}

// escapeLabelValue applies the exposition-format escapes: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// WriteText renders the registry in the Prometheus text exposition
// format (version 0.0.4): scrape hooks first, then every family in
// registration order with its HELP/TYPE header and series.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := append([]func(){}, r.hooks...)
	r.mu.Unlock()
	// Hooks run OUTSIDE the registry lock: a hook is allowed to register
	// late metrics or touch instruments guarded elsewhere.
	for _, h := range hooks {
		h()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	buf := make([]byte, 0, 4096)
	for _, fam := range r.families {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, fam.name...)
		buf = append(buf, ' ')
		buf = append(buf, escapeHelp(fam.help)...)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, fam.name...)
		buf = append(buf, ' ')
		buf = append(buf, fam.typ...)
		buf = append(buf, '\n')
		for _, s := range fam.series {
			switch fam.typ {
			case typeHistogram:
				buf = appendHistogram(buf, fam.name, s.labels, s.hist)
			default:
				var v float64
				switch {
				case s.counter != nil:
					v = float64(s.counter.Value())
				case s.fn != nil:
					v = s.fn()
				case s.gauge != nil:
					v = s.gauge.Value()
				}
				buf = append(buf, fam.name...)
				buf = append(buf, s.labels...)
				buf = append(buf, ' ')
				buf = appendValue(buf, v)
				buf = append(buf, '\n')
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendHistogram renders one histogram series: cumulative _bucket rows
// (le is an ADDITIONAL label, merged into any series labels) each
// carrying its latest OpenMetrics exemplar when one exists, then _sum
// and _count.
func appendHistogram(buf []byte, name, labels string, h *Histogram) []byte {
	bounds, cum := h.Buckets()
	for i, le := range bounds {
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		buf = appendLabelsWith(buf, labels, "le", formatLe(le))
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, cum[i], 10)
		buf = h.appendExemplar(buf, i)
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	buf = append(buf, labels...)
	buf = append(buf, ' ')
	buf = appendValue(buf, h.Sum())
	buf = append(buf, '\n')
	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	buf = append(buf, labels...)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, h.Count(), 10)
	buf = append(buf, '\n')
	return buf
}

// appendLabelsWith merges one extra label into a pre-rendered label set.
func appendLabelsWith(buf []byte, labels, name, value string) []byte {
	if labels == "" {
		buf = append(buf, '{')
	} else {
		buf = append(buf, labels[:len(labels)-1]...) // drop the closing '}'
		buf = append(buf, ',')
	}
	buf = append(buf, name...)
	buf = append(buf, `="`...)
	buf = append(buf, escapeLabelValue(value)...)
	buf = append(buf, `"}`...)
	return buf
}

func formatLe(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendValue renders a sample value: integers without an exponent where
// possible, +Inf/-Inf/NaN per the format.
func appendValue(buf []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(buf, "+Inf"...)
	case math.IsInf(v, -1):
		return append(buf, "-Inf"...)
	case math.IsNaN(v):
		return append(buf, "NaN"...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// ServeHTTP makes the registry an http.Handler serving the exposition
// with the conventional content type.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.WriteText(w)
}
