package obs

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(1.5)
	g.Add(-0.25)
	if got := g.Value(); got != 1.25 {
		t.Fatalf("gauge = %v, want 1.25", got)
	}
}

// TestZeroAllocHotPath is the guard the package doc promises: hot-path
// observations cost zero heap allocations.
func TestZeroAllocHotPath(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("privtree_test_total", "t")
	g := reg.Gauge("privtree_test_gauge", "t")
	h := reg.Histogram("privtree_test_seconds", "t", nil)
	w := NewWindow()
	cases := []struct {
		name string
		fn   func()
	}{
		{"counter_inc", func() { c.Inc() }},
		{"counter_add", func() { c.Add(3) }},
		{"gauge_set", func() { g.Set(1) }},
		{"gauge_add", func() { g.Add(0.5) }},
		{"hist_observe", func() { h.Observe(0.003) }},
		{"window_add", func() { w.Add(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(1000, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestHistogramMonotonicity is the bucket-monotonicity property test:
// for random observation sets, cumulative bucket counts never decrease,
// the +Inf bucket equals Count, and Sum matches.
func TestHistogramMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 9))
	for iter := 0; iter < 50; iter++ {
		h := newHistogram(DefTimeBuckets)
		n := rng.IntN(500)
		var want float64
		for i := 0; i < n; i++ {
			// Log-uniform over ~[1µs, 100s] so every bucket gets traffic.
			v := math.Pow(10, rng.Float64()*8-6)
			h.Observe(v)
			want += v
		}
		bounds, cum := h.Buckets()
		if len(bounds) != len(DefTimeBuckets)+1 || len(cum) != len(bounds) {
			t.Fatalf("iter %d: bounds/cum lengths %d/%d", iter, len(bounds), len(cum))
		}
		if !math.IsInf(bounds[len(bounds)-1], 1) {
			t.Fatalf("iter %d: last bound %v, want +Inf", iter, bounds[len(bounds)-1])
		}
		for i := 1; i < len(cum); i++ {
			if cum[i] < cum[i-1] {
				t.Fatalf("iter %d: cumulative counts decrease at %d: %v", iter, i, cum)
			}
			if bounds[i] <= bounds[i-1] {
				t.Fatalf("iter %d: bounds not increasing at %d", iter, i)
			}
		}
		if got := cum[len(cum)-1]; got != uint64(n) || h.Count() != uint64(n) {
			t.Fatalf("iter %d: +Inf bucket %d, Count %d, want %d", iter, got, h.Count(), n)
		}
		if math.Abs(h.Sum()-want) > 1e-6*math.Max(1, want) {
			t.Fatalf("iter %d: sum %v, want %v", iter, h.Sum(), want)
		}
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	_, cum := h.Buckets()
	// le=1: {0.5, 1}; le=2: +{1.5, 2}; le=4: +{3, 4}; +Inf: +{5, 100}.
	want := []uint64{2, 4, 6, 8}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative = %v, want %v", cum, want)
		}
	}
}

func TestWindowRate(t *testing.T) {
	var sec int64 = 1000
	w := newWindowClock(func() int64 { return sec })
	w.Add(100)
	sec++
	w.Add(200)
	sec++
	w.Add(300)
	// Trailing 3s window covers all three seconds: (100+200+300)/3.
	if got := w.Rate(3 * time.Second); got != 200 {
		t.Fatalf("rate(3s) = %v, want 200", got)
	}
	// Trailing 1s only sees the current second.
	if got := w.Rate(time.Second); got != 300 {
		t.Fatalf("rate(1s) = %v, want 300", got)
	}
	// An idle hour must NOT drag the rate down (the bug Window replaces):
	// jump far ahead, add a burst, and the rate reflects only the burst.
	sec += 3600
	w.Add(500)
	if got := w.Rate(time.Second); got != 500 {
		t.Fatalf("rate after idle hour = %v, want 500", got)
	}
	// Stale buckets from before the jump are excluded from a wide window.
	if got := w.Rate(30 * time.Second); got != 500.0/30 {
		t.Fatalf("rate(30s) after idle = %v, want %v", got, 500.0/30)
	}
}

func TestWindowReusesBuckets(t *testing.T) {
	var sec int64 = 50
	w := newWindowClock(func() int64 { return sec })
	w.Add(7)
	sec += windowBuckets // same ring slot, new second
	w.Add(3)
	if got := w.Rate(time.Second); got != 3 {
		t.Fatalf("rate = %v, want 3 (old bucket must reset)", got)
	}
}

// TestRegistryRace exercises concurrent get-or-create + hot-path updates
// + scrapes; run under -race this verifies registration is race-free by
// construction (satellite 2).
func TestRegistryRace(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c := reg.Counter("privtree_race_total", "t", Label{"route", fmt.Sprintf("r%d", j%5)})
				c.Inc()
				h := reg.Histogram("privtree_race_seconds", "t", nil, Label{"route", "x"})
				h.Observe(0.01)
				if j%50 == 0 {
					_ = reg.WriteText(&strings.Builder{})
				}
			}
		}(i)
	}
	wg.Wait()
	var total uint64
	for i := 0; i < 5; i++ {
		total += reg.Counter("privtree_race_total", "t", Label{"route", fmt.Sprintf("r%d", i)}).Value()
	}
	if total != 8*200 {
		t.Fatalf("lost increments: %d, want %d", total, 8*200)
	}
}

// TestRegistryConcurrentRegistration registers one counter, gauge and
// histogram series from many goroutines released at once: every caller
// must get the same instrument, and under -race the registration must not
// race with itself or with a scrape.
func TestRegistryConcurrentRegistration(t *testing.T) {
	const workers = 32
	reg := NewRegistry()
	lbl := Label{"route", "query"}
	counters := make([]*Counter, workers)
	gauges := make([]*Gauge, workers)
	hists := make([]*Histogram, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			hists[i] = reg.Histogram("privtree_reg_seconds", "t", nil, lbl)
			counters[i] = reg.Counter("privtree_reg_total", "t", lbl)
			gauges[i] = reg.Gauge("privtree_reg_level", "t", lbl)
			hists[i].Observe(0.01)
			counters[i].Inc()
			if i%8 == 0 {
				_ = reg.WriteText(&strings.Builder{})
			}
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 1; i < workers; i++ {
		if counters[i] != counters[0] || gauges[i] != gauges[0] || hists[i] != hists[0] {
			t.Fatalf("goroutine %d got a different instrument for the same series", i)
		}
	}
	if got := counters[0].Value(); got != workers {
		t.Fatalf("counter = %d, want %d (an increment landed on a lost instrument)", got, workers)
	}
}

// TestExpositionRoundTrip renders a registry with every instrument kind
// and nasty label values, then feeds it to the strict parser.
func TestExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("privtree_requests_total", "Total requests.").Add(12)
	reg.Counter("privtree_http_requests_total", "Per-route.", Label{"route", "query"}).Add(3)
	reg.Counter("privtree_http_requests_total", "Per-route.", Label{"route", "create"}).Add(4)
	reg.Gauge("privtree_eps_remaining", "Budget.", Label{"dataset", `we"ird\na me`}).Set(0.5)
	reg.GaugeFunc("privtree_live", "Func gauge.", func() float64 { return 7 })
	h := reg.Histogram("privtree_request_seconds", "Latency.", nil, Label{"route", "query"})
	h.Observe(0.003)
	h.Observe(2)
	hooked := false
	reg.OnScrape(func() { hooked = true })

	var buf strings.Builder
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatal("OnScrape hook did not run")
	}
	samples, err := ParseText(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ParseText: %v\nexposition:\n%s", err, buf.String())
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.SeriesKey()] = s.Value
	}
	checks := map[string]float64{
		"privtree_requests_total":                     12,
		"privtree_http_requests_total{route=query}":   3,
		"privtree_http_requests_total{route=create}":  4,
		"privtree_live":                               7,
		"privtree_request_seconds_count{route=query}": 2,
		"privtree_request_seconds_sum{route=query}":   2.003,
	}
	for k, want := range checks {
		got, ok := byKey[k]
		if !ok || math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v (present=%v), want %v", k, got, ok, want)
		}
	}
	// The escaped label value must round-trip back to the original.
	found := false
	for _, s := range samples {
		if s.Name == "privtree_eps_remaining" && s.Labels["dataset"] == "we\"ird\\na me" {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped label did not round-trip; exposition:\n%s", buf.String())
	}
	// Histogram buckets must be cumulative and end at +Inf == count.
	var last float64 = -1
	var infSeen bool
	for _, s := range samples {
		if s.Name != "privtree_request_seconds_bucket" {
			continue
		}
		if s.Value < last {
			t.Errorf("bucket counts not cumulative at le=%s", s.Labels["le"])
		}
		last = s.Value
		if s.Labels["le"] == "+Inf" {
			infSeen = true
			if s.Value != 2 {
				t.Errorf("+Inf bucket = %v, want 2", s.Value)
			}
		}
	}
	if !infSeen {
		t.Error("no +Inf bucket emitted")
	}
}

func TestParseTextStrictness(t *testing.T) {
	bad := []struct{ name, in string }{
		{"no_help", "# TYPE privtree_x counter\nprivtree_x 1\n"},
		{"no_type", "# HELP privtree_x h\nprivtree_x 1\n"},
		{"dup_series", "# HELP privtree_x h\n# TYPE privtree_x counter\nprivtree_x 1\nprivtree_x 2\n"},
		{"dup_family", "# HELP privtree_x h\n# TYPE privtree_x counter\nprivtree_x 1\n# HELP privtree_x h\n# TYPE privtree_x counter\n"},
		{"bad_escape", "# HELP privtree_x h\n# TYPE privtree_x gauge\nprivtree_x{a=\"b\\q\"} 1\n"},
		{"unquoted_label", "# HELP privtree_x h\n# TYPE privtree_x gauge\nprivtree_x{a=b} 1\n"},
		{"bad_value", "# HELP privtree_x h\n# TYPE privtree_x gauge\nprivtree_x hello\n"},
		{"bad_name", "# HELP 9bad h\n# TYPE 9bad gauge\n9bad 1\n"},
		{"interleaved", "# HELP privtree_a h\n# TYPE privtree_a counter\n# HELP privtree_b h\n# TYPE privtree_b counter\nprivtree_a 1\n"},
	}
	for _, tc := range bad {
		if _, err := ParseText(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: parsed without error", tc.name)
		}
	}
	ok := "# HELP privtree_x h\n# TYPE privtree_x histogram\n" +
		"privtree_x_bucket{le=\"1\"} 1\nprivtree_x_bucket{le=\"+Inf\"} 2\nprivtree_x_sum 3\nprivtree_x_count 2\n"
	if _, err := ParseText(strings.NewReader(ok)); err != nil {
		t.Errorf("valid histogram rejected: %v", err)
	}
}

func TestRegistryPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	reg := NewRegistry()
	reg.Counter("privtree_x_total", "t")
	mustPanic("type_clash", func() { reg.Gauge("privtree_x_total", "t") })
	mustPanic("bad_name", func() { reg.Counter("9bad", "t") })
	mustPanic("bad_label", func() { reg.Counter("privtree_y_total", "t", Label{"le", "1"}) })
	reg.Histogram("privtree_h_seconds", "t", []float64{1, 2})
	mustPanic("bucket_clash", func() { reg.Histogram("privtree_h_seconds", "t", []float64{1, 3}) })
	mustPanic("bad_buckets", func() { reg.Histogram("privtree_h2_seconds", "t", []float64{2, 1}) })
}

func TestTrace(t *testing.T) {
	tr := NewTrace()
	if len(tr.ID()) != 32 {
		t.Fatalf("trace ID %q, want 32 hex chars", tr.ID())
	}
	st := tr.Begin("debit")
	time.Sleep(time.Millisecond)
	st.End()
	tr.Add("build", time.Now(), 5*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "debit" || spans[1].Name != "build" {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Dur <= 0 {
		t.Fatalf("span duration %v, want > 0", spans[0].Dur)
	}
	sum := tr.Summary()
	if !strings.Contains(sum, "debit=") || !strings.Contains(sum, "build=") {
		t.Fatalf("summary %q", sum)
	}

	// Nil safety: every method is a no-op on a nil trace.
	var nilT *Trace
	if nilT.ID() != "" || nilT.Spans() != nil || nilT.Summary() != "" {
		t.Fatal("nil trace not inert")
	}
	nilT.Add("x", time.Now(), 0)
	nilT.Begin("x").End()
	if FromContext(context.Background()) != nil {
		t.Fatal("FromContext on bare context != nil")
	}
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not ride the context")
	}
}
