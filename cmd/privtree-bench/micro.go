package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"privtree"
	"privtree/internal/obs"
	"privtree/internal/server"
	"privtree/internal/store"
	"privtree/internal/synth"
	"privtree/internal/workload"
)

// This file implements the -micro mode: it measures the repository's core
// micro-benchmarks (spatial build, range-count query, sequence-model
// build, and privtreed batched query throughput) with testing.Benchmark
// and writes the results as machine-readable JSON, so successive PRs can
// diff ns/op, B/op, allocs/op and queries/sec without parsing
// `go test -bench` text output.

// microResult is one benchmark row of BENCH.json.
type microResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// QueriesPerSec is set for batched-query server rows: the end-to-end
	// HTTP throughput of one batch divided by its wall-clock time.
	QueriesPerSec float64 `json:"queries_per_sec,omitempty"`
}

// microReport is the top-level BENCH.json document.
type microReport struct {
	GoVersion  string        `json:"go_version"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	Benchmarks []microResult `json:"benchmarks"`
}

// microPoints mirrors the clustered dataset of the package micro-benches:
// 3/4 of the mass in a Gaussian blob, the rest uniform.
func microPoints(n int) []privtree.Point {
	rng := rand.New(rand.NewPCG(100, 200))
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x >= 1 {
			return 0.999999
		}
		return x
	}
	pts := make([]privtree.Point, n)
	for i := range pts {
		if i%4 == 0 {
			pts[i] = privtree.Point{rng.Float64(), rng.Float64()}
		} else {
			pts[i] = privtree.Point{clamp(0.4 + 0.03*rng.NormFloat64()), clamp(0.6 + 0.03*rng.NormFloat64())}
		}
	}
	return pts
}

// rangeCountSink keeps the compiler from discarding benchmarked answers.
var rangeCountSink float64

// mixedQueryBatch is the read path's real query shape: a release of 1M
// road-like points at ε = 1 (about 100k nodes, beyond L2) and one batch of
// 256 §6.1 rectangles, the small, medium and large size classes
// interleaved.
func mixedQueryBatch() (*privtree.SpatialTree, []privtree.Rect, error) {
	dom := privtree.UnitCube(2)
	pts := synth.RoadLike(1_000_000, rand.New(rand.NewPCG(500, 600))).Points
	tree, err := privtree.BuildSpatial(dom, pts, 1.0, privtree.SpatialOptions{Seed: 1})
	if err != nil {
		return nil, nil, err
	}
	return tree, workload.MixedQueries(dom, 256, rand.New(rand.NewPCG(700, 800))), nil
}

// microSequences mirrors the sticky-chain clickstreams of the package
// micro-benches.
func microSequences(n int) []privtree.Sequence {
	rng := rand.New(rand.NewPCG(300, 400))
	out := make([]privtree.Sequence, n)
	for i := range out {
		cur := rng.IntN(6)
		var s privtree.Sequence
		for {
			s = append(s, cur)
			if rng.Float64() < 0.3 || len(s) >= 15 {
				break
			}
			cur = (cur + 1) % 6
		}
		out[i] = s
	}
	return out
}

// serverBatchSize is the number of range queries per privtreed batch
// request in the server-throughput benchmark.
const serverBatchSize = 10_000

// serverThroughputCase prepares a live privtreed instance (httptest
// transport, so the measurement includes HTTP, JSON and the goroutine
// fan-out) holding one released tree over the 100k-point dataset, and
// returns a benchmark case that answers a 10k-query batch per iteration.
func serverThroughputCase(pts []privtree.Point) (c struct {
	name string
	fn   func(b *testing.B)
}, batch int, closeFn func(), err error) {
	srv, err := server.New(server.Options{})
	if err != nil {
		return c, 0, nil, err
	}
	d, err := srv.Registry().AddSpatial("bench", privtree.UnitCube(2), pts, 8.0)
	if err != nil {
		return c, 0, nil, err
	}
	rel, _, err := d.Release(server.ReleaseParams{Epsilon: 1.0, Seed: 1}, 0)
	if err != nil {
		return c, 0, nil, err
	}
	ts := httptest.NewServer(srv)

	rng := rand.New(rand.NewPCG(500, 600))
	queries := make([][]float64, serverBatchSize)
	for i := range queries {
		lox, loy := rng.Float64()*0.8, rng.Float64()*0.8
		w, h := 0.02+rng.Float64()*0.18, 0.02+rng.Float64()*0.18
		queries[i] = []float64{lox, loy, lox + w, loy + h}
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		ts.Close()
		return c, 0, nil, err
	}
	url := ts.URL + "/v1/datasets/bench/releases/" + rel.ID + "/query"
	client := ts.Client()

	c.name = "ServerBatch10kQueries"
	c.fn = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("batch query returned %d", resp.StatusCode)
			}
		}
	}
	return c, serverBatchSize, ts.Close, nil
}

// Saturated-admission benchmark shape: loadClients concurrent posters per
// op against a batch plane pinned to 2 slots + a 2-deep queue, so every
// op exercises admission (including 429 sheds and client-side retries),
// not just the fan-out.
const (
	loadClients   = 8
	loadBatchSize = 2_000
)

// serverBatchUnderLoadCase measures the batch plane while its admission
// gate is saturated: each op fires loadClients concurrent batches at a
// server allowing 2 in flight (+2 queued); the overflow is shed with 429
// and retried until answered. The row therefore prices the full overload
// path — gate accounting, structured shed responses, retry round-trips —
// on top of the query fan-out itself.
func serverBatchUnderLoadCase(pts []privtree.Point) (c struct {
	name string
	fn   func(b *testing.B)
}, closeFn func(), err error) {
	srv, err := server.New(server.Options{
		Workers:              2,
		MaxConcurrentBatches: 2,
		AdmissionQueue:       2,
	})
	if err != nil {
		return c, nil, err
	}
	d, err := srv.Registry().AddSpatial("bench-load", privtree.UnitCube(2), pts, 8.0)
	if err != nil {
		return c, nil, err
	}
	rel, _, err := d.Release(server.ReleaseParams{Epsilon: 1.0, Seed: 1}, 0)
	if err != nil {
		return c, nil, err
	}
	ts := httptest.NewServer(srv)

	rng := rand.New(rand.NewPCG(700, 800))
	queries := make([][]float64, loadBatchSize)
	for i := range queries {
		lox, loy := rng.Float64()*0.8, rng.Float64()*0.8
		w, h := 0.02+rng.Float64()*0.18, 0.02+rng.Float64()*0.18
		queries[i] = []float64{lox, loy, lox + w, loy + h}
	}
	body, err := json.Marshal(map[string]any{"queries": queries})
	if err != nil {
		ts.Close()
		return c, nil, err
	}
	url := ts.URL + "/v1/datasets/bench-load/releases/" + rel.ID + "/query"
	client := ts.Client()

	c.name = "ServerBatchUnderLoad"
	c.fn = func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for w := 0; w < loadClients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Shed responses retry after a short spin: the admission
					// decision is instantaneous, and honoring the wire's
					// 1-second Retry-After here would measure sleep, not code.
					for {
						resp, err := client.Post(url, "application/json", bytes.NewReader(body))
						if err != nil {
							b.Error(err)
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						switch resp.StatusCode {
						case http.StatusOK:
							return
						case http.StatusTooManyRequests:
							time.Sleep(200 * time.Microsecond)
						default:
							b.Errorf("batch under load returned %d", resp.StatusCode)
							return
						}
					}
				}()
			}
			wg.Wait()
		}
	}
	return c, ts.Close, nil
}

// Streaming-plane rows: IngestAppend prices one HTTP ingest batch
// end-to-end (pooled columnar decode, validation, slab append) against a
// live streaming dataset with no persistence, so the number is the
// codec-and-apply cost rather than the runner's fsync latency.
// StreamRelease10Epochs prices a full continual-release cycle: ten
// ingest-and-seal rounds, each sealing a 100-point epoch into a released
// tree through the epoch pipeline (freeze, debit, build, window advance).
const (
	ingestRowsPerOp   = 100
	streamEpochsPerOp = 10
)

func streamingBenchCases() (cases []struct {
	name string
	fn   func(b *testing.B)
}, closeFn func(), err error) {
	srv, err := server.New(server.Options{Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(srv)
	client := ts.Client()
	register := func(name string) error {
		blob, err := json.Marshal(map[string]any{
			// A budget deep enough that the sealing row never exhausts it,
			// whatever b.N the harness picks.
			"name": name, "epsilon": 1e12,
			"domain": map[string]any{"lo": []float64{0, 0}, "hi": []float64{1, 1}},
			"stream": map[string]any{"epoch_epsilon": 0.125, "window": 5, "seed": 1},
		})
		if err != nil {
			return err
		}
		resp, err := client.Post(ts.URL+"/v1/datasets", "application/json", bytes.NewReader(blob))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusCreated {
			return fmt.Errorf("registering %s: %d", name, resp.StatusCode)
		}
		return nil
	}
	if err := register("bench-ingest"); err != nil {
		ts.Close()
		return nil, nil, err
	}
	if err := register("bench-epochs"); err != nil {
		ts.Close()
		return nil, nil, err
	}

	rng := rand.New(rand.NewPCG(900, 1000))
	rows := make([][]float64, ingestRowsPerOp)
	for i := range rows {
		rows[i] = []float64{rng.Float64(), rng.Float64()}
	}
	appendBody, err := json.Marshal(map[string]any{"points": rows})
	if err != nil {
		ts.Close()
		return nil, nil, err
	}
	sealBody, err := json.Marshal(map[string]any{"points": rows, "seal": true})
	if err != nil {
		ts.Close()
		return nil, nil, err
	}
	post := func(b *testing.B, name string, body []byte) {
		resp, err := client.Post(ts.URL+"/v1/datasets/"+name+"/ingest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("ingest returned %d", resp.StatusCode)
		}
	}
	cases = append(cases,
		struct {
			name string
			fn   func(b *testing.B)
		}{"IngestAppend", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				post(b, "bench-ingest", appendBody)
			}
		}},
		struct {
			name string
			fn   func(b *testing.B)
		}{"StreamRelease10Epochs", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for e := 0; e < streamEpochsPerOp; e++ {
					post(b, "bench-epochs", sealBody)
				}
			}
		}},
	)
	return cases, ts.Close, nil
}

// runMicro measures the micro-benchmarks and writes BENCH.json to outPath.
// When comparePath is non-empty, the fresh run is additionally gated
// against that baseline (see compareReports) and an error is returned on
// regression.
func runMicro(outPath, comparePath string, nsHeadroom float64) error {
	dom := privtree.UnitCube(2)
	pts100k := microPoints(100_000)
	seqs := microSequences(20_000)

	queryTree, err := privtree.BuildSpatial(dom, pts100k, 1.0, privtree.SpatialOptions{Seed: 1})
	if err != nil {
		return err
	}
	q := privtree.NewRect(privtree.Point{0.2, 0.2}, privtree.Point{0.6, 0.6})
	mixedTree, mixedRects, err := mixedQueryBatch()
	if err != nil {
		return err
	}
	queryModel, err := privtree.BuildSequenceModel(6, seqs, 1.0, privtree.SequenceOptions{MaxLength: 20, Seed: 1})
	if err != nil {
		return err
	}

	// A released artifact for the wire-envelope rows: Workers pinned to 1
	// and a fixed seed, so encode/decode allocs/op are machine-independent.
	envData, err := privtree.NewSpatialData(dom, pts100k)
	if err != nil {
		return err
	}
	envMech, err := privtree.NewSpatialMechanism(privtree.SpatialOptions{Seed: 1, Workers: 1})
	if err != nil {
		return err
	}
	envRelease, err := envMech.Run(envData, 1.0)
	if err != nil {
		return err
	}
	envBlob, err := json.Marshal(envRelease)
	if err != nil {
		return err
	}
	// Warm encoding/json's type cache for the envelope params so its
	// one-time allocations don't leak ±1 into the exact allocs/op gate at
	// low iteration counts.
	if _, err := privtree.Decode(envBlob); err != nil {
		return err
	}

	cases := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BuildSpatial100k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := privtree.BuildSpatial(dom, pts100k, 1.0, privtree.SpatialOptions{Seed: uint64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"RangeCount", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				queryTree.RangeCount(q)
			}
		}},
		// RangeCountMixed answers one 256-rectangle batch per op, serially:
		// the per-rectangle cost the query plane pays on a large release.
		{"RangeCountMixed", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range mixedRects {
					rangeCountSink += mixedTree.RangeCount(r)
				}
			}
		}},
		// Workers is pinned to 1 and the seed is fixed so allocs/op is
		// byte-deterministic regardless of machine or iteration count (a
		// per-iteration seed builds different-sized trees, shifting the
		// mean with b.N) — the zero-headroom CI allocs gate needs an exact
		// number.
		{"BuildSequenceModel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := privtree.BuildSequenceModel(6, seqs, 1.0, privtree.SequenceOptions{MaxLength: 20, Seed: 1, Workers: 1}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EstimateFrequency", func(b *testing.B) {
			b.ReportAllocs()
			queries := []privtree.Sequence{{0}, {2, 3}, {5, 0, 1}, {1, 2, 3, 4}}
			for i := 0; i < b.N; i++ {
				queryModel.EstimateFrequency(queries[i%len(queries)])
			}
		}},
		{"TopK20x5", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				queryModel.TopK(20, 5)
			}
		}},
		// EnvelopeEncode times a cold encode, the one a new release pays:
		// a release's envelope is cached after its first encode, so every
		// op encodes a fresh copy of envRelease, decoded outside the timer.
		{"EnvelopeEncode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				rel, err := privtree.Decode(envBlob)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := rel.Envelope(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"EnvelopeDecode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := privtree.Decode(envBlob); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// MetricsOverhead prices everything the observability plane adds to
		// one served request: a fresh trace with one timed span plus its ID
		// render (the X-Trace-Id header), the per-route request counter and
		// latency histogram, and the sliding throughput window. The counter,
		// histogram, and window observations are allocation-free by guard
		// test (internal/obs); the handful of allocations here is the trace
		// object itself, so the gate keeps per-request instrumentation cost
		// pinned.
		{"MetricsOverhead", func(b *testing.B) {
			reg := obs.NewRegistry()
			lbl := obs.Label{Name: "route", Value: "query"}
			reqs := reg.Counter("privtree_bench_requests_total", "bench: per-route requests.", lbl)
			lat := reg.Histogram("privtree_bench_request_seconds", "bench: per-route latency.", nil, lbl)
			win := obs.NewWindow()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := obs.NewTrace()
				_ = tr.ID()
				span := tr.Begin("build")
				reqs.Inc()
				win.Add(1)
				span.End()
				lat.Observe(2.5e-4)
			}
		}},
		// TraceRecord prices the flight recorder's retention decision plus
		// the ring write for one completed request (sampleN=1, so every op
		// takes the full copy path). The ring is warmed first because slot
		// span storage is reused in place: the steady state the gate pins
		// is allocation-free, exactly like the rest of the request-path
		// instrumentation.
		{"TraceRecord", func(b *testing.B) {
			rec := obs.NewFlightRecorder(512, 0, 1)
			tr := obs.NewTrace()
			for _, stage := range []string{"debit", "build", "wal_commit"} {
				sp := tr.Begin(stage)
				sp.End()
			}
			start := time.Now()
			for i := 0; i < 600; i++ { // fill every slot's span storage
				rec.Record(tr, "create_release", "bench", 200, start, time.Millisecond)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec.Record(tr, "create_release", "bench", 200, start, time.Millisecond)
			}
		}},
		// FlightRecorderLookup prices a trace pull from a full 512-slot
		// ring — the /v1/traces/{id} hot cost. The scan visits every slot
		// (duplicate IDs from retried calls mean it cannot early-exit) and
		// the hit is deep-copied, so the op is a full scan plus one span
		// clone.
		{"FlightRecorderLookup", func(b *testing.B) {
			rec := obs.NewFlightRecorder(512, 0, 1)
			start := time.Now()
			fill := func(id string) {
				tr := obs.NewTraceWithID(id)
				sp := tr.Begin("build")
				sp.End()
				rec.Record(tr, "create_release", "bench", 200, start, time.Millisecond)
			}
			for i := 0; i < 511; i++ {
				fill(fmt.Sprintf("bench-filler-%04d", i))
			}
			fill("bench-lookup-target")
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := rec.Lookup("bench-lookup-target"); !ok {
					b.Fatal("lookup missed")
				}
			}
		}},
	}

	// Store rows: the durable-debit hot path (WAL append + fsync — the
	// latency every release pays before its mechanism may run) and a
	// 10k-record sequential recovery (the restart cost per dataset).
	storeDir, err := os.MkdirTemp("", "privtree-bench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	debitStore, err := store.Open(filepath.Join(storeDir, "debit"))
	if err != nil {
		return err
	}
	defer debitStore.Close()
	recoverDir := filepath.Join(storeDir, "recover")
	seedStore, err := store.Open(recoverDir)
	if err != nil {
		return err
	}
	for i := 0; i < 10_000; i++ {
		if err := seedStore.AppendDebit(1e-9, "bench-debit"); err != nil {
			return err
		}
	}
	if err := seedStore.Close(); err != nil {
		return err
	}
	cases = append(cases,
		struct {
			name string
			fn   func(b *testing.B)
		}{"StoreDebit", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := debitStore.AppendDebit(1e-9, "bench-debit"); err != nil {
					b.Fatal(err)
				}
			}
		}},
		struct {
			name string
			fn   func(b *testing.B)
		}{"StoreRecover10k", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := store.Open(recoverDir)
				if err != nil {
					b.Fatal(err)
				}
				if n := len(st.Events()); n != 10_000 {
					b.Fatalf("recovered %d events, want 10000", n)
				}
				if err := st.Close(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	)

	serverCase, _, closeServer, err := serverThroughputCase(pts100k)
	if err != nil {
		return err
	}
	defer closeServer()
	cases = append(cases, serverCase)

	loadCase, closeLoad, err := serverBatchUnderLoadCase(pts100k)
	if err != nil {
		return err
	}
	defer closeLoad()
	cases = append(cases, loadCase)

	ccCases, closeCluster, err := clusterCases()
	if err != nil {
		return err
	}
	defer closeCluster()
	cases = append(cases, ccCases...)

	streamCases, closeStream, err := streamingBenchCases()
	if err != nil {
		return err
	}
	defer closeStream()
	cases = append(cases, streamCases...)

	// batchedQueries maps throughput rows to the number of end-to-end
	// queries answered per op, so each gets a queries/sec figure.
	batchedQueries := map[string]float64{
		serverCase.name:       serverBatchSize,
		loadCase.name:         loadClients * loadBatchSize,
		"ClusterBatchOneNode": clusterReaders * clusterBatchSize,
		"ClusterBatch":        clusterReaders * clusterBatchSize,
	}

	report := microReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	for _, c := range cases {
		r := testing.Benchmark(c.fn)
		row := microResult{
			Name:        c.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if q := batchedQueries[c.name]; q > 0 {
			row.QueriesPerSec = q / (row.NsPerOp / 1e9)
		}
		report.Benchmarks = append(report.Benchmarks, row)
		fmt.Printf("%-24s %12.0f ns/op %12d B/op %10d allocs/op",
			c.name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp)
		if row.QueriesPerSec > 0 {
			fmt.Printf(" %12.0f queries/s", row.QueriesPerSec)
		}
		fmt.Println()
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", outPath)
	if comparePath != "" {
		return compareReports(report, comparePath, nsHeadroom)
	}
	return nil
}

// guardedBenchmarks are the rows the regression gate enforces. Most run
// serially on fixed inputs, so allocs/op is exact and machine
// independent; ns/op is gated with 25% headroom. The build benchmarks
// with machine-dependent parallel fan-out (BuildSpatial100k, the clean
// server throughput row) are tracked in BENCH.json but not gated.
// ServerBatchUnderLoad is gated despite being concurrent — it exists to
// catch regressions in the admission/shed path — with a wide allocs
// slack to absorb its scheduling variance.
var guardedBenchmarks = map[string]bool{
	"RangeCount":            true,
	"RangeCountMixed":       true,
	"BuildSequenceModel":    true,
	"EstimateFrequency":     true,
	"TopK20x5":              true,
	"EnvelopeEncode":        true,
	"EnvelopeDecode":        true,
	"MetricsOverhead":       true,
	"TraceRecord":           true,
	"FlightRecorderLookup":  true,
	"StoreDebit":            true,
	"StoreRecover10k":       true,
	"ServerBatchUnderLoad":  true,
	"IngestAppend":          true,
	"StreamRelease10Epochs": true,
}

// allocsSlack loosens the exact allocs/op gate for benchmarks whose
// allocation count is not deterministic.
var allocsSlack = map[string]int64{
	// The store rows touch the filesystem: the WAL append itself is
	// allocation-free in steady state, but file-handle plumbing (and, for
	// recovery, map growth over 10k events) can wobble by a handful of
	// allocations between runs.
	"StoreDebit":      2,
	"StoreRecover10k": 64,
	// The under-load row is deliberately concurrent: 8 clients racing an
	// admission gate means the number of sheds (each a full HTTP
	// round-trip) varies run to run. The slack absorbs scheduling
	// variance; a real regression (per-request allocations in the
	// admission or shed path) multiplies across 8 clients and blows
	// straight through it.
	"ServerBatchUnderLoad": 2048,
	// IngestAppend rides HTTP + encoding/json on the response side and an
	// amortized slab append; pool hits and slab doublings wobble by a few
	// allocations per op.
	"IngestAppend": 64,
	// Each op seals ten epochs whose trees depend on per-epoch noise
	// draws (the derived seed advances every seal), so split counts — and
	// with them allocations — can drift a little run to run around the
	// ~1.8k baseline. A per-row leak on a 10-build op clears this easily.
	"StreamRelease10Epochs": 256,
}

// nsExempt marks guarded rows whose ns/op is dominated by latency the
// code doesn't control — fsync for StoreDebit (a property of the disk
// under the runner), a single loopback HTTP round trip for IngestAppend
// (~100µs/op, where scheduler jitter alone swings runs past any sane
// headroom) — so the gate enforces only their (deterministic) allocs/op.
// StoreRecover10k stays ns-gated: recovery is parse-bound and reads the
// page cache. StreamRelease10Epochs stays ns-gated too: ten tree builds
// dominate its ~2ms op, amortizing the per-request jitter.
var nsExempt = map[string]bool{
	"StoreDebit":   true,
	"IngestAppend": true,
}

// compareReports gates a fresh micro run against a committed baseline:
// any allocs/op increase, or a ns/op regression beyond the headroom
// factor (default 1.25), on a guarded benchmark fails the run. The
// allocs/op gate is exact and machine-independent; the ns/op gate
// compares absolute times, so when the baseline was recorded on different
// hardware, widen -ns-headroom (or regenerate BENCH.json on the gating
// machine) rather than chasing phantom regressions.
func compareReports(fresh microReport, baselinePath string, nsHeadroom float64) error {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var baseline microReport
	if err := json.Unmarshal(blob, &baseline); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", baselinePath, err)
	}
	base := make(map[string]microResult, len(baseline.Benchmarks))
	for _, row := range baseline.Benchmarks {
		base[row.Name] = row
	}
	var violations []string
	for _, row := range fresh.Benchmarks {
		if !guardedBenchmarks[row.Name] {
			continue
		}
		b, ok := base[row.Name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		if row.AllocsPerOp > b.AllocsPerOp+allocsSlack[row.Name] {
			violations = append(violations, fmt.Sprintf(
				"%s: allocs/op %d > baseline %d (+%d slack)", row.Name, row.AllocsPerOp, b.AllocsPerOp, allocsSlack[row.Name]))
		}
		if !nsExempt[row.Name] && row.NsPerOp > b.NsPerOp*nsHeadroom {
			violations = append(violations, fmt.Sprintf(
				"%s: ns/op %.0f > baseline %.0f ×%.2f (same hardware? see -ns-headroom)",
				row.Name, row.NsPerOp, b.NsPerOp, nsHeadroom))
		}
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "bench regression: %s\n", v)
		}
		return fmt.Errorf("%d benchmark regression(s) against %s", len(violations), baselinePath)
	}
	fmt.Printf("no regressions against %s\n", baselinePath)
	return nil
}
