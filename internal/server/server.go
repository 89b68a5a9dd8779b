// Package server implements privtreed, the multi-tenant differentially
// private release server: it owns a registry of datasets, a per-dataset
// privacy-budget ledger (internal/dp.Ledger), a cache of purchased
// releases, and batched range-count / frequency query endpoints served
// from immutable released artifacts.
//
// Privacy model: the raw data enters the process once, at registration,
// with a total budget ε. Every release debits that dataset's ledger before
// the mechanism runs (sequential composition: the sum of debits bounds the
// privacy loss of everything the server ever emits about the dataset), and
// a release with parameters already purchased is served from cache without
// a new debit — re-sending released bytes is post-processing. Queries hit
// only released trees, never the raw data, so they are free.
//
// Streaming datasets (registered with a "stream" spec) start empty and
// grow through POST .../ingest; sealed epochs are released continually and
// served through the releases/latest window alias. See stream.go and
// internal/stream for the sliding-window ε accounting.
//
// # HTTP API (all JSON)
//
//	POST   /v1/datasets                          register a dataset
//	GET    /v1/datasets                          list datasets + budgets
//	GET    /v1/datasets/{name}                   one dataset + its releases
//	POST   /v1/datasets/{name}/ingest            append records to a streaming dataset
//	POST   /v1/datasets/{name}/releases          buy (or fetch cached) release
//	GET    /v1/datasets/{name}/releases/{id}     released artifact (wire JSON)
//	POST   /v1/datasets/{name}/releases/{id}/query  batched queries
//	GET    /v1/datasets/{name}/audit             ε audit plane (WAL seq + trace IDs)
//	GET    /v1/traces                            retained traces (flight recorder)
//	GET    /v1/traces/{id}                       one retained trace by X-Trace-Id
//	GET    /healthz                              liveness
//	GET    /metrics                              Prometheus text exposition
//	GET    /metricsz                             legacy JSON counters
//
// Errors use a structured envelope {"error":{"code",...}}; budget
// exhaustion is code "budget_exhausted" with the ledger arithmetic
// attached.
//
// # Observability
//
// Every request gets a trace ID (echoed as X-Trace-Id; a well-formed
// inbound X-Trace-Id is adopted, so one ID follows a request across
// retries and replication hops) whose context rides from the handler
// through Session.ReleaseContext down to the store's WAL fsyncs;
// release builds record named spans (debit, wal_debit, build, envelope,
// wal_commit), ingest records ingest.append/journal.fsync, and epoch
// seals record seal.* stages — all feeding the
// privtree_build_stage_seconds histograms and the audit endpoint.
// Completed traces land in an in-process flight recorder with
// tail-based retention (every error and every request slower than
// Options.TraceSlow, plus 1-in-Options.TraceSample of normal traffic)
// and can be fetched post-hoc from /v1/traces. Metrics live in an
// internal/obs registry — zero allocations per hot-path observation —
// served as Prometheus text on /metrics with per-route latency
// histograms carrying trace-ID exemplars on their buckets, per-dataset
// ε gauges, and Go runtime stats; requests slower than
// Options.SlowRequest are logged through Options.Logger with their span
// breakdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"privtree"
	"privtree/internal/dataset"
	"privtree/internal/dp"
	"privtree/internal/geom"
	"privtree/internal/obs"
	"privtree/internal/repl"
	"privtree/internal/store"
	"privtree/internal/synth"
)

// Options tunes a Server.
type Options struct {
	// Workers bounds goroutines per build and per query batch;
	// 0 means GOMAXPROCS.
	Workers int
	// MaxBodyBytes caps request bodies; 0 means 256 MiB.
	MaxBodyBytes int64
	// MaxBatch caps the number of queries per batch request; 0 means 2^20.
	MaxBatch int
	// MaxSyntheticN caps synthetic dataset cardinality; 0 means 5,000,000.
	MaxSyntheticN int
	// DataDir, when non-empty, makes the server durable: every dataset's
	// registration request, privacy ledger (write-ahead logged,
	// fsync-on-debit), and release envelopes persist under this directory,
	// and New recovers them all on startup — spent ε, audit trails, and
	// bit-identical cached artifacts survive a restart. Empty means the
	// pre-existing in-memory behavior.
	DataDir string

	// ReplicaOf, when non-empty, starts the server as a read replica of
	// the primary at this base URL (e.g. "http://10.0.0.1:8080"): it
	// pulls the primary's WAL and artifacts continuously (see
	// internal/repl), serves the full read plane from the replicated
	// state, and rejects writes with a structured read_only error until
	// promoted via POST /v1/admin/promote. Requires DataDir — a replica
	// without durable state could not survive its own restart, let alone
	// a failover.
	ReplicaOf string
	// ReplicaPoll is the interval between replication sync passes; 0
	// means the internal/repl default (250ms).
	ReplicaPoll time.Duration
	// ReplicaTimeout bounds one shipping request (dataset listing, WAL
	// pull, artifact fetch); 0 means 30s. Without it a one-way partition
	// — request delivered, response dropped — would wedge the sync loop
	// forever.
	ReplicaTimeout time.Duration
	// ReplicaHTTP overrides the HTTP client used for shipping pulls
	// (custom TLS, proxies, fault injection in tests). nil means a
	// default client honoring ReplicaTimeout.
	ReplicaHTTP *http.Client

	// BuildTimeout bounds one release build (POST .../releases), measured
	// from admission. A build that outlives it is abandoned and its debit
	// refunded durably before the 503 deadline_exceeded goes out. 0 means
	// no server-side deadline (the client's context still applies).
	BuildTimeout time.Duration
	// QueryTimeout bounds one batched-query request the same way; an
	// expired batch is abandoned mid-fan-out. 0 means no deadline.
	QueryTimeout time.Duration
	// MaxConcurrentBuilds caps release builds running at once; 0 means
	// GOMAXPROCS. Beyond the cap, up to AdmissionQueue requests wait;
	// the rest are shed with 429 overloaded + Retry-After.
	MaxConcurrentBuilds int
	// MaxConcurrentBatches caps query batches running at once; 0 means
	// GOMAXPROCS. Same queue/shed behavior as builds.
	MaxConcurrentBatches int
	// AdmissionQueue is the bounded wait queue per plane (builds and
	// batches each get their own); 0 means 2× the plane's concurrency cap.
	AdmissionQueue int
	// DrainTimeout bounds how long Close waits for in-flight builds and
	// batches before closing the registry under them; 0 means 5s.
	DrainTimeout time.Duration

	// Logger receives the server's structured logs (slow requests, and
	// anything handlers report). Nil means logs are discarded.
	Logger *slog.Logger
	// SlowRequest, when positive, logs any request slower than it at
	// Warn level with route, status, trace ID, and span breakdown.
	SlowRequest time.Duration

	// TraceRetain is the flight recorder's capacity: how many completed
	// traces are retained for post-hoc lookup via /v1/traces. 0 means 512.
	TraceRetain int
	// TraceSlow is the tail-sampling slowness threshold: every request at
	// least this slow is retained regardless of sampling. 0 means 250ms;
	// negative disables the slow class (errors are still always kept).
	TraceSlow time.Duration
	// TraceSample keeps 1-in-N of normal (fast, non-error) traffic in the
	// flight recorder. 0 means 100; 1 keeps everything.
	TraceSample int
}

// Server is the privtreed HTTP handler.
type Server struct {
	registry *Registry
	metrics  *metrics
	mux      *http.ServeMux
	opts     Options
	// regMu serializes registrations: with persistence, a registration is
	// a multi-step transaction (dataset file, store attach, insert) and
	// the name check must be authoritative, not advisory. Registration is
	// cold-path; queries and releases never touch this lock.
	regMu sync.Mutex
	// scratch pools the per-request buffers of the batched query plane, so
	// a steady query load performs O(1) allocations per batch (see
	// batchcodec.go) instead of O(1) per query.
	scratch sync.Pool
	// buildGate / batchGate are the admission controllers for the two
	// expensive planes (see admission.go): bounded concurrency, a bounded
	// wait queue, crisp 429s beyond it, and a drain switch for Close.
	buildGate *gate
	batchGate *gate
	// logger is Options.Logger, defaulted to a discard handler so
	// handlers log unconditionally.
	logger *slog.Logger
	// recorder is the flight recorder: a ring of completed traces with
	// tail-based retention, served by /v1/traces (see internal/obs).
	recorder *obs.FlightRecorder

	// Replication plane (see repl.go). isReplica flips false exactly once,
	// at promotion; fenced flips true when a higher-epoch writer fences
	// this node. syncer is non-nil iff the server started with ReplicaOf;
	// promoteMu serializes promotion, syncMu guards the stop handshake.
	isReplica  atomic.Bool
	fenced     atomic.Bool
	syncer     *repl.Syncer
	syncCancel context.CancelFunc
	syncDone   chan struct{}
	promoteMu  sync.Mutex
	syncMu     sync.Mutex
}

// New returns a ready-to-serve Server. With Options.DataDir set it first
// recovers every persisted dataset: the registration request is replayed
// (synthetic data regenerates deterministically from its seed), the
// ledger's spent ε and audit trail are rebuilt from the write-ahead log,
// and committed releases are served again — same IDs, bit-identical
// envelopes — without any new ε spend.
func New(opts Options) (*Server, error) {
	if opts.MaxBodyBytes == 0 {
		opts.MaxBodyBytes = 256 << 20
	}
	if opts.MaxBatch == 0 {
		opts.MaxBatch = 1 << 20
	}
	if opts.MaxSyntheticN == 0 {
		opts.MaxSyntheticN = 5_000_000
	}
	if opts.MaxConcurrentBuilds == 0 {
		opts.MaxConcurrentBuilds = runtime.GOMAXPROCS(0)
	}
	if opts.MaxConcurrentBatches == 0 {
		opts.MaxConcurrentBatches = runtime.GOMAXPROCS(0)
	}
	if opts.DrainTimeout == 0 {
		opts.DrainTimeout = 5 * time.Second
	}
	if opts.TraceRetain == 0 {
		opts.TraceRetain = 512
	}
	if opts.TraceSlow == 0 {
		opts.TraceSlow = 250 * time.Millisecond
	}
	if opts.TraceSample == 0 {
		opts.TraceSample = 100
	}
	buildQueue, batchQueue := opts.AdmissionQueue, opts.AdmissionQueue
	if buildQueue == 0 {
		buildQueue = 2 * opts.MaxConcurrentBuilds
	}
	if batchQueue == 0 {
		batchQueue = 2 * opts.MaxConcurrentBatches
	}
	s := &Server{
		registry:  NewRegistry(),
		metrics:   newMetrics(),
		mux:       http.NewServeMux(),
		opts:      opts,
		buildGate: newGate(opts.MaxConcurrentBuilds, buildQueue),
		batchGate: newGate(opts.MaxConcurrentBatches, batchQueue),
		logger:    opts.Logger,
		recorder:  obs.NewFlightRecorder(opts.TraceRetain, opts.TraceSlow, opts.TraceSample),
	}
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// Point-in-time gauges over authoritative state: the gates' admitted
	// counts and the registry's aggregate footprint are computed at scrape
	// time, never shadowed by a copy.
	s.metrics.reg.GaugeFunc("privtree_builds_in_flight", "Release builds admitted and running.",
		func() float64 { return float64(s.buildGate.Inflight()) })
	s.metrics.reg.GaugeFunc("privtree_batches_in_flight", "Query batches admitted and running.",
		func() float64 { return float64(s.batchGate.Inflight()) })
	s.metrics.reg.GaugeFunc("privtree_datasets", "Registered datasets.",
		func() float64 { return float64(s.registry.Len()) })
	s.metrics.reg.GaugeFunc("privtree_store_bytes_total", "On-disk store footprint, all datasets.",
		func() float64 {
			var total int64
			for _, d := range s.registry.List() {
				total += d.StoreBytes()
			}
			return float64(total)
		})
	s.scratch.New = func() any { return new(queryScratch) }
	s.mux.HandleFunc("POST /v1/datasets", s.route("register", s.handleRegister))
	s.mux.HandleFunc("GET /v1/datasets", s.route("list_datasets", s.handleListDatasets))
	s.mux.HandleFunc("GET /v1/datasets/{name}", s.route("get_dataset", s.handleGetDataset))
	s.mux.HandleFunc("POST /v1/datasets/{name}/ingest", s.route("ingest", s.handleIngest))
	s.mux.HandleFunc("POST /v1/datasets/{name}/releases", s.route("create_release", s.handleCreateRelease))
	s.mux.HandleFunc("GET /v1/datasets/{name}/releases/{id}", s.route("get_release", s.handleGetRelease))
	s.mux.HandleFunc("POST /v1/datasets/{name}/releases/{id}/query", s.route("query", s.handleQuery))
	s.mux.HandleFunc("GET /v1/datasets/{name}/audit", s.route("audit", s.handleAudit))
	s.mux.HandleFunc("GET /v1/traces", s.route("list_traces", s.handleListTraces))
	s.mux.HandleFunc("GET /v1/traces/{id}", s.route("get_trace", s.handleGetTrace))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /readyz", s.route("readyz", s.handleReady))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /metricsz", s.route("metricsz", s.handleMetricsz))
	s.mux.HandleFunc("GET /v1/repl/datasets", s.route("repl_datasets", s.handleReplDatasets))
	s.mux.HandleFunc("GET /v1/repl/datasets/{name}/registration", s.route("repl_registration", s.handleReplRegistration))
	s.mux.HandleFunc("GET /v1/repl/datasets/{name}/wal", s.route("repl_wal", s.handleReplWAL))
	s.mux.HandleFunc("GET /v1/repl/datasets/{name}/artifacts/{sha}", s.route("repl_artifact", s.handleReplArtifact))
	s.mux.HandleFunc("POST /v1/admin/promote", s.route("promote", s.handlePromote))
	s.mux.HandleFunc("POST /v1/admin/fence", s.route("fence", s.handleFence))
	if opts.ReplicaOf != "" && opts.DataDir == "" {
		return nil, fmt.Errorf("server: -replica-of requires a data dir: a replica's state must survive its own restart")
	}
	if err := s.loadDataDir(); err != nil {
		return nil, err
	}
	for _, d := range s.registry.List() {
		if d.store != nil {
			if _, fenced := d.store.FencedEpoch(); fenced {
				s.fenced.Store(true)
			}
		}
	}
	if opts.ReplicaOf != "" {
		s.isReplica.Store(true)
		s.startSyncer()
	}
	return s, nil
}

// Registry exposes the dataset registry (programmatic registration, tests).
func (s *Server) Registry() *Registry { return s.registry }

// Close drains and shuts the server down: both admission gates stop
// admitting immediately (new builds and batches get 503 shutting_down),
// in-flight work is waited for up to Options.DrainTimeout, and then every
// dataset's store is released. All acknowledged ledger traffic and
// artifacts are already durable — the drain protects in-flight requests
// from having the registry closed under them, not durability. Returns an
// error when the drain deadline passed with work still in flight (the
// registry is closed regardless; stragglers fail with store errors).
func (s *Server) Close() error {
	s.stopSyncer()
	deadline := time.Now().Add(s.opts.DrainTimeout)
	buildsDone := s.buildGate.drain(deadline)
	batchesDone := s.batchGate.drain(deadline)
	closeErr := s.registry.Close()
	if !buildsDone || !batchesDone {
		return fmt.Errorf("server: drain timeout after %v with %d builds and %d batches still in flight",
			s.opts.DrainTimeout, s.buildGate.Inflight(), s.batchGate.Inflight())
	}
	return closeErr
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.metrics.requestsTotal.Inc()
	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// statusWriter captures the response status for latency histograms and
// slow-request logs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// route wraps a handler with the request plumbing every route shares: a
// per-route request counter and latency histogram (resolved ONCE, at
// registration — the request path touches only atomics), a trace whose
// ID is echoed as X-Trace-Id and whose context flows down to the WAL,
// the flight-recorder capture, and the slow-request log. A well-formed
// inbound X-Trace-Id is adopted instead of minting a fresh ID, so one
// ID follows a request across client retries and cluster hops.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	c, lat := s.metrics.routeInstruments(name)
	return func(w http.ResponseWriter, r *http.Request) {
		c.Inc()
		var tr *obs.Trace
		if id := r.Header.Get("X-Trace-Id"); obs.ValidTraceID(id) {
			tr = obs.NewTraceWithID(id)
		} else {
			tr = obs.NewTrace()
		}
		w.Header().Set("X-Trace-Id", tr.ID())
		sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(&sw, r.WithContext(obs.NewContext(r.Context(), tr)))
		dur := time.Since(start)
		// ObserveTraced pins the trace ID as the latency bucket's exemplar;
		// the recorder decides whether the full span breakdown is retained
		// for /v1/traces (tail sampling: errors and slow always, 1-in-N
		// otherwise).
		lat.ObserveTraced(dur.Seconds(), tr.ID())
		s.recorder.Record(tr, name, r.PathValue("name"), sw.status, start, dur)
		if slow := s.opts.SlowRequest; slow > 0 && dur >= slow {
			s.logger.Warn("slow request",
				"route", name,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"duration_ms", dur.Milliseconds(),
				"trace", tr.ID(),
				"spans", tr.Summary())
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// decodeJSON parses a request body, translating the MaxBytesReader limit
// into a structured too_large error. Unknown fields are rejected: a
// misspelled release knob silently falling back to its default would
// irreversibly spend ε on the wrong artifact. Returns false when a
// response was already written.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeBodyError(w, err)
		return false
	}
	return true
}

// writeBodyError answers a request whose body could not be read or
// decoded: 413 too_large past the MaxBytesReader limit, 400 otherwise.
func writeBodyError(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, &APIError{
			Code: CodeTooLarge, Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
		return
	}
	writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest, Message: "invalid JSON: " + err.Error()})
}

// rectJSON is the wire form of an axis-aligned box.
type rectJSON struct {
	Lo []float64 `json:"lo"`
	Hi []float64 `json:"hi"`
}

// syntheticSpec asks the server to generate one of the paper's synthetic
// datasets instead of ingesting client data.
type syntheticSpec struct {
	Generator string `json:"generator"`
	N         int    `json:"n"`
	Seed      uint64 `json:"seed"`
}

// registerRequest is the POST /v1/datasets body. Exactly one data source —
// csv, points, sequences, or synthetic — must be present; kind is inferred
// from the source when omitted.
type registerRequest struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind,omitempty"`
	Epsilon float64 `json:"epsilon"`

	Domain    *rectJSON        `json:"domain,omitempty"`
	CSV       string           `json:"csv,omitempty"`
	Points    []privtree.Point `json:"points,omitempty"`
	Synthetic *syntheticSpec   `json:"synthetic,omitempty"`

	Alphabet  int                 `json:"alphabet,omitempty"`
	Sequences []privtree.Sequence `json:"sequences,omitempty"`

	// Stream registers a streaming dataset: it starts EMPTY (no data
	// source), requires an explicit domain (spatial) or alphabet
	// (sequence), and is fed through POST .../ingest. See streamSpec.
	Stream *streamSpec `json:"stream,omitempty"`
}

// datasetInfo is the public (privacy-safe) view of a dataset: budgets,
// schema shape and release metadata only — never raw data, and never the
// exact cardinality. The true N is returned once, in the registration
// acknowledgment to the party that uploaded the data (who knows it
// already); emitting it from list/get/metrics would disclose exact
// membership information outside the ledger's accounting.
type datasetInfo struct {
	Name             string          `json:"name"`
	Kind             Kind            `json:"kind"`
	Dims             int             `json:"dims,omitempty"`
	EpsilonTotal     float64         `json:"epsilon_total"`
	EpsilonSpent     float64         `json:"epsilon_spent"`
	EpsilonRemaining float64         `json:"epsilon_remaining"`
	StoreBytes       int64           `json:"store_bytes,omitempty"`
	Releases         []*Release      `json:"releases,omitempty"`
	NumReleases      int             `json:"num_releases"`
	Stream           *streamInfoJSON `json:"stream,omitempty"`
}

// streamInfoJSON is the streaming status of a dataset: epoch positions
// and the window's composed ε. Pending counts the acknowledged-but-
// unsealed records; it is derived entirely from ingest API traffic (each
// batch's size was visible to its sender), not from hidden data, unlike
// the dataset cardinality which stays undisclosed.
type streamInfoJSON struct {
	EpochEpsilon  float64   `json:"epoch_epsilon"`
	Window        int       `json:"window"`
	LastEpoch     uint64    `json:"last_epoch"`
	WindowEpochs  int       `json:"window_epochs"`
	WindowEpsilon float64   `json:"window_epsilon"`
	Pending       int       `json:"pending"`
	LastSealedAt  time.Time `json:"last_sealed_at,omitempty"`
}

func info(d *Dataset, withReleases bool) datasetInfo {
	out := datasetInfo{
		Name:             d.Name,
		Kind:             d.Kind,
		Dims:             d.Dims(),
		EpsilonTotal:     d.Ledger.Total(),
		EpsilonSpent:     d.Ledger.Spent(),
		EpsilonRemaining: d.Ledger.Remaining(),
		StoreBytes:       d.StoreBytes(),
		NumReleases:      d.NumReleases(),
	}
	if withReleases {
		out.Releases = d.Releases()
		out.NumReleases = len(out.Releases)
	}
	if st := d.stream; st != nil {
		out.Stream = &streamInfoJSON{
			EpochEpsilon:  st.cfg.EpochEpsilon,
			Window:        st.cfg.Window,
			LastEpoch:     st.ring.LastIndex(),
			WindowEpochs:  st.ring.Len(),
			WindowEpsilon: st.ring.WindowEpsilon(),
			Pending:       st.pending(),
			LastSealedAt:  st.ring.LastSealedAt(),
		}
	}
	return out
}

// registerResponse acknowledges an ingest: it is the datasetInfo plus the
// exact ingested cardinality, disclosed only to the registrant.
type registerResponse struct {
	datasetInfo
	N int `json:"n"`
}

var spatialGenerators = map[string]bool{"road": true, "gowalla": true, "nyc": true, "beijing": true}
var sequenceGenerators = map[string]bool{"mooc": true, "msnbc": true}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	if s.isReplica.Load() {
		s.writeReadOnly(w)
		return
	}
	if s.fenced.Load() {
		// Registration never touches a store (the dataset gets a fresh
		// one), so the per-store fencing cannot reject it; the server-wide
		// flag must. A fenced node acquiring new datasets would become a
		// second live budget-writer.
		writeError(w, http.StatusForbidden, &APIError{Code: CodeFenced,
			Message: "node fenced by a higher writer epoch; register datasets on the current primary"})
		return
	}
	body, err := io.ReadAll(r.Body)
	var req registerRequest
	if err == nil {
		req, err = decodeRegisterRequest(body)
	}
	if err != nil {
		writeBodyError(w, err)
		return
	}
	sources := 0
	for _, present := range []bool{req.CSV != "", req.Points != nil, req.Synthetic != nil, req.Sequences != nil} {
		if present {
			sources++
		}
	}
	if req.Stream != nil {
		if sources != 0 {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
				Message: "a streaming dataset starts empty: provide no data source, then POST .../ingest"})
			return
		}
	} else if sources != 1 {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: "exactly one of csv, points, sequences, synthetic must be provided"})
		return
	}

	d, err := s.register(&req)
	if err != nil {
		if errors.Is(err, ErrExists) {
			writeError(w, http.StatusConflict, &APIError{Code: CodeConflict, Message: err.Error()})
			return
		}
		writeErrorFrom(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, registerResponse{datasetInfo: info(d, false), N: d.N()})
}

// register runs the registration transaction for req: build the dataset,
// persist its registration request and attach its store (when the server
// has a data dir), then insert it into the registry. Registrations are
// serialized by regMu so the name check is authoritative — with
// persistence, two racing registrations of one name must not both write
// dataset files.
func (s *Server) register(req *registerRequest) (*Dataset, error) {
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if s.fenced.Load() {
		// Checked again under regMu: the handler's check can race a
		// fence, which flips the flag under this lock (see fenceAll).
		return nil, fmt.Errorf("server: node fenced by a higher writer epoch; register datasets on the current primary: %w", store.ErrFenced)
	}
	if err := ValidateName(req.Name); err != nil {
		return nil, err
	}
	if _, taken := s.registry.Get(req.Name); taken {
		return nil, fmt.Errorf("server: dataset %q: %w", req.Name, ErrExists)
	}
	d, err := s.buildDataset(req)
	if err != nil {
		return nil, err
	}
	if s.opts.DataDir != "" {
		// Durability before visibility: the registration file and the
		// (empty) store must exist before any client can spend ε against
		// the dataset, so no debit can ever land in memory only.
		dsDir := s.datasetDir(d.Name)
		if err := writeDatasetFile(dsDir, req, d.CreatedAt); err != nil {
			return nil, fmt.Errorf("server: persisting dataset %q: %w", d.Name, err)
		}
		if err := d.AttachStore(filepath.Join(dsDir, "store")); err != nil {
			// The client is told the registration failed, so nothing of it
			// may survive to resurrect on the next restart. Removal is safe:
			// regMu serializes registrations, no other writer owns dsDir.
			os.RemoveAll(dsDir)
			return nil, fmt.Errorf("server: dataset %q: %w", d.Name, err)
		}
		if err := s.registry.Insert(d); err != nil {
			d.Close()
			os.RemoveAll(dsDir)
			return nil, err
		}
		s.datasetRegistered(d)
		return d, nil
	}
	if err := s.registry.Insert(d); err != nil {
		d.Close()
		return nil, err
	}
	s.datasetRegistered(d)
	return d, nil
}

// datasetRegistered wires a just-inserted dataset into the metrics
// plane: per-dataset gauges, and (with persistence) the WAL fsync
// latency observer.
func (s *Server) datasetRegistered(d *Dataset) {
	s.metrics.registerDataset(d)
	if d.store != nil {
		d.store.SetFsyncObserver(s.metrics.walFsync.Observe)
	}
	if s.syncer != nil {
		s.metrics.registerReplicaDataset(d, s.syncer)
	}
	if d.stream != nil {
		s.metrics.registerStreamDataset(d)
		if d.stream.cfg.Interval > 0 {
			go s.runSealTimer(d)
		}
	}
}

// buildDataset constructs (without registering) the dataset described by
// req. The cheap checks — name shape, budget — run first: rejecting a
// request after generating or validating millions of points would make
// malformed requests an amplification vector.
func (s *Server) buildDataset(req *registerRequest) (*Dataset, error) {
	if err := ValidateName(req.Name); err != nil {
		return nil, err
	}
	if !(req.Epsilon > 0) || math.IsInf(req.Epsilon, 0) {
		return nil, fmt.Errorf("server: total budget epsilon must be positive and finite, got %v", req.Epsilon)
	}
	kind := Kind(req.Kind)
	if kind == "" {
		switch {
		case req.Sequences != nil:
			kind = KindSequence
		case req.Synthetic != nil && sequenceGenerators[req.Synthetic.Generator]:
			kind = KindSequence
		case req.Stream != nil && req.Alphabet > 0:
			kind = KindSequence
		default:
			kind = KindSpatial
		}
	}
	if kind != KindSpatial && kind != KindSequence {
		return nil, fmt.Errorf("server: unknown dataset kind %q", req.Kind)
	}

	if req.Stream != nil {
		return s.buildStreamDataset(req, kind)
	}

	if req.Synthetic != nil {
		return s.registerSynthetic(req, kind)
	}

	switch kind {
	case KindSequence:
		if req.Sequences == nil {
			return nil, fmt.Errorf("server: sequence dataset needs a sequences array")
		}
		return s.registry.NewSequenceDataset(req.Name, req.Alphabet, req.Sequences, req.Epsilon)
	default:
		var domain geom.Rect
		if req.Domain != nil {
			// MakeRect screens the untrusted bounds (arity, finiteness,
			// inversion); Validate adds the domain-specific strictness
			// (positive extent per axis).
			r, err := geom.MakeRect(req.Domain.Lo, req.Domain.Hi)
			if err != nil {
				return nil, fmt.Errorf("server: invalid domain: %w", err)
			}
			if err := r.Validate(); err != nil {
				return nil, fmt.Errorf("server: invalid domain: %w", err)
			}
			domain = r
		}
		var pts []privtree.Point
		switch {
		case req.CSV != "":
			ds, err := dataset.ReadCSV(strings.NewReader(req.CSV), domain)
			if err != nil {
				return nil, err
			}
			domain, pts = ds.Domain, ds.Points
		default:
			pts = req.Points
			if domain.Dims() == 0 {
				if len(pts) == 0 {
					return nil, fmt.Errorf("server: empty point set needs an explicit domain")
				}
				domain = geom.UnitCube(len(pts[0]))
			}
		}
		return s.registry.NewSpatialDataset(req.Name, domain, pts, req.Epsilon)
	}
}

// buildStreamDataset constructs a streaming dataset: an EMPTY Data of the
// declared shape (explicit domain or alphabet — there are no records yet
// to infer them from) plus the streaming runtime state. The stream spec
// rides inside the persisted registration request, so a restarted node —
// and every replica, which rebuilds datasets from the registration
// document verbatim — derives the identical epoch policy and per-epoch
// release parameters.
func (s *Server) buildStreamDataset(req *registerRequest, kind Kind) (*Dataset, error) {
	var (
		d      *Dataset
		domain geom.Rect
		err    error
	)
	switch kind {
	case KindSequence:
		if req.Alphabet < 1 {
			return nil, fmt.Errorf("server: streaming sequence dataset needs a positive alphabet")
		}
		d, err = s.registry.NewSequenceDataset(req.Name, req.Alphabet, nil, req.Epsilon)
	default:
		if req.Domain == nil {
			return nil, fmt.Errorf("server: streaming spatial dataset needs an explicit domain")
		}
		domain, err = geom.MakeRect(req.Domain.Lo, req.Domain.Hi)
		if err != nil {
			return nil, fmt.Errorf("server: invalid domain: %w", err)
		}
		if err := domain.Validate(); err != nil {
			return nil, fmt.Errorf("server: invalid domain: %w", err)
		}
		d, err = s.registry.NewSpatialDataset(req.Name, domain, nil, req.Epsilon)
	}
	if err != nil {
		return nil, err
	}
	st, err := newDatasetStream(*req.Stream, kind, domain, req.Alphabet)
	if err != nil {
		return nil, err
	}
	d.stream = st
	return d, nil
}

// registerSynthetic generates one of the paper's synthetic datasets
// server-side; useful for demos and load tests without shipping data.
// Regeneration is a pure function of (generator, n, seed), which is what
// lets a persisted synthetic dataset replay identically on restart.
func (s *Server) registerSynthetic(req *registerRequest, kind Kind) (*Dataset, error) {
	spec := req.Synthetic
	if spec.N < 1 || spec.N > s.opts.MaxSyntheticN {
		return nil, fmt.Errorf("server: synthetic n must be in [1,%d], got %d", s.opts.MaxSyntheticN, spec.N)
	}
	rng := dp.NewRand(spec.Seed)
	switch {
	case kind == KindSpatial && spatialGenerators[spec.Generator]:
		ds := synth.SpatialByName(spec.Generator, spec.N, rng)
		return s.registry.NewSpatialDataset(req.Name, ds.Domain, ds.Points, req.Epsilon)
	case kind == KindSequence && sequenceGenerators[spec.Generator]:
		ds := synth.SequenceByName(spec.Generator, spec.N, rng)
		seqs := make([]privtree.Sequence, len(ds.Seqs))
		for i, sq := range ds.Seqs {
			out := make(privtree.Sequence, len(sq.Syms))
			for j, x := range sq.Syms {
				out[j] = int(x)
			}
			seqs[i] = out
		}
		return s.registry.NewSequenceDataset(req.Name, ds.Alphabet.Size, seqs, req.Epsilon)
	}
	return nil, fmt.Errorf("server: unknown %s generator %q (spatial: road, gowalla, nyc, beijing; sequence: mooc, msnbc)",
		kind, spec.Generator)
}

func (s *Server) handleListDatasets(w http.ResponseWriter, r *http.Request) {
	ds := s.registry.List()
	out := make([]datasetInfo, len(ds))
	for i, d := range ds {
		out[i] = info(d, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

// lookup resolves the {name} path segment, writing a 404 on miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Dataset, bool) {
	name := r.PathValue("name")
	d, ok := s.registry.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("dataset %q not registered", name)})
		return nil, false
	}
	return d, true
}

func (s *Server) handleGetDataset(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, info(d, true))
}

// releaseResponse is the POST .../releases reply: the release metadata plus
// the ledger position it left behind.
type releaseResponse struct {
	*Release
	Cached           bool    `json:"cached"`
	EpsilonSpent     float64 `json:"epsilon_spent"`
	EpsilonRemaining float64 `json:"epsilon_remaining"`
}

func (s *Server) handleCreateRelease(w http.ResponseWriter, r *http.Request) {
	if s.isReplica.Load() {
		// Replicas have no budget authority: a release is a ledger debit,
		// and the primary is the dataset's single budget-writer. (Cached
		// re-fetches still belong on the primary — routing them here would
		// make the cached/non-cached distinction depend on replica lag.)
		s.writeReadOnly(w)
		return
	}
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if d.IsStream() {
		// Ad-hoc releases would debit ε outside the epoch accounting,
		// breaking the spent = epochs × ε_epoch invariant the streaming
		// plane maintains. Epoch seals are the only release path.
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: fmt.Sprintf("dataset %q is a streaming dataset: releases are created by epoch seals; query the releases/latest window alias", d.Name)})
		return
	}
	var params ReleaseParams
	if !decodeJSON(w, r, &params) {
		return
	}
	// Admission + deadline. The body is decoded first (cheap) so malformed
	// requests never occupy a build slot; the gate then bounds concurrent
	// builds and the deadline bounds this one. Both the deadline and a
	// client disconnect flow into ReleaseContext, which refunds a mid-build
	// debit durably before surfacing the error.
	ctx := r.Context()
	if s.opts.BuildTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.BuildTimeout)
		defer cancel()
	}
	if err := s.buildGate.acquire(ctx); err != nil {
		s.metrics.recordAdmissionReject(err)
		writeAdmissionError(w, err, "build")
		return
	}
	defer s.buildGate.release()
	rel, cached, err := d.ReleaseContext(ctx, params, s.opts.Workers)
	if err != nil {
		if ctx.Err() != nil {
			s.metrics.recordDeadlineHit()
		}
		writeErrorFrom(w, err)
		return
	}
	if cached {
		s.metrics.releaseCacheHits.Inc()
	} else {
		s.metrics.releasesBuilt.Inc()
		// A genuine build produced trace spans (debit, wal_debit, build,
		// envelope, wal_commit); fold them into the per-stage latency
		// histograms so operators see where build wall-clock goes.
		for _, span := range obs.FromContext(ctx).Spans() {
			s.metrics.stageHist(span.Name).Observe(span.Dur.Seconds())
		}
	}
	status := http.StatusCreated
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, releaseResponse{
		Release:          rel,
		Cached:           cached,
		EpsilonSpent:     d.Ledger.Spent(),
		EpsilonRemaining: d.Ledger.Remaining(),
	})
}

// lookupRelease resolves {name}/{id}, writing a 404 on miss.
func (s *Server) lookupRelease(w http.ResponseWriter, r *http.Request) (*Dataset, *Release, bool) {
	d, ok := s.lookup(w, r)
	if !ok {
		return nil, nil, false
	}
	id := r.PathValue("id")
	rel, ok := d.GetRelease(id)
	if !ok {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("dataset %q has no release %q", d.Name, id)})
		return nil, nil, false
	}
	return d, rel, true
}

func (s *Server) handleGetRelease(w http.ResponseWriter, r *http.Request) {
	if d, ok := s.registry.Get(r.PathValue("name")); ok && d.IsStream() && r.PathValue("id") == "latest" {
		s.writeLatestWindow(w, d)
		return
	}
	_, rel, ok := s.lookupRelease(w, r)
	if !ok {
		return
	}
	// The response is what encoding/json makes of the map {release_id,
	// kind, params, artifact} — keys sorted, HTML-escaped, newline-ended
	// — but the artifact is spliced in verbatim rather than re-validated
	// and re-compacted on every fetch: it is the envelope writer's
	// output (or those exact bytes, persisted or replicated under a
	// SHA-256), which is already compact and HTML-escaped, so encoding
	// it again would reproduce it byte for byte.
	rest, err := json.Marshal(map[string]any{"kind": rel.Kind, "params": rel.Params, "release_id": rel.ID})
	if err != nil {
		writeError(w, http.StatusInternalServerError, &APIError{Code: CodeInternal, Message: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// rest's keys all sort after "artifact", so it continues the object.
	for _, part := range [][]byte{[]byte(`{"artifact":`), rel.Artifact(), []byte(","), rest[1:], []byte("\n")} {
		if _, err := w.Write(part); err != nil {
			return // the client went away; nothing left to tell it
		}
	}
}

// windowEpochJSON is one sealed epoch in the latest-window document.
// Record counts are deliberately absent: the read plane never discloses
// exact cardinalities (see datasetInfo).
type windowEpochJSON struct {
	Epoch     uint64    `json:"epoch"`
	ReleaseID string    `json:"release_id"`
	Epsilon   float64   `json:"epsilon"`
	SealedAt  time.Time `json:"sealed_at"`
}

// writeLatestWindow serves GET .../releases/latest for a streaming
// dataset: the served window's membership and its composed ε cost, so a
// reader can fetch each member artifact (or just query the alias).
func (s *Server) writeLatestWindow(w http.ResponseWriter, d *Dataset) {
	_, live := d.windowReleases()
	if len(live) == 0 {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("streaming dataset %q has no sealed epochs yet", d.Name)})
		return
	}
	epochs := make([]windowEpochJSON, len(live))
	var windowEps float64
	for i, e := range live {
		epochs[i] = windowEpochJSON{Epoch: e.Index, ReleaseID: e.ReleaseID, Epsilon: e.Epsilon, SealedAt: e.SealedAt}
		windowEps += e.Epsilon
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"release_id":     "latest",
		"kind":           d.Kind,
		"window":         epochs,
		"window_size":    d.stream.cfg.Window,
		"window_epsilon": windowEps,
		"last_epoch":     live[len(live)-1].Index,
	})
}

// handleQuery answers a batched-query body: rectangles (spatial, flat
// lo...hi rows) or symbol strings (sequence). The request is decoded and
// the reply encoded through the pooled columnar codec in batchcodec.go, so
// a batch costs O(1) heap allocations end to end.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	// Resolve the release — or, on a streaming dataset, the `latest` window
	// alias: the last W sealed epochs, whose per-query answers are SUMMED
	// across members (each member is an already-released artifact, so the
	// sum is post-processing: no new ε). The window snapshot is taken once
	// here; a seal landing mid-batch does not tear the answer.
	id := r.PathValue("id")
	var rel *Release
	var window []*Release
	if d.IsStream() && id == "latest" {
		window, _ = d.windowReleases()
		if len(window) == 0 {
			writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound,
				Message: fmt.Sprintf("streaming dataset %q has no sealed epochs yet", d.Name)})
			return
		}
		rel = window[len(window)-1]
	} else if rel, ok = d.GetRelease(id); !ok {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("dataset %q has no release %q", d.Name, id)})
		return
	}
	// Admission + deadline for the batch plane. The gate is taken before
	// the body is even read: decoding and answering a million-query batch
	// are both CPU-heavy, so everything past this point counts against the
	// plane's concurrency cap.
	ctx := r.Context()
	if s.opts.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opts.QueryTimeout)
		defer cancel()
	}
	if err := s.batchGate.acquire(ctx); err != nil {
		s.metrics.recordAdmissionReject(err)
		writeAdmissionError(w, err, "batch")
		return
	}
	defer s.batchGate.release()
	sc := s.scratch.Get().(*queryScratch)
	defer func() {
		// Oversized scratches are dropped rather than pooled, so one giant
		// batch cannot pin its buffers behind ordinary traffic.
		if sc.retainedBytes() <= maxPooledScratchBytes {
			s.scratch.Put(sc)
		}
	}()

	body, err := readBody(r, sc.body)
	sc.body = body
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, &APIError{
				Code: CodeTooLarge, Message: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return
		}
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest, Message: "reading body: " + err.Error()})
		return
	}
	batch, err := parseQueryBody(body, sc, s.opts.MaxBatch)
	if err != nil {
		if errors.Is(err, errBatchTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, &APIError{Code: CodeTooLarge,
				Message: fmt.Sprintf("batch exceeds limit %d", s.opts.MaxBatch)})
			return
		}
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest, Message: "invalid JSON: " + err.Error()})
		return
	}
	nQueries, nStrings := 0, 0
	if batch.hasQueries {
		nQueries = len(sc.offs) - 1
	}
	if batch.hasStrings {
		nStrings = len(sc.soffs) - 1
	}
	n := nQueries + nStrings
	if n == 0 {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: "empty batch: provide queries (spatial) or strings (sequence)"})
		return
	}
	if n > s.opts.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, &APIError{Code: CodeTooLarge,
			Message: fmt.Sprintf("batch of %d exceeds limit %d", n, s.opts.MaxBatch)})
		return
	}
	if cap(sc.counts) < n {
		sc.counts = make([]float64, n)
	}
	counts := sc.counts[:n]

	start := time.Now()
	switch rel.Kind {
	case KindSpatial:
		if batch.hasStrings {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
				Message: "spatial release answers rectangle queries, not strings"})
			return
		}
		if err := buildRects(sc, rel.tree.Domain().Dims()); err != nil {
			writeErrorFrom(w, err)
			return
		}
		trees := []*privtree.SpatialTree{rel.tree}
		if window != nil {
			trees = make([]*privtree.SpatialTree, len(window))
			for i, wr := range window {
				trees[i] = wr.tree
			}
		}
		rects := sc.rects
		if err := answerBatchCtx(ctx, counts, s.opts.Workers, func(i int) float64 {
			var sum float64
			for _, t := range trees {
				sum += t.RangeCount(rects[i])
			}
			return sum
		}); err != nil {
			s.metrics.recordDeadlineHit()
			writeErrorFrom(w, err)
			return
		}
	case KindSequence:
		if batch.hasQueries {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
				Message: "sequence release answers string queries, not rectangles"})
			return
		}
		if err := checkSyms(sc, d.alphabet()); err != nil {
			writeErrorFrom(w, err)
			return
		}
		models := []*privtree.SequenceModel{rel.model}
		if window != nil {
			models = make([]*privtree.SequenceModel, len(window))
			for i, wr := range window {
				models[i] = wr.model
			}
		}
		syms, soffs := sc.syms, sc.soffs
		if err := answerBatchCtx(ctx, counts, s.opts.Workers, func(i int) float64 {
			var sum float64
			for _, m := range models {
				sum += m.EstimateFrequency(privtree.Sequence(syms[soffs[i]:soffs[i+1]]))
			}
			return sum
		}); err != nil {
			s.metrics.recordDeadlineHit()
			writeErrorFrom(w, err)
			return
		}
	}
	elapsed := time.Since(start)
	s.metrics.recordQueries(n, elapsed)

	respID := rel.ID
	if window != nil {
		respID = "latest"
	}
	sc.out = appendQueryResponse(sc.out[:0], respID, counts, elapsed.Nanoseconds())
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"uptime_seconds": s.metrics.uptime().Seconds(),
		"datasets":       s.registry.Len(),
	})
}

// auditEntryJSON is one row of the audit endpoint: a ledger event or a
// release commit with its WAL sequence number and originating trace ID.
type auditEntryJSON struct {
	Seq     uint64    `json:"seq,omitempty"`
	Kind    string    `json:"kind"`
	Epsilon float64   `json:"epsilon,omitempty"`
	Key     string    `json:"key"`
	TraceID string    `json:"trace_id,omitempty"`
	SHA     string    `json:"sha256,omitempty"`
	At      time.Time `json:"at"`
}

// auditResponse is the GET /v1/datasets/{name}/audit document: the
// ledger position plus every event that produced it, so spent ε is
// explainable end to end — each entry names the WAL record that made it
// durable and the request trace that caused it.
type auditResponse struct {
	Dataset          string           `json:"dataset"`
	EpsilonTotal     float64          `json:"epsilon_total"`
	EpsilonSpent     float64          `json:"epsilon_spent"`
	EpsilonRemaining float64          `json:"epsilon_remaining"`
	WALSeq           uint64           `json:"wal_seq"`
	Entries          []auditEntryJSON `json:"entries"`
}

func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	entries := d.Audit()
	out := auditResponse{
		Dataset:          d.Name,
		EpsilonTotal:     d.Ledger.Total(),
		EpsilonSpent:     d.Ledger.Spent(),
		EpsilonRemaining: d.Ledger.Remaining(),
		WALSeq:           d.WALSeq(),
		Entries:          make([]auditEntryJSON, len(entries)),
	}
	for i, e := range entries {
		out.Entries[i] = auditEntryJSON{
			Seq: e.Seq, Kind: e.Kind, Epsilon: e.Epsilon, Key: e.Key,
			TraceID: e.TraceID, SHA: e.SHA, At: e.At,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// metricsResponse is the GET /metricsz document (the pre-Prometheus JSON
// shape, preserved wire-compatibly for existing scrapers).
type metricsResponse struct {
	UptimeSeconds    float64          `json:"uptime_seconds"`
	RequestsTotal    int64            `json:"requests_total"`
	RequestsByRoute  map[string]int64 `json:"requests_by_route"`
	QueriesAnswered  int64            `json:"queries_answered"`
	QueriesPerSecond float64          `json:"queries_per_second"`
	QueryNanosTotal  int64            `json:"query_nanos_total"`
	ReleasesBuilt    int64            `json:"releases_built"`
	ReleaseCacheHits int64            `json:"release_cache_hits"`
	// StoreBytesTotal sums every dataset's on-disk ledger+artifact
	// footprint (0 without -data-dir); the per-dataset gauges — including
	// remaining ε — ride each entry of Datasets.
	StoreBytesTotal int64         `json:"store_bytes_total"`
	Datasets        []datasetInfo `json:"datasets"`

	// Overload plane: point-in-time gauges of admitted work plus the
	// cumulative counters behind every "back off and retry" response.
	BuildsInFlight        int64 `json:"builds_in_flight"`
	BatchesInFlight       int64 `json:"batches_in_flight"`
	ShedTotal             int64 `json:"shed_total"`
	DeadlineExceededTotal int64 `json:"deadline_exceeded_total"`
	DrainingRejectsTotal  int64 `json:"draining_rejects_total"`
	RetryableErrorsTotal  int64 `json:"retryable_errors_total"`
}

// handleMetrics serves the Prometheus text exposition: every registered
// counter, gauge, and histogram, with per-route latency, per-dataset ε
// gauges, and Go runtime stats.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.reg.ServeHTTP(w, r)
}

// handleMetricsz serves the legacy JSON counters, wire-compatible with
// the shape /metrics had before the Prometheus exposition replaced it.
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	ds := s.registry.List()
	infos := make([]datasetInfo, len(ds))
	var storeBytes int64
	for i, d := range ds {
		infos[i] = info(d, false)
		storeBytes += infos[i].StoreBytes
	}
	writeJSON(w, http.StatusOK, metricsResponse{
		UptimeSeconds:    s.metrics.uptime().Seconds(),
		RequestsTotal:    int64(s.metrics.requestsTotal.Value()),
		RequestsByRoute:  s.metrics.snapshotRoutes(),
		QueriesAnswered:  int64(s.metrics.queriesAnswered.Value()),
		QueriesPerSecond: s.metrics.queriesPerSecond(),
		QueryNanosTotal:  int64(s.metrics.queryNanos.Value()),
		ReleasesBuilt:    int64(s.metrics.releasesBuilt.Value()),
		ReleaseCacheHits: int64(s.metrics.releaseCacheHits.Value()),
		StoreBytesTotal:  storeBytes,
		Datasets:         infos,

		BuildsInFlight:        s.buildGate.Inflight(),
		BatchesInFlight:       s.batchGate.Inflight(),
		ShedTotal:             int64(s.metrics.shedTotal.Value()),
		DeadlineExceededTotal: int64(s.metrics.deadlineTotal.Value()),
		DrainingRejectsTotal:  int64(s.metrics.drainRejects.Value()),
		RetryableErrorsTotal:  int64(s.metrics.retryableTotal.Value()),
	})
}
