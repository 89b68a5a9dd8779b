// Package repl implements primary/replica replication for privtreed on
// top of internal/store: WAL log shipping, content-addressed artifact
// transfer, and fenced failover.
//
// # Topology
//
//	                 writes (debits, builds, commits)
//	clients ────────────────► primary ──┐
//	   │                                │  log shipping (pull):
//	   │  reads (queries, audit,        │   GET /v1/repl/datasets
//	   │  artifact fetch, /metrics)     │   GET /v1/repl/datasets/{name}/registration
//	   │                                │   GET /v1/repl/datasets/{name}/wal?from=N
//	   └───────► replicas ◄─────────────┘   GET /v1/repl/datasets/{name}/artifacts/{sha}
//
// The primary is the dataset's single budget-writer: only it appends
// debits, refunds, and commits to the ε ledger WAL. Replicas pull the
// same CRC-framed records that live in the primary's WAL — re-framed
// deterministically from its in-memory history, so compaction never
// breaks shipping — and apply them verbatim at the same sequence
// numbers, making each replica's history a bit-identical prefix of the
// primary's. Released envelopes travel by SHA-256 content address and
// are hash-verified on receipt, so a replica can never serve bytes the
// primary did not commit. Queries over released trees are pure
// post-processing; replicas therefore need no budget authority at all.
//
// # Single budget-writer and fencing
//
// The safety property is that spent ε is never under-counted, and its
// cluster corollary: two nodes must never both believe they may debit
// the same dataset's budget. The mechanism is a monotonic writer epoch,
// carried as a durable WAL record (store.EventEpoch) and in the shipping
// protocol's X-Privtree-Writer-Epoch / X-Privtree-Min-Epoch headers:
//
//   - Promotion appends an epoch record granting epoch e+1; the record
//     is fsynced before the promotion is acknowledged and replicates
//     like any other record.
//   - A store that has seen (or been told of) a writer at a higher epoch
//     is FENCED, durably: every local append — debit, refund, commit,
//     promotion, replicated batch — fails, across restarts.
//   - A puller presents its own epoch as X-Privtree-Min-Epoch; a node
//     asked to serve a stream below that epoch knows a newer writer
//     exists, fences itself durably, and refuses with a structured
//     "fenced" error. A revived stale primary therefore cannot ship its
//     unfenced history to anyone who has seen the new writer.
//   - A replica rejects any shipment whose advertised epoch is below its
//     own, so its history can never regress to a stale writer's.
//
// A partitioned stale primary can keep accepting writes until it is
// fenced — the protocol is fail-safe for ε (each side's ledger still
// over-counts its own acknowledged debits; budgets are per-store, and
// promotion is an explicit operator action), not a consensus system.
// Repointing clients and replicas at the promoted node (and delivering
// the fence to the old primary, which promotion attempts best-effort) is
// the operator's runbook step; once any shipping request from the new
// regime touches the stale node, fencing is automatic and permanent.
//
// # Degraded mode
//
// Replicas serve the full read plane from local state and keep doing so
// when the primary is unreachable — the Syncer just stops advancing and
// the replica's lag gauges grow. Catch-up state is observable via
// Syncer.CaughtUp (readiness) and per-dataset applied/observed sequence
// numbers (the privtree_replica_last_applied_seq and
// privtree_replica_lag_records gauges).
package repl

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"privtree/internal/obs"
	"privtree/internal/store"
)

// Shipping protocol headers.
const (
	// HeaderWriterEpoch reports the serving node's writer epoch on every
	// shipping response.
	HeaderWriterEpoch = "X-Privtree-Writer-Epoch"
	// HeaderMinEpoch is presented by a puller: the lowest writer epoch it
	// will accept a stream from. A node whose epoch is lower must fence
	// itself and refuse.
	HeaderMinEpoch = "X-Privtree-Min-Epoch"
	// HeaderLastSeq reports the last WAL sequence number included in a
	// frame response (and the node's last sequence on dataset listings).
	HeaderLastSeq = "X-Privtree-Last-Seq"
)

// DatasetDoc describes one replicated dataset as advertised by the
// primary. The listing stays small whatever the dataset's size: it names
// the primary's persisted dataset.json by size and SHA-256 only, and a
// replica fetches that document once (Client.Registration), to rebuild
// the dataset from exactly the bytes the primary registered it with.
type DatasetDoc struct {
	Name        string    `json:"name"`
	CreatedAt   time.Time `json:"created_at"`
	WriterEpoch uint64    `json:"writer_epoch"`
	LastSeq     uint64    `json:"last_seq"`
	// LastEpoch is the newest stream epoch sealed on the advertising node
	// (0 for non-streaming datasets); replicas compare it against their
	// local seal position to report epochs-behind.
	LastEpoch          uint64 `json:"last_epoch,omitempty"`
	RegistrationBytes  int64  `json:"registration_bytes"`
	RegistrationSHA256 string `json:"registration_sha256"`
}

// RemoteError is a structured (JSON error envelope) rejection from the
// peer, preserving its error code for fencing detection.
type RemoteError struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("repl: peer returned %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// IsFenced reports whether err is a structured rejection carrying the
// "fenced" error code — the peer refuses because a higher-epoch writer
// exists.
func IsFenced(err error) bool {
	var re *RemoteError
	return errors.As(err, &re) && re.Code == "fenced"
}

// Client is the shipping-protocol client: dataset discovery, WAL frame
// pull, hash-verified artifact fetch, and fence delivery.
type Client struct {
	base  string
	httpc *http.Client
}

// NewClient returns a protocol client for the peer at base (e.g.
// "http://10.0.0.1:8080"). httpc may be nil for http.DefaultClient.
func NewClient(base string, httpc *http.Client) *Client {
	if httpc == nil {
		httpc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), httpc: httpc}
}

func (c *Client) get(ctx context.Context, path string, header http.Header) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	// Propagate the pull's trace so the primary's flight recorder and the
	// replica's see the same ID for one shipping operation.
	if id := obs.FromContext(ctx).ID(); id != "" {
		req.Header.Set("X-Trace-Id", id)
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, decodeRemoteError(resp)
	}
	return resp, nil
}

func decodeRemoteError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err == nil && envelope.Error.Code != "" {
		return &RemoteError{StatusCode: resp.StatusCode, Code: envelope.Error.Code, Message: envelope.Error.Message}
	}
	return &RemoteError{StatusCode: resp.StatusCode, Code: "unknown", Message: strings.TrimSpace(string(body))}
}

// Datasets lists the peer's replicated datasets.
func (c *Client) Datasets(ctx context.Context) ([]DatasetDoc, error) {
	resp, err := c.get(ctx, "/v1/repl/datasets", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out struct {
		Datasets []DatasetDoc `json:"datasets"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out); err != nil {
		return nil, fmt.Errorf("repl: decoding dataset listing: %w", err)
	}
	return out.Datasets, nil
}

// Registration fetches the registration document doc advertises. It reads
// at most the advertised size and refuses bytes that are not exactly that
// size or do not hash to the advertised SHA-256.
func (c *Client) Registration(ctx context.Context, doc DatasetDoc) ([]byte, error) {
	resp, err := c.get(ctx, "/v1/repl/datasets/"+url.PathEscape(doc.Name)+"/registration", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, doc.RegistrationBytes+1))
	if err != nil {
		return nil, fmt.Errorf("repl: reading registration of %q: %w", doc.Name, err)
	}
	if int64(len(blob)) != doc.RegistrationBytes || !store.VerifyAddr(doc.RegistrationSHA256, blob) {
		return nil, fmt.Errorf("repl: registration of %q: received %d bytes that do not match the advertised %d bytes and SHA-256",
			doc.Name, len(blob), doc.RegistrationBytes)
	}
	return blob, nil
}

// WALFrames pulls CRC-framed WAL records for dataset with sequence
// numbers after from, presenting minEpoch as the lowest acceptable
// writer epoch. It returns the raw frames, the peer's writer epoch, and
// the last sequence number included.
func (c *Client) WALFrames(ctx context.Context, dataset string, from uint64, minEpoch uint64, maxBytes int) (frames []byte, writerEpoch, lastSeq uint64, err error) {
	q := url.Values{"from": {strconv.FormatUint(from, 10)}}
	if maxBytes > 0 {
		q.Set("max_bytes", strconv.Itoa(maxBytes))
	}
	h := http.Header{}
	if minEpoch > 0 {
		h.Set(HeaderMinEpoch, strconv.FormatUint(minEpoch, 10))
	}
	resp, err := c.get(ctx, "/v1/repl/datasets/"+url.PathEscape(dataset)+"/wal?"+q.Encode(), h)
	if err != nil {
		return nil, 0, 0, err
	}
	defer resp.Body.Close()
	writerEpoch, _ = strconv.ParseUint(resp.Header.Get(HeaderWriterEpoch), 10, 64)
	lastSeq, err = strconv.ParseUint(resp.Header.Get(HeaderLastSeq), 10, 64)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("repl: frame response missing %s header", HeaderLastSeq)
	}
	frames, err = io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("repl: reading frames: %w", err)
	}
	return frames, writerEpoch, lastSeq, nil
}

// Artifact fetches one committed envelope by content address and
// verifies the bytes hash to it before returning them.
func (c *Client) Artifact(ctx context.Context, dataset, shaHex string) ([]byte, error) {
	resp, err := c.get(ctx, "/v1/repl/datasets/"+url.PathEscape(dataset)+"/artifacts/"+url.PathEscape(shaHex), nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, fmt.Errorf("repl: reading artifact %s: %w", shaHex, err)
	}
	// The store re-verifies on PutArtifact, but verifying here too keeps a
	// corrupted transfer from being reported as a store error.
	if !store.VerifyAddr(shaHex, blob) {
		return nil, fmt.Errorf("repl: artifact %s: received bytes do not hash to their address", shaHex)
	}
	return blob, nil
}

// Fence tells the peer a writer at epoch exists, asking it to durably
// fence every dataset below that epoch. Used best-effort at promotion
// time; fencing is also triggered lazily by any shipping request the
// stale node receives.
func (c *Client) Fence(ctx context.Context, epoch uint64) error {
	body := strings.NewReader(fmt.Sprintf(`{"epoch":%d}`, epoch))
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/admin/fence", body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeRemoteError(resp)
	}
	return nil
}

// Replica is one locally served dataset on the applying side of log
// shipping (implemented by the server's dataset registry).
type Replica interface {
	// LastSeq returns the highest applied WAL sequence number.
	LastSeq() uint64
	// WriterEpoch returns the highest writer epoch in the applied history.
	WriterEpoch() uint64
	// HasArtifact reports whether the artifact is already stored locally.
	HasArtifact(shaHex string) bool
	// PutArtifact stores a fetched artifact, verifying its address.
	PutArtifact(shaHex string, blob []byte) error
	// ApplyFrames validates and applies shipped WAL frames verbatim.
	ApplyFrames(frames []byte) error
}

// Target is the applying side's dataset registry.
type Target interface {
	// Lookup returns the local replica of a dataset already created.
	Lookup(name string) (Replica, bool, error)
	// Ensure creates and registers the dataset doc advertises from its
	// registration document, hash-verified against doc, or returns the
	// replica that already exists.
	Ensure(doc DatasetDoc, registration []byte) (Replica, error)
}

// Options configures a Syncer.
type Options struct {
	// Interval between sync passes (default 250ms).
	Interval time.Duration
	// HTTPClient used for shipping requests (default http.DefaultClient).
	HTTPClient *http.Client
	// MaxBytes per WAL pull (default 1 MiB).
	MaxBytes int
	// Logger for sync errors (default slog.Default).
	Logger *slog.Logger
	// TraceHook, when non-nil, receives one completed trace per shipping
	// operation (op "repl.wal_pull" or "repl.artifact_fetch") — the
	// replica server feeds these into its flight recorder and stage
	// histograms. An artifact fetch's trace carries the ORIGINATING
	// release's trace ID (from the shipped WAL commit record), so the ID
	// a client saw on its release resolves on the replica too.
	TraceHook func(dataset, op string, tr *obs.Trace, start time.Time, dur time.Duration, err error)
}

// DatasetLag is one dataset's shipping progress: the last sequence
// number applied locally and the last one observed on the primary, plus
// (for streaming datasets) the primary's newest sealed epoch.
type DatasetLag struct {
	Applied  uint64
	Observed uint64
	// PrimaryEpoch is the newest stream epoch the primary advertised (0
	// for non-streaming datasets); compare against the local store's
	// LastSealedEpoch for epochs-behind.
	PrimaryEpoch uint64
}

// Lag returns the record lag (observed - applied, never negative).
func (l DatasetLag) Lag() uint64 {
	if l.Observed <= l.Applied {
		return 0
	}
	return l.Observed - l.Applied
}

// Syncer drives continuous log shipping from one primary into a Target.
// Run it in a goroutine; it stops when its context is cancelled. All
// methods are safe for concurrent use.
type Syncer struct {
	client    *Client
	target    Target
	interval  time.Duration
	maxBytes  int
	log       *slog.Logger
	traceHook func(dataset, op string, tr *obs.Trace, start time.Time, dur time.Duration, err error)

	mu     sync.Mutex
	lag    map[string]DatasetLag
	caught bool      // latches true after the first fully caught-up pass
	seen   time.Time // last successful contact with the primary
}

// NewSyncer returns a Syncer pulling from the primary at base into
// target.
func NewSyncer(base string, target Target, opts Options) *Syncer {
	if opts.Interval <= 0 {
		opts.Interval = 250 * time.Millisecond
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 1 << 20
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	return &Syncer{
		client:    NewClient(base, opts.HTTPClient),
		target:    target,
		interval:  opts.Interval,
		maxBytes:  opts.MaxBytes,
		log:       opts.Logger,
		traceHook: opts.TraceHook,
		lag:       make(map[string]DatasetLag),
	}
}

// observeOp finishes one traced shipping operation: closes its span and
// hands the trace to the TraceHook, if any.
func (s *Syncer) observeOp(dataset, op string, tr *obs.Trace, start time.Time, err error) {
	dur := time.Since(start)
	tr.Add(op, start, dur)
	if s.traceHook != nil {
		s.traceHook(dataset, op, tr, start, dur, err)
	}
}

// Primary returns the address the syncer pulls from.
func (s *Syncer) Primary() string { return s.client.base }

// CaughtUp reports whether the replica has completed at least one fully
// caught-up sync pass. It latches: a later primary outage does not make
// a replica "not ready" again — serving stale-but-complete reads is the
// whole point of degraded mode.
func (s *Syncer) CaughtUp() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.caught
}

// Status returns the per-dataset shipping progress.
func (s *Syncer) Status() map[string]DatasetLag {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]DatasetLag, len(s.lag))
	for k, v := range s.lag {
		out[k] = v
	}
	return out
}

// LastContact returns the time of the last successful exchange with the
// primary (zero before the first).
func (s *Syncer) LastContact() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// Run pulls until ctx is cancelled. Transient failures — an unreachable
// primary, a partition mid-stream, a corrupt shipment — are logged and
// retried on the next pass; the replica keeps serving whatever it has.
func (s *Syncer) Run(ctx context.Context) {
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		if err := s.syncOnce(ctx); err != nil && ctx.Err() == nil {
			s.log.Warn("replication sync failed", "primary", s.client.base, "err", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// syncOnce performs one full pass: list datasets, then for each, pull
// and apply frames until caught up with the listing.
func (s *Syncer) syncOnce(ctx context.Context) error {
	docs, err := s.client.Datasets(ctx)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.seen = time.Now()
	s.mu.Unlock()
	allCaught := true
	var firstErr error
	for _, doc := range docs {
		caught, err := s.syncDataset(ctx, doc)
		if err != nil {
			allCaught = false
			if firstErr == nil {
				firstErr = fmt.Errorf("dataset %q: %w", doc.Name, err)
			}
			continue
		}
		if !caught {
			allCaught = false
		}
	}
	if allCaught && firstErr == nil {
		s.mu.Lock()
		s.caught = true
		s.mu.Unlock()
	}
	return firstErr
}

// replica returns doc's local replica. The registration document is
// fetched only the first time a dataset is listed; a transfer that does
// not match the listing is refused, and the next pass fetches it again.
func (s *Syncer) replica(ctx context.Context, doc DatasetDoc) (Replica, error) {
	if rep, ok, err := s.target.Lookup(doc.Name); ok || err != nil {
		return rep, err
	}
	blob, err := s.client.Registration(ctx, doc)
	if err != nil {
		return nil, err
	}
	return s.target.Ensure(doc, blob)
}

func (s *Syncer) syncDataset(ctx context.Context, doc DatasetDoc) (caught bool, err error) {
	rep, err := s.replica(ctx, doc)
	if err != nil {
		return false, err
	}
	local := rep.WriterEpoch()
	if doc.WriterEpoch < local {
		// The listed node is a stale writer; never regress to its stream.
		return false, fmt.Errorf("primary advertises epoch %d below local epoch %d; refusing its stream", doc.WriterEpoch, local)
	}
	cur := rep.LastSeq()
	defer func() {
		s.mu.Lock()
		s.lag[doc.Name] = DatasetLag{Applied: rep.LastSeq(), Observed: max(doc.LastSeq, rep.LastSeq()), PrimaryEpoch: doc.LastEpoch}
		s.mu.Unlock()
	}()
	for cur < doc.LastSeq {
		if ctx.Err() != nil {
			return false, ctx.Err()
		}
		// Each pull gets its own trace: the ID rides the request to the
		// primary (whose recorder may retain the serving side) and lands
		// in the replica's recorder via the TraceHook.
		pullTr := obs.NewTrace()
		pullStart := time.Now()
		frames, epoch, last, err := s.client.WALFrames(obs.NewContext(ctx, pullTr), doc.Name, cur, local, s.maxBytes)
		s.observeOp(doc.Name, "repl.wal_pull", pullTr, pullStart, err)
		if err != nil {
			return false, err
		}
		if epoch < local {
			return false, fmt.Errorf("stream advertises epoch %d below local epoch %d; refusing", epoch, local)
		}
		if len(frames) == 0 || last <= cur {
			break // primary compacted or listing raced; re-poll next pass
		}
		if err := s.fetchArtifacts(ctx, doc.Name, rep, frames); err != nil {
			return false, err
		}
		if err := rep.ApplyFrames(frames); err != nil {
			return false, err
		}
		local = rep.WriterEpoch() // an applied epoch record raises the bar
		cur = rep.LastSeq()
	}
	return cur >= doc.LastSeq, nil
}

// fetchArtifacts pre-fetches (hash-verified) every artifact referenced
// by commit records in frames, so the batch can be applied atomically.
func (s *Syncer) fetchArtifacts(ctx context.Context, dataset string, rep Replica, frames []byte) error {
	events, err := store.ParseFrames(frames)
	if err != nil {
		return fmt.Errorf("corrupt shipment: %w", err)
	}
	for _, e := range events {
		if e.Kind != store.EventCommit {
			continue
		}
		shaHex := store.AddrString(e.SHA)
		if rep.HasArtifact(shaHex) {
			continue
		}
		// The fetch adopts the ORIGINATING release's trace ID from the
		// shipped commit record: an operator holding the X-Trace-Id a
		// client saw can look up the artifact's arrival on the replica.
		var tr *obs.Trace
		if obs.ValidTraceID(e.Trace) {
			tr = obs.NewTraceWithID(e.Trace)
		} else {
			tr = obs.NewTrace()
		}
		start := time.Now()
		blob, err := s.client.Artifact(obs.NewContext(ctx, tr), dataset, shaHex)
		if err == nil {
			err = rep.PutArtifact(shaHex, blob)
		}
		s.observeOp(dataset, "repl.artifact_fetch", tr, start, err)
		if err != nil {
			return err
		}
	}
	return nil
}
