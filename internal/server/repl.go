// Replication plane: the primary's log-shipping endpoints, the replica's
// applying side, and the failover controls. See internal/repl for the
// protocol and the single-budget-writer argument.
//
//	GET  /v1/repl/datasets                           replicated dataset listing
//	GET  /v1/repl/datasets/{name}/registration       the dataset's dataset.json, verbatim
//	GET  /v1/repl/datasets/{name}/wal?from=N         CRC-framed WAL records after N
//	GET  /v1/repl/datasets/{name}/artifacts/{sha}    committed envelope by content address
//	POST /v1/admin/promote                           replica → primary (bumps writer epoch)
//	POST /v1/admin/fence                             durably fence below a writer epoch
//	GET  /readyz                                     readiness (distinct from /healthz liveness)
//
// A replica (Options.ReplicaOf) serves the full read plane — queries,
// batches, audit, artifact fetch, /metrics — from bit-identical
// replicated state, and rejects writes with a structured "read_only"
// error. Promotion stops the syncer, appends a durable epoch record to
// every dataset's WAL, and best-effort delivers a fence to the old
// primary; any later shipping request the stale node receives fences it
// durably as well.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"privtree/internal/obs"
	"privtree/internal/repl"
)

// replDatasetDoc mirrors repl.DatasetDoc (kept separate so the wire shape
// is owned by the handler that serves it).
type replDatasetDoc struct {
	Name               string    `json:"name"`
	CreatedAt          time.Time `json:"created_at"`
	WriterEpoch        uint64    `json:"writer_epoch"`
	LastSeq            uint64    `json:"last_seq"`
	LastEpoch          uint64    `json:"last_epoch,omitempty"`
	RegistrationBytes  int64     `json:"registration_bytes"`
	RegistrationSHA256 string    `json:"registration_sha256"`
}

// handleReplDatasets serves the replicated-dataset listing: every
// store-backed dataset with its writer epoch, its last WAL sequence
// number, and the size and SHA-256 of its registration document (the
// document itself is fetched once, from .../registration).
func (s *Server) handleReplDatasets(w http.ResponseWriter, r *http.Request) {
	if s.opts.DataDir == "" {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: "replication requires a data dir (-data-dir)"})
		return
	}
	ds := s.registry.List()
	out := make([]replDatasetDoc, 0, len(ds))
	for _, d := range ds {
		if d.store == nil {
			continue // in-memory dataset: nothing durable to ship
		}
		size, sum, err := s.registrationSum(d)
		if err != nil {
			writeErrorFrom(w, fmt.Errorf("%w: hashing registration for %q: %v", errInternal, d.Name, err))
			return
		}
		out = append(out, replDatasetDoc{
			Name:               d.Name,
			CreatedAt:          d.CreatedAt,
			WriterEpoch:        d.store.WriterEpoch(),
			LastSeq:            d.store.LastSeq(),
			LastEpoch:          d.store.LastSealedEpoch(),
			RegistrationBytes:  size,
			RegistrationSHA256: sum,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"datasets": out})
}

// registrationSum returns the size and hex SHA-256 of d's dataset.json.
// The file never changes after registration, so it is hashed on the first
// listing and cached on d; a restart does not pay for it.
func (s *Server) registrationSum(d *Dataset) (int64, string, error) {
	d.regMu.Lock()
	defer d.regMu.Unlock()
	if d.regSHA256 == "" {
		f, err := os.Open(filepath.Join(s.datasetDir(d.Name), "dataset.json"))
		if err != nil {
			return 0, "", err
		}
		defer f.Close()
		h := sha256.New()
		n, err := io.Copy(h, f)
		if err != nil {
			return 0, "", err
		}
		d.regBytes, d.regSHA256 = n, hex.EncodeToString(h.Sum(nil))
	}
	return d.regBytes, d.regSHA256, nil
}

// handleReplRegistration serves a store-backed dataset's dataset.json
// verbatim: the bytes a replica creates the dataset from.
func (s *Server) handleReplRegistration(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if d.store == nil {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("dataset %q has no store; nothing to ship", d.Name)})
		return
	}
	f, err := os.Open(filepath.Join(s.datasetDir(d.Name), "dataset.json"))
	if err != nil {
		writeErrorFrom(w, fmt.Errorf("%w: reading registration for %q: %v", errInternal, d.Name, err))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = io.Copy(w, f)
}

// handleReplWAL serves CRC-framed WAL records after ?from=N, capped at
// ?max_bytes. The puller's X-Privtree-Min-Epoch header is the fencing
// trigger: a node asked for a stream below that epoch knows a newer
// writer exists, fences itself durably, and refuses.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if d.store == nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: fmt.Sprintf("dataset %q has no store; nothing to ship", d.Name)})
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: "from must be a WAL sequence number"})
		return
	}
	maxBytes := 0
	if v := r.URL.Query().Get("max_bytes"); v != "" {
		if maxBytes, err = strconv.Atoi(v); err != nil || maxBytes < 0 {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
				Message: "max_bytes must be a non-negative integer"})
			return
		}
	}
	if epoch, fenced := d.store.FencedEpoch(); fenced {
		writeError(w, http.StatusForbidden, &APIError{Code: CodeFenced,
			Message: fmt.Sprintf("node fenced by writer epoch %d; its history may diverge and will not be shipped", epoch)})
		return
	}
	if h := r.Header.Get(repl.HeaderMinEpoch); h != "" {
		minEpoch, err := strconv.ParseUint(h, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
				Message: repl.HeaderMinEpoch + " must be a writer epoch"})
			return
		}
		if minEpoch > d.store.WriterEpoch() {
			// The puller has seen a newer writer than us: we are stale.
			// Fence durably BEFORE refusing, so a crashed-and-revived stale
			// primary stays dead.
			s.regMu.Lock()
			s.fenceAll(minEpoch)
			s.regMu.Unlock()
			writeError(w, http.StatusForbidden, &APIError{Code: CodeFenced,
				Message: fmt.Sprintf("puller requires writer epoch >= %d, node holds %d; fenced", minEpoch, d.store.WriterEpoch())})
			return
		}
	}
	frames, last, err := d.store.WALFrames(from, maxBytes)
	if err != nil {
		writeErrorFrom(w, fmt.Errorf("%w: reading WAL frames: %v", errInternal, err))
		return
	}
	w.Header().Set(repl.HeaderWriterEpoch, strconv.FormatUint(d.store.WriterEpoch(), 10))
	w.Header().Set(repl.HeaderLastSeq, strconv.FormatUint(last, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(frames)
}

// handleReplArtifact serves one committed envelope by content address;
// the bytes are re-verified against the address before they leave.
func (s *Server) handleReplArtifact(w http.ResponseWriter, r *http.Request) {
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sha := r.PathValue("sha")
	if d.store == nil || !d.store.HasArtifact(sha) {
		writeError(w, http.StatusNotFound, &APIError{Code: CodeNotFound,
			Message: fmt.Sprintf("dataset %q has no artifact %q", d.Name, sha)})
		return
	}
	blob, err := d.store.Artifact(sha)
	if err != nil {
		writeErrorFrom(w, fmt.Errorf("%w: loading artifact: %v", errInternal, err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(blob)
}

// fenceAll flips the server's fenced flag, so registrations are refused,
// and then durably fences every store-backed dataset below epoch (best
// effort: stores already at or above the epoch refuse, which is correct —
// they ARE the newer writer). The caller holds s.regMu, and register
// checks the flag under it: a registration either finishes before the
// flag flips, and its store is in the list fenced here, or sees the flag.
func (s *Server) fenceAll(epoch uint64) {
	s.fenced.Store(true)
	for _, d := range s.registry.List() {
		if d.store != nil {
			if err := d.store.Fence(epoch); err != nil {
				s.logger.Warn("fencing dataset failed", "dataset", d.Name, "epoch", epoch, "err", err)
			}
		}
	}
}

// handleFence durably fences this node below the requested writer epoch.
// The request is refused outright when any local dataset already holds
// that epoch or higher — a stray or replayed fence request must never
// take down the live writer.
func (s *Server) handleFence(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Epoch uint64 `json:"epoch"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Epoch == 0 {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: "epoch must be a positive writer epoch"})
		return
	}
	s.regMu.Lock()
	defer s.regMu.Unlock()
	for _, d := range s.registry.List() {
		if d.store != nil && d.store.WriterEpoch() >= req.Epoch {
			writeError(w, http.StatusConflict, &APIError{Code: CodeConflict,
				Message: fmt.Sprintf("dataset %q holds writer epoch %d >= %d; refusing to fence the live writer",
					d.Name, d.store.WriterEpoch(), req.Epoch)})
			return
		}
	}
	s.fenceAll(req.Epoch)
	writeJSON(w, http.StatusOK, map[string]any{"fenced": true, "epoch": req.Epoch})
}

// handlePromote promotes a replica to primary: the syncer is stopped (no
// more frames can arrive mid-promotion), every dataset's store appends a
// durable epoch record granting it the next writer epoch, write handlers
// open up, and a fence at the new maximum epoch is delivered to the old
// primary best-effort. Promoting a node that is already primary is a
// conflict — so is promoting twice.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	// promoteMu, not regMu: stopping the syncer waits for a loop whose
	// Ensure takes regMu, so holding regMu here would deadlock. No
	// registrations can race — a replica rejects them as read_only until
	// the flip below, and the flip happens only after the syncer is gone.
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	if !s.isReplica.Load() {
		writeError(w, http.StatusConflict, &APIError{Code: CodeConflict,
			Message: "node is already a primary"})
		return
	}
	s.stopSyncer()
	trace := obs.FromContext(r.Context()).ID()
	epochs := make(map[string]uint64)
	var maxEpoch uint64
	for _, d := range s.registry.List() {
		if d.store == nil {
			continue
		}
		epoch, err := d.store.Promote(trace)
		if err != nil {
			writeErrorFrom(w, fmt.Errorf("promoting dataset %q: %w", d.Name, err))
			return
		}
		epochs[d.Name] = epoch
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
	}
	s.isReplica.Store(false)
	if old := s.opts.ReplicaOf; old != "" && maxEpoch > 0 {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := repl.NewClient(old, nil).Fence(ctx, maxEpoch); err != nil {
				s.logger.Warn("best-effort fence of old primary failed (it will self-fence on first shipping contact)",
					"primary", old, "epoch", maxEpoch, "err", err)
			}
		}()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"promoted": true, "writer_epochs": epochs, "was_replica_of": s.opts.ReplicaOf,
	})
}

// handleReady serves GET /readyz: whether this node should receive
// traffic, as opposed to /healthz's "is the process up". A replica is
// not ready until its first fully caught-up sync pass (the latch never
// clears — degraded reads during a later primary outage are the point);
// a draining server is not ready; a fenced node still serves reads and
// stays ready.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	role := "primary"
	if s.isReplica.Load() {
		role = "replica"
	}
	switch {
	case s.buildGate.draining.Load() || s.batchGate.draining.Load():
		writeError(w, http.StatusServiceUnavailable, &APIError{Code: CodeNotReady,
			Message: "draining for shutdown"})
	case role == "replica" && s.syncer != nil && !s.syncer.CaughtUp():
		writeError(w, http.StatusServiceUnavailable, &APIError{Code: CodeNotReady,
			Message: fmt.Sprintf("replica catching up from %s", s.syncer.Primary())})
	default:
		doc := map[string]any{"ready": true, "role": role}
		if streams := s.streamStaleness(); len(streams) > 0 {
			doc["streams"] = streams
		}
		writeJSON(w, http.StatusOK, doc)
	}
}

// streamStaleness summarizes every streaming dataset's serving freshness
// for /readyz: the newest sealed epoch, seconds since it sealed, and —
// on replicas — how many epochs the local window trails the primary's
// advertised seal position.
func (s *Server) streamStaleness() map[string]any {
	var out map[string]any
	replica := s.isReplica.Load()
	for _, d := range s.registry.List() {
		if d.stream == nil {
			continue
		}
		doc := map[string]any{"last_epoch": d.stream.ring.LastIndex()}
		if at := d.stream.ring.LastSealedAt(); !at.IsZero() {
			doc["seconds_since_seal"] = time.Since(at).Seconds()
		}
		if replica && s.syncer != nil {
			doc["epochs_behind"] = d.epochsBehind(s.syncer)
		}
		if out == nil {
			out = make(map[string]any)
		}
		out[d.Name] = doc
	}
	return out
}

// epochsBehind returns how many sealed epochs the primary has advertised
// beyond this node's local seal position (0 when caught up or not
// replicating).
func (d *Dataset) epochsBehind(sy *repl.Syncer) uint64 {
	if d.store == nil || sy == nil {
		return 0
	}
	primary := sy.Status()[d.Name].PrimaryEpoch
	local := d.store.LastSealedEpoch()
	if primary <= local {
		return 0
	}
	return primary - local
}

// writeReadOnly rejects a write on a replica with the structured
// read_only error naming the primary.
func (s *Server) writeReadOnly(w http.ResponseWriter) {
	writeError(w, http.StatusForbidden, &APIError{Code: CodeReadOnly,
		Message: fmt.Sprintf("this node is a read replica of %s; send writes to the primary", s.opts.ReplicaOf)})
}

// replicaDataset adapts a *Dataset to repl.Replica: the applying side of
// log shipping.
type replicaDataset struct{ d *Dataset }

func (r replicaDataset) LastSeq() uint64                        { return r.d.store.LastSeq() }
func (r replicaDataset) WriterEpoch() uint64                    { return r.d.store.WriterEpoch() }
func (r replicaDataset) HasArtifact(sha string) bool            { return r.d.store.HasArtifact(sha) }
func (r replicaDataset) PutArtifact(sha string, b []byte) error { return r.d.store.PutArtifact(sha, b) }

// ApplyFrames applies shipped WAL frames verbatim through the session —
// which validates, persists, and replays them into the ledger — then
// registers any newly committed releases in the serving maps, exactly as
// restart recovery does, so the replica serves them bit-identically.
// WALSeq keeps reporting the pre-batch sequence until that is done.
func (r replicaDataset) ApplyFrames(frames []byte) error {
	r.d.applying.Store(r.d.store.LastSeq() + 1)
	defer r.d.applying.Store(0)
	restored, err := r.d.session.ApplyReplicated(frames)
	if err != nil {
		return err
	}
	for _, rr := range restored {
		if err := r.d.restoreRelease(rr.Release, rr.At); err != nil {
			return fmt.Errorf("registering replicated release: %w", err)
		}
	}
	if r.d.stream != nil {
		// Shipped seal records advance the replica's served window. The
		// member releases were restored just above (artifacts are fetched
		// before frames are applied), so every fingerprint resolves.
		if err := r.d.stream.refresh(r.d); err != nil {
			return fmt.Errorf("refreshing stream window: %w", err)
		}
	}
	return nil
}

// replicaTarget implements repl.Target over the server's registry.
type replicaTarget struct{ s *Server }

// Lookup returns the local replica of a dataset already materialized.
func (t replicaTarget) Lookup(name string) (repl.Replica, bool, error) {
	d, ok := t.s.registry.Get(name)
	if !ok {
		return nil, false, nil
	}
	if d.store == nil {
		return nil, false, fmt.Errorf("dataset %q exists without a store; cannot replicate into it", name)
	}
	return replicaDataset{d}, true, nil
}

// Ensure materializes the dataset doc advertises from the primary's
// registration document (already checked against the listing's hash),
// persisting those bytes verbatim. Its errors do not name the dataset:
// the syncer's pass adds the name to each.
func (t replicaTarget) Ensure(doc repl.DatasetDoc, registration []byte) (repl.Replica, error) {
	s := t.s
	s.regMu.Lock()
	defer s.regMu.Unlock()
	if rep, ok, err := t.Lookup(doc.Name); ok || err != nil {
		return rep, err
	}
	pd, err := parseDatasetFile(registration, doc.Name)
	if err != nil {
		return nil, err
	}
	d, err := s.buildDataset(&pd.Request)
	if err != nil {
		return nil, fmt.Errorf("rebuilding from registration: %w", err)
	}
	d.CreatedAt = pd.CreatedAt
	d.regBytes, d.regSHA256 = int64(len(registration)), doc.RegistrationSHA256
	dsDir := s.datasetDir(d.Name)
	// The primary's bytes, not a re-marshaling: a restart of this replica
	// must recover exactly the document the primary registered.
	if err := writeDatasetBlob(dsDir, registration); err != nil {
		return nil, fmt.Errorf("persisting registration: %w", err)
	}
	if err := d.AttachStore(filepath.Join(dsDir, "store")); err != nil {
		os.RemoveAll(dsDir)
		return nil, err
	}
	if err := s.registry.Insert(d); err != nil {
		d.Close()
		os.RemoveAll(dsDir)
		return nil, err
	}
	s.datasetRegistered(d)
	return replicaDataset{d}, nil
}

// startSyncer begins continuous log shipping from Options.ReplicaOf.
func (s *Server) startSyncer() {
	httpc := s.opts.ReplicaHTTP
	if httpc == nil {
		timeout := s.opts.ReplicaTimeout
		if timeout <= 0 {
			timeout = 30 * time.Second
		}
		httpc = &http.Client{Timeout: timeout}
	}
	s.syncer = repl.NewSyncer(s.opts.ReplicaOf, replicaTarget{s}, repl.Options{
		Interval:   s.opts.ReplicaPoll,
		HTTPClient: httpc,
		Logger:     s.logger,
		// Shipping operations land in the replica's own flight recorder
		// and stage histograms; an artifact fetch arrives under the
		// originating release's trace ID, so the X-Trace-Id a client saw
		// on the primary resolves here too.
		TraceHook: func(dataset, op string, tr *obs.Trace, start time.Time, dur time.Duration, err error) {
			status := http.StatusOK
			if err != nil {
				status = http.StatusBadGateway
			}
			s.recorder.Record(tr, op, dataset, status, start, dur)
			s.metrics.stageHist(op).Observe(dur.Seconds())
		},
	})
	// Datasets recovered from disk before the syncer existed (a replica
	// restart) get their shipping gauges here; later ones get them in
	// datasetRegistered as Ensure inserts them.
	for _, d := range s.registry.List() {
		s.metrics.registerReplicaDataset(d, s.syncer)
	}
	s.metrics.reg.GaugeFunc("privtree_replica_caught_up",
		"1 after the replica's first fully caught-up sync pass (latches).",
		func() float64 {
			if s.syncer.CaughtUp() {
				return 1
			}
			return 0
		})
	ctx, cancel := context.WithCancel(context.Background())
	s.syncCancel = cancel
	s.syncDone = make(chan struct{})
	go func() {
		defer close(s.syncDone)
		s.syncer.Run(ctx)
	}()
}

// stopSyncer cancels the shipping loop and waits for it to exit, so no
// frame application can race a promotion or shutdown. Idempotent and
// safe under concurrent promote/Close.
func (s *Server) stopSyncer() {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.syncCancel == nil {
		return
	}
	s.syncCancel()
	<-s.syncDone
	s.syncCancel = nil
}
