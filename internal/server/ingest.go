package server

import (
	"errors"
	"fmt"
	"net/http"

	"privtree"
	"privtree/internal/obs"
	"privtree/internal/wire"
)

// POST /v1/datasets/{name}/ingest — the write side of a streaming
// dataset. The body is decoded through the same pooled columnar codec as
// the batch query plane (O(1) allocations per batch), validated in full
// BEFORE anything is journaled or applied (a hostile batch either applies
// completely or not at all), journaled durably before it is acknowledged,
// and appended to the pending epoch buffer. A batch may also trigger a
// seal: explicitly ("seal": true), by size (spec seal_every), or — between
// requests — by the interval timer.
//
// Idempotency: a client-supplied batch_seq at or below the highest
// applied sequence is acknowledged as a duplicate without applying —
// that is what makes blind retries of ingest writes safe (the client's
// sticky-primary router relies on it). Omitted (zero) sequences are
// auto-assigned server-side so every journaled batch still carries a
// strictly increasing sequence for replay filtering.

// ingestBatch is the decoded envelope of one ingest request.
type ingestBatch struct {
	batchSeq   uint64
	seal       bool
	hasPoints  bool
	hasStrings bool
}

// parseIngestBody decodes {"batch_seq":N, "points":[[...],...],
// "strings":[[...],...], "seal":bool} into sc's pooled buffers, reading
// body in place. Unknown fields are rejected, mirroring the query codec.
func parseIngestBody(body []byte, sc *queryScratch, maxRows int) (ingestBatch, error) {
	var out ingestBatch
	r := wire.NewReader(body)
	err := strictObject(r, func(key []byte) (err error) {
		switch string(key) {
		case "batch_seq":
			out.batchSeq, err = r.Uint()
		case "points":
			out.hasPoints, err = readRows(r, &sc.flat, &sc.offs, maxRows, nil, r.Float)
		case "strings":
			out.hasStrings, err = readRows(r, &sc.syms, &sc.soffs, maxRows, nil, symbolReader(r))
		case "seal":
			out.seal, err = r.Bool()
		default:
			err = unknownField(key)
		}
		return err
	})
	return out, err
}

// ingestResponse acknowledges one ingest batch. Applied counts are
// disclosed to the ingester only — who supplied the records.
type ingestResponse struct {
	BatchSeq  uint64 `json:"batch_seq"`
	Applied   int    `json:"applied"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Pending   int    `json:"pending"`

	Sealed        bool    `json:"sealed"`
	Epoch         uint64  `json:"epoch,omitempty"`      // epoch just sealed (when Sealed)
	ReleaseID     string  `json:"release_id,omitempty"` // its release (when Sealed)
	LastEpoch     uint64  `json:"last_epoch"`           // newest epoch in the served window
	WindowEpsilon float64 `json:"window_epsilon"`
	EpsilonSpent  float64 `json:"epsilon_spent"`
	// SealError reports a failed seal attempt AFTER the batch itself was
	// durably applied (the ack stays truthful: applied yes, sealed no).
	// The frozen epoch is retained and retried on the next trigger.
	SealError string `json:"seal_error,omitempty"`
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.isReplica.Load() {
		s.writeReadOnly(w)
		return
	}
	if s.fenced.Load() {
		writeError(w, http.StatusForbidden, &APIError{Code: CodeFenced,
			Message: "node fenced by a higher writer epoch; ingest on the current primary"})
		return
	}
	d, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !d.IsStream() {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: fmt.Sprintf("dataset %q is not a streaming dataset; register it with a stream spec", d.Name)})
		return
	}
	// Ingest rides the batch plane's admission gate: decoding and
	// validating a large batch is CPU-bound work of the same shape as a
	// query batch. A triggered seal additionally takes a build slot below.
	ctx := r.Context()
	if err := s.batchGate.acquire(ctx); err != nil {
		s.metrics.recordAdmissionReject(err)
		writeAdmissionError(w, err, "batch")
		return
	}
	defer s.batchGate.release()
	sc := s.scratch.Get().(*queryScratch)
	defer func() {
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
	batch, err := parseIngestBody(body, sc, s.opts.MaxBatch)
	if err != nil {
		if errors.Is(err, errBatchTooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, &APIError{Code: CodeTooLarge,
				Message: fmt.Sprintf("batch exceeds limit %d", s.opts.MaxBatch)})
			return
		}
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest, Message: "invalid JSON: " + err.Error()})
		return
	}

	// Materialize rows aliasing the scratch columns (Stream.Append* copies
	// into its slab, so no second copy happens) and validate EVERYTHING
	// before any durable effect: a batch with one bad row applies nothing.
	st := d.stream
	var pts []privtree.Point
	var seqs []privtree.Sequence
	switch d.Kind {
	case KindSpatial:
		if batch.hasStrings {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
				Message: "spatial stream ingests points, not strings"})
			return
		}
		if batch.hasPoints {
			rows := len(sc.offs) - 1
			pts = make([]privtree.Point, rows)
			for i := 0; i < rows; i++ {
				pts[i] = privtree.Point(sc.flat[sc.offs[i]:sc.offs[i+1]])
			}
		}
	case KindSequence:
		if batch.hasPoints {
			writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
				Message: "sequence stream ingests strings, not points"})
			return
		}
		if batch.hasStrings {
			rows := len(sc.soffs) - 1
			seqs = make([]privtree.Sequence, rows)
			for i := 0; i < rows; i++ {
				seqs[i] = privtree.Sequence(sc.syms[sc.soffs[i]:sc.soffs[i+1]])
			}
		}
	}
	nRecords := len(pts) + len(seqs)
	if nRecords == 0 && !batch.seal {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest,
			Message: "empty ingest batch: provide points/strings, or seal:true to seal the pending epoch"})
		return
	}
	if err := st.validateBatch(pts, seqs); err != nil {
		writeError(w, http.StatusBadRequest, &APIError{Code: CodeBadRequest, Message: err.Error()})
		return
	}

	st.mu.Lock()
	if batch.batchSeq != 0 && batch.batchSeq <= st.lastBatch {
		// Duplicate delivery (a retried write): acknowledge without
		// applying. The original application — possibly by a previous
		// process, recovered via journal or seal records — already counted.
		resp := ingestResponse{
			BatchSeq: batch.batchSeq, Duplicate: true,
			Pending:       st.buf.Pending() + st.frozenN,
			LastEpoch:     st.ring.LastIndex(),
			WindowEpsilon: st.ring.WindowEpsilon(),
			EpsilonSpent:  d.Ledger.Spent(),
		}
		st.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	seq := batch.batchSeq
	if seq == 0 {
		seq = st.lastBatch + 1
	}
	if nRecords > 0 {
		if st.journal != nil {
			// Durability before acknowledgment: the batch's journal frame is
			// fsynced before the response (or even the in-memory apply), so a
			// crash at any later instant replays exactly this batch. The
			// append and its inner fsync are recorded as spans and fed to
			// the stage histograms — on a saturated disk this is where
			// ingest latency lives.
			tr := obs.FromContext(ctx)
			appendSpan := tr.Begin("ingest.append")
			err := st.journal.Append(seq, pts, seqs, tr)
			appendSpan.End()
			if err != nil {
				st.mu.Unlock()
				writeError(w, http.StatusServiceUnavailable, &APIError{Code: CodeStoreUnavailable,
					Message: "journaling ingest batch: " + err.Error()})
				return
			}
			for _, sp := range tr.Spans() {
				switch sp.Name {
				case "ingest.append", "journal.fsync":
					s.metrics.stageHist(sp.Name).Observe(sp.Dur.Seconds())
				}
			}
		}
		if err := st.applyLocked(pts, seqs); err != nil {
			// Unreachable after validateBatch; surfaced defensively.
			st.mu.Unlock()
			writeErrorFrom(w, err)
			return
		}
		st.lastBatch = seq
		st.batches.Add(1)
		st.records.Add(uint64(nRecords))
		s.metrics.recordIngest(nRecords)
	}

	resp := ingestResponse{BatchSeq: seq, Applied: nRecords}
	if batch.seal || (st.cfg.SealEvery > 0 && st.buf.Pending() >= st.cfg.SealEvery) {
		if err := s.buildGate.acquire(ctx); err != nil {
			s.metrics.recordAdmissionReject(err)
			resp.SealError = "seal not admitted: " + err.Error()
		} else {
			rel, epoch, err := s.sealStreamLocked(ctx, d)
			s.buildGate.release()
			switch {
			case err == nil:
				resp.Sealed, resp.Epoch, resp.ReleaseID = true, epoch, rel.ID
			case errors.Is(err, privtree.ErrEmptyEpoch):
				// Nothing pending: an explicit seal of an empty buffer is a
				// no-op, not an error — the window is simply unchanged.
			default:
				resp.SealError = err.Error()
			}
		}
	}
	resp.Pending = st.buf.Pending() + st.frozenN
	resp.LastEpoch = st.ring.LastIndex()
	resp.WindowEpsilon = st.ring.WindowEpsilon()
	st.mu.Unlock()
	resp.EpsilonSpent = d.Ledger.Spent()
	writeJSON(w, http.StatusOK, resp)
}
