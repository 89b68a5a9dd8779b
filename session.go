package privtree

import (
	"context"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"privtree/internal/dp"
	"privtree/internal/obs"
	"privtree/internal/store"
	"privtree/internal/testhooks"
)

// Ledger is a concurrent-safe privacy-budget accountant enforcing
// sequential composition; see Session for the release workflow built on
// it. NewLedger constructs one directly for callers that only need the
// accounting.
type Ledger = dp.Ledger

// BudgetError is the structured rejection a Ledger returns when a spend
// would exceed its total budget.
type BudgetError = dp.BudgetError

// BudgetDebit is one recorded spend (or refund, with negative Epsilon and
// Kind "refund") in a ledger's audit trail.
type BudgetDebit = dp.Debit

// NewLedger returns a budget ledger with the given positive, finite total.
func NewLedger(total float64) (*Ledger, error) { return dp.NewLedger(total) }

// Session is a ledger-backed release workflow over private data: the
// paper's sequential-composition argument (Lemma 2.1) as an object. Every
// Session.Release debits the ledger before the mechanism runs, so the sum
// of debits bounds the privacy loss of everything the session ever
// produced; a request whose (mechanism, params, ε, data) matches an
// earlier release is served from cache without a new debit (re-publishing
// released bytes is post-processing); and a mechanism failure refunds its
// debit, which is sound because nothing was released.
//
// A Session is safe for concurrent use: identical concurrent requests
// cannot double-spend — one build runs, the rest wait and take the cache
// hit.
//
// # Durability
//
// An in-memory ledger forgets every debit when the process dies, so a
// restart would let the whole budget be spent again — an ε violation.
// OpenSession (or WithStore) attaches a crash-safe store that write-ahead
// logs every ledger event and persists every release envelope, with the
// invariant that a debit is durable (fsynced) BEFORE the mechanism runs
// and a refund is durable BEFORE the build error returns. On reopen the
// session recovers its spent ε, full audit trail, and previously
// committed releases; a request matching a recovered release is served
// from the persisted envelope, bit-identical, with no new debit.
type Session struct {
	ledger *dp.Ledger
	store  *store.Store // nil for purely in-memory sessions

	// mu guards the cache maps; builds run OUTSIDE it so concurrent
	// releases with different parameters proceed in parallel. pending marks
	// fingerprints whose build is in flight (the channel closes when the
	// build finishes).
	mu      sync.Mutex
	cache   map[string]*Release
	pending map[string]chan struct{}

	// restored maps release fingerprints recovered from the store to their
	// decoded releases; entries move into cache as they are requested.
	// restoredList is the immutable recovery inventory, for Restored.
	restored     map[string]*Release
	restoredList []RestoredRelease

	// seals is the in-memory stream-epoch seal log, used only when no
	// store is attached; store-backed sessions read seals from the WAL.
	seals []SealRecord
}

// RestoredRelease is one release recovered from a session's store: the
// decoded artifact plus its original commit time. Release.Envelope
// returns the exact persisted bytes.
type RestoredRelease struct {
	Release *Release
	At      time.Time
}

// NewSession returns a session whose ledger holds the given total privacy
// budget. The budget must be positive and finite. The session is
// in-memory; attach persistence with WithStore, or use OpenSession.
func NewSession(budget float64) (*Session, error) {
	ledger, err := dp.NewLedger(budget)
	if err != nil {
		return nil, err
	}
	return &Session{
		ledger:  ledger,
		cache:   make(map[string]*Release),
		pending: make(map[string]chan struct{}),
	}, nil
}

// OpenSession opens (creating if needed) the store directory and returns
// a session with that persistence attached and any prior state — spent ε,
// audit trail, committed releases — recovered. The directory belongs to
// ONE logical dataset and budget: reusing it for different data would
// serve another dataset's releases from cache. Close the session to
// release the store.
func OpenSession(dir string, budget float64) (*Session, error) {
	st, err := OpenStore(dir)
	if err != nil {
		return nil, err
	}
	s, err := NewSession(budget)
	if err != nil {
		st.Close()
		return nil, err
	}
	if err := s.WithStore(st); err != nil {
		st.Close()
		return nil, err
	}
	return s, nil
}

// WithStore attaches a crash-safe store to a fresh session and recovers
// the store's state: the ledger's spent ε and audit trail are rebuilt
// from the event log, and every committed release is decoded from its
// persisted envelope (available via Restored, and served as cache hits).
// The session must be pristine — no spends, no releases — and can hold
// only one store.
func (s *Session) WithStore(st *Store) error {
	if st == nil || st.inner == nil {
		return fmt.Errorf("privtree: nil store")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		return fmt.Errorf("privtree: session already has a store")
	}
	if len(s.cache) > 0 || len(s.pending) > 0 || len(s.ledger.History()) > 0 {
		return fmt.Errorf("privtree: WithStore requires a fresh session (no spends or releases yet)")
	}

	// Decode every committed release first, so a corrupt artifact fails
	// the attach before any session state changes.
	commits := st.inner.Commits()
	restored := make(map[string]*Release, len(commits))
	list := make([]RestoredRelease, 0, len(commits))
	for _, c := range commits {
		blob, err := st.inner.LoadArtifact(c.SHA)
		if err != nil {
			return fmt.Errorf("privtree: recovering release %q: %w", c.Key, err)
		}
		rel, err := Decode(blob)
		if err != nil {
			return fmt.Errorf("privtree: recovering release %q: %w", c.Key, err)
		}
		// Serve the exact persisted bytes, not a re-marshal.
		rel.wire.Store(&wireEnvelope{blob: blob})
		restored[c.Key] = rel
		list = append(list, RestoredRelease{Release: rel, At: c.At})
	}

	s.ledger.Restore(ledgerHistory(st.inner.Events()))
	s.store = st.inner
	s.restored = restored
	s.restoredList = list
	return nil
}

// ledgerHistory converts recovered store events into the ledger's audit
// trail form, preserving the WAL's arithmetic exactly.
func ledgerHistory(events []store.Event) []dp.Debit {
	hist := make([]dp.Debit, len(events))
	for i, e := range events {
		d := dp.Debit{Note: "release " + e.Key, At: e.At, TraceID: e.Trace}
		switch e.Kind {
		case store.EventRefund:
			d.Kind, d.Epsilon = dp.DebitKindRefund, -e.Epsilon
		default:
			d.Kind, d.Epsilon = dp.DebitKindSpend, e.Epsilon
		}
		hist[i] = d
	}
	return hist
}

// ApplyReplicated applies a batch of WAL frames shipped from a primary's
// Store.WALFrames to this read replica's session: the frames are
// strictly validated and appended to the local WAL verbatim (preserving
// the primary's sequence numbers, so the replica's history stays a
// bit-identical prefix of the primary's), the batch's debits and refunds
// are replayed onto the ledger — replicated debits bypass the budget
// check, because the primary already enforced it and replay must
// reproduce its arithmetic exactly; replaying only the new records
// continues the running sum a full replay would compute — and each newly
// shipped commit is decoded from its (previously fetched, hash-verified)
// artifact into a recovered release served bit-identically from the
// persisted bytes.
//
// Artifacts referenced by commit records in the batch must be present in
// the store (Store.PutArtifact) before the batch is applied; a commit
// naming a missing artifact rejects the whole batch with nothing applied.
// Returns the newly recovered releases in commit order.
func (s *Session) ApplyReplicated(frames []byte) ([]RestoredRelease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store == nil {
		return nil, fmt.Errorf("privtree: ApplyReplicated requires a store-backed session")
	}
	applied, err := s.store.AppendReplicated(frames)
	if err != nil {
		return nil, err
	}
	if len(applied) == 0 {
		return nil, nil
	}
	// The records are durable now, so the ledger takes their ε before
	// anything below can fail: the store would not ship them again.
	var spends []store.Event
	for _, e := range applied {
		if e.Kind == store.EventDebit || e.Kind == store.EventRefund {
			spends = append(spends, e)
		}
	}
	s.ledger.Replay(ledgerHistory(spends))
	var out []RestoredRelease
	for _, e := range applied {
		if e.Kind != store.EventCommit {
			continue
		}
		if _, dup := s.restored[e.Key]; dup {
			continue
		}
		blob, lerr := s.store.LoadArtifact(e.SHA)
		if lerr != nil {
			return out, fmt.Errorf("privtree: replicated release %q: %w", e.Key, lerr)
		}
		rel, derr := Decode(blob)
		if derr != nil {
			return out, fmt.Errorf("privtree: replicated release %q: %w", e.Key, derr)
		}
		// Serve the exact replicated bytes, not a re-marshal.
		rel.wire.Store(&wireEnvelope{blob: blob})
		s.restored[e.Key] = rel
		rr := RestoredRelease{Release: rel, At: e.At}
		s.restoredList = append(s.restoredList, rr)
		out = append(out, rr)
	}
	return out, nil
}

// Restored returns the releases recovered from the session's store at
// attach time, in their original commit order. Empty for in-memory
// sessions.
func (s *Session) Restored() []RestoredRelease {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RestoredRelease, len(s.restoredList))
	copy(out, s.restoredList)
	return out
}

// Close releases the session's store (if any). Every acknowledged debit,
// refund, and release is already durable, so Close never loses state;
// a session without a store has nothing to close.
func (s *Session) Close() error {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		return nil
	}
	return st.Close()
}

// Ledger exposes the session's budget accountant (totals, remaining
// budget, and the audit trail).
func (s *Session) Ledger() *Ledger { return s.ledger }

// Total returns the session's configured total budget.
func (s *Session) Total() float64 { return s.ledger.Total() }

// Spent returns the budget consumed so far.
func (s *Session) Spent() float64 { return s.ledger.Spent() }

// Remaining returns the unspent budget (never negative).
func (s *Session) Remaining() float64 { return s.ledger.Remaining() }

// History returns the session's audit trail: one entry per debit, in spend
// order, with refunds recorded as explicit "refund" entries carrying
// negative ε. For sessions recovered from a store the trail includes
// every event of prior processes.
func (s *Session) History() []BudgetDebit { return s.ledger.History() }

// AuditEntry is one explainable row of a session's ε audit plane: a
// ledger debit, a refund, or a release commit, with the WAL sequence
// number that made it durable and the request trace that caused it.
// Summing Epsilon over the entries (with the ledger's clamp-at-zero
// refund rule) reproduces the session's spent ε exactly.
type AuditEntry struct {
	// Seq is the WAL sequence number (0 for in-memory sessions, which
	// have no WAL).
	Seq uint64
	// Kind is "debit", "refund", "commit", "epoch" (a writer-epoch grant
	// from a replication promotion; carries no ε), or "seal" (a stream
	// epoch sealed into the released window; carries no ε — the epoch's
	// spend is its own debit entry).
	Kind string
	// Epsilon is the budget moved: positive for debits, negative for
	// refunds, zero for commits.
	Epsilon float64
	// Key is the release fingerprint the entry belongs to.
	Key string
	// TraceID names the request trace that produced the entry ("" for
	// untraced work).
	TraceID string
	// SHA is the hex content address of the committed envelope (commits
	// only).
	SHA string
	// At is the wall-clock time of the event.
	At time.Time
}

// Audit returns the session's full audit plane in WAL order: every
// debit, refund, and release commit, each with its durable sequence
// number and originating trace ID. For store-backed sessions the rows
// come from the recovered-plus-appended WAL state, so they survive
// restarts; in-memory sessions fall back to the ledger's history with
// Seq 0.
func (s *Session) Audit() []AuditEntry {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		hist := s.ledger.History()
		out := make([]AuditEntry, len(hist))
		for i, d := range hist {
			out[i] = AuditEntry{
				Kind:    d.Kind,
				Epsilon: d.Epsilon,
				Key:     strings.TrimPrefix(d.Note, "release "),
				TraceID: d.TraceID,
				At:      d.At,
			}
		}
		return out
	}
	events, commits, epochs, seals := st.Events(), st.Commits(), st.Epochs(), st.Seals()
	out := make([]AuditEntry, 0, len(events)+len(commits)+len(epochs)+len(seals))
	for _, e := range events {
		eps := e.Epsilon
		if e.Kind == store.EventRefund {
			eps = -eps
		}
		out = append(out, AuditEntry{
			Seq: e.Seq, Kind: e.Kind.String(), Epsilon: eps,
			Key: e.Key, TraceID: e.Trace, At: e.At,
		})
	}
	for _, c := range commits {
		out = append(out, AuditEntry{
			Seq: c.Seq, Kind: c.Kind.String(), Key: c.Key,
			TraceID: c.Trace, SHA: hex.EncodeToString(c.SHA[:]), At: c.At,
		})
	}
	for _, e := range epochs {
		out = append(out, AuditEntry{
			Seq: e.Seq, Kind: e.Kind.String(), Key: e.Key,
			TraceID: e.Trace, At: e.At,
		})
	}
	for _, e := range seals {
		out = append(out, AuditEntry{
			Seq: e.Seq, Kind: e.Kind.String(), Key: e.Key,
			TraceID: e.Trace, At: e.At,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// SealRecord is one stream-epoch seal in a session's history: the binding
// of an epoch number to the release fingerprint that published it and the
// last ingest batch it covers. Seals carry no ε of their own — each
// epoch's spend is the ordinary debit of its release — but they are the
// durable record from which a restarted or replicated node re-derives the
// served sliding window.
type SealRecord struct {
	// Seq is the WAL sequence number (0 for in-memory sessions).
	Seq uint64
	// Epoch is the 1-based stream epoch the seal freezes.
	Epoch uint64
	// BatchSeq is the highest ingest batch sequence number included in
	// the epoch (0 when the producer does not number batches).
	BatchSeq uint64
	// Fingerprint is the release fingerprint of the epoch's release.
	Fingerprint string
	// At is the wall-clock seal time.
	At time.Time
}

// AppendSeal records that stream epoch number epoch was sealed and
// released as the release with the given fingerprint, covering ingest
// batches up to batchSeq. Epochs must be appended in order, strictly
// increasing from 1. With a store attached the seal is durable (fsynced
// into the WAL) before AppendSeal returns; the caller must append the
// seal only AFTER the epoch's release commit is durable, so that a WAL
// prefix ending before the seal record never names a release it does not
// contain.
func (s *Session) AppendSeal(epoch, batchSeq uint64, fingerprint, trace string) error {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st != nil {
		return st.AppendSeal(epoch, batchSeq, fingerprint, trace)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var last uint64
	if n := len(s.seals); n > 0 {
		last = s.seals[n-1].Epoch
	}
	if epoch == 0 || epoch <= last {
		return fmt.Errorf("privtree: seal epoch %d not after last sealed epoch %d", epoch, last)
	}
	s.seals = append(s.seals, SealRecord{
		Epoch: epoch, BatchSeq: batchSeq, Fingerprint: fingerprint, At: time.Now(),
	})
	return nil
}

// Seals returns the session's stream-epoch seal log in epoch order. For
// store-backed sessions the records come from the recovered-plus-appended
// WAL state — including seals applied through ApplyReplicated — so the
// log survives restarts and is identical on a caught-up replica.
func (s *Session) Seals() []SealRecord {
	s.mu.Lock()
	st := s.store
	s.mu.Unlock()
	if st == nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]SealRecord, len(s.seals))
		copy(out, s.seals)
		return out
	}
	events := st.Seals()
	out := make([]SealRecord, len(events))
	for i, e := range events {
		out[i] = SealRecord{
			Seq: e.Seq, Epoch: e.Epoch, BatchSeq: e.BatchSeq,
			Fingerprint: e.Key, At: e.At,
		}
	}
	return out
}

// Release runs mechanism m on data under budget eps against the session
// ledger. The ledger is debited before the build; over-budget requests are
// rejected with a *BudgetError and the mechanism never runs. The boolean
// reports a cache hit: a request identical to an earlier release (same
// mechanism, parameters, ε, and data) returns the cached Release with no
// new debit — including releases recovered from the session's store,
// which are served from their persisted envelopes. On build failure the
// debit is refunded.
//
// With a store attached, the debit is durable before the mechanism runs
// and the refund is durable before the error returns; see Session's
// Durability section for why that ordering is the privacy guarantee.
func (s *Session) Release(m *Mechanism, data *Data, eps float64) (*Release, bool, error) {
	return s.ReleaseContext(context.Background(), m, data, eps)
}

// ReleaseContext is Release with cooperative cancellation: when ctx is
// cancelled or its deadline passes, the request is abandoned and the
// returned error wraps ctx.Err(). Cancellation preserves every budget
// invariant:
//
//   - before the debit, cancellation is free — the ledger never saw the
//     request;
//   - after the debit, the build is abandoned and the debit refunded;
//     with a store attached the refund is durable BEFORE the error
//     returns (the same ordering as a failed build), so a crash right
//     after a cancelled request can only over-count spent ε, never
//     under-count it. Nothing the cancelled build computed is released,
//     cached, or persisted, which is what makes the refund sound.
//
// A caller that times out and retries the identical request therefore
// cannot be double-charged: either the first request was cancelled and
// refunded (the retry pays the only debit), or it completed server-side
// and the retry is a cache hit with no new debit.
func (s *Session) ReleaseContext(ctx context.Context, m *Mechanism, data *Data, eps float64) (*Release, bool, error) {
	if m == nil {
		return nil, false, fmt.Errorf("privtree: nil mechanism")
	}
	// Static failures (wrong data kind, bad ε) are rejected before any
	// ledger traffic, so the audit trail records only genuine spends.
	if err := m.precheck(data, eps); err != nil {
		return nil, false, err
	}
	fp := releaseFingerprint(m.spec.name, eps, m.params)
	key := fmt.Sprintf("data=%d %s", data.id, fp)
	note := "release " + fp
	// The request trace (if any) rides ctx from the HTTP handler; every
	// obs call below is a no-op without one, so direct library use pays
	// nothing. The trace ID is recorded on each ledger debit and persisted
	// in each WAL record, which is what makes the audit trail explain
	// every unit of spent ε end to end.
	tr := obs.FromContext(ctx)
	var done chan struct{}
	for {
		// A request that is already dead must not debit the ledger: the
		// caller has gone away, so nothing would ever be released.
		if err := ctx.Err(); err != nil {
			return nil, false, fmt.Errorf("privtree: release %s abandoned before debit: %w", fp, err)
		}
		s.mu.Lock()
		if rel, ok := s.cache[key]; ok {
			s.mu.Unlock()
			return rel, true, nil
		}
		if rel, ok := s.restored[fp]; ok {
			// A prior process already paid for this release: its debit was
			// recovered with the ledger and its envelope persisted, so
			// serving it is post-processing, not a new spend.
			delete(s.restored, fp)
			s.cache[key] = rel
			s.mu.Unlock()
			return rel, true, nil
		}
		if ch, ok := s.pending[key]; ok {
			// An identical build is in flight: wait for it and re-check.
			// (If it fails, the loop claims the key and tries afresh.)
			s.mu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				// Waiting debited nothing; walking away is free.
				return nil, false, fmt.Errorf("privtree: release %s abandoned while waiting for an identical build: %w", fp, ctx.Err())
			}
		}
		// Claim the key: debit inside the lock so the exhaustion check and
		// the claim are one atomic step.
		debitSpan := tr.Begin("debit")
		if err := s.ledger.SpendTraced(eps, note, tr.ID()); err != nil {
			s.mu.Unlock()
			return nil, false, err
		}
		debitSpan.End()
		done = make(chan struct{})
		s.pending[key] = done
		s.mu.Unlock()
		break
	}

	if s.store != nil {
		// THE durability invariant: the debit reaches stable storage before
		// the mechanism is allowed to run, so no noise can ever be released
		// whose debit a crash forgets. The fsync runs OUTSIDE s.mu — like
		// the build itself — so concurrent cache hits and unrelated
		// releases never stall behind a disk sync; the pending claim above
		// already guarantees only one debit per fingerprint.
		walSpan := tr.Begin("wal_debit")
		err := s.store.AppendDebitTraced(eps, fp, tr.ID())
		walSpan.End()
		if err != nil {
			// Nothing ran and the record did not land (or its durability is
			// unknown, in which case recovery can only over-count): the
			// in-memory refund is sound and the request fails.
			s.ledger.RefundTraced(eps, note, tr.ID())
			s.mu.Lock()
			delete(s.pending, key)
			s.mu.Unlock()
			close(done)
			return nil, false, fmt.Errorf("privtree: persisting debit: %w", err)
		}
	}

	buildSpan := tr.Begin("build")
	rel, err, cancelled := s.runBuild(ctx, m, data, eps, fp)
	buildSpan.End()
	if cancelled {
		// Cancelled mid-build: the debit has landed (durably, with a
		// store), so it must be refunded — durably BEFORE the error
		// returns, exactly like a failed build. The abandoned build's
		// result, if it ever materializes, is discarded unseen: nothing
		// is released, so the refund is sound.
		refunded := true
		if s.store != nil {
			if rerr := s.store.AppendRefundTraced(eps, fp, tr.ID()); rerr != nil {
				refunded = false
				err = fmt.Errorf("%w (and the refund could not be persisted, budget remains spent: %v)", err, rerr)
			}
		}
		if refunded {
			s.ledger.RefundTraced(eps, note, tr.ID())
		}
		s.mu.Lock()
		delete(s.pending, key)
		s.mu.Unlock()
		close(done)
		return nil, false, err
	}
	var persistErr error
	if err != nil {
		// Refund before waking waiters, so a retrying waiter sees the
		// credited ledger. Sound: the failed mechanism released nothing.
		// With a store, the refund must be durable BEFORE the error
		// returns; if it cannot be, the budget stays spent in memory too —
		// over-counting is the safe direction.
		refund := true
		if s.store != nil {
			if rerr := s.store.AppendRefundTraced(eps, fp, tr.ID()); rerr != nil {
				refund = false
				err = fmt.Errorf("%w (and the refund could not be persisted, budget remains spent: %v)", err, rerr)
			}
		}
		if refund {
			s.ledger.RefundTraced(eps, note, tr.ID())
		}
	} else if s.store != nil {
		envSpan := tr.Begin("envelope")
		blob, eerr := rel.Envelope()
		envSpan.End()
		if eerr == nil {
			commitSpan := tr.Begin("wal_commit")
			cerr := s.store.CommitReleaseTraced(fp, blob, tr.ID())
			commitSpan.End()
			if cerr != nil {
				// The debit is durable and the release was built; failing to
				// persist the envelope only means a future restart rebuilds
				// (and re-debits) it. Surface the degraded durability but
				// hand the caller the release it paid for.
				persistErr = fmt.Errorf("privtree: release built and budget spent, but envelope not persisted (a restart would re-debit): %w", cerr)
			}
		}
		// Baseline releases have no wire format: their debit is durable,
		// the artifact itself is memory-only by design.
	}
	s.mu.Lock()
	delete(s.pending, key)
	if err == nil {
		s.cache[key] = rel
	}
	s.mu.Unlock()
	close(done)
	if err != nil {
		return nil, false, err
	}
	if persistErr != nil {
		return rel, false, persistErr
	}
	return rel, false, nil
}

// buildResult carries a completed (or abandoned) build's outcome.
type buildResult struct {
	rel *Release
	err error
}

// runBuild runs the mechanism, abandoning it when ctx is cancelled first.
// The boolean reports abandonment: when true, the build may still be
// running in a goroutine, but its eventual result is delivered into a
// buffered channel nobody reads and is garbage — never cached, committed,
// or returned — so the caller's refund cannot race a release.
//
// Uncancellable contexts (Background) run the build inline: the common
// path pays no goroutine or channel overhead.
func (s *Session) runBuild(ctx context.Context, m *Mechanism, data *Data, eps float64, fp string) (*Release, error, bool) {
	run := func() (*Release, error) {
		if h := testhooks.BuildStart.Load(); h != nil {
			(*h)(fp)
		}
		return m.Run(data, eps)
	}
	if ctx.Done() == nil {
		rel, err := run()
		return rel, err, false
	}
	ch := make(chan buildResult, 1)
	go func() {
		rel, err := run()
		ch <- buildResult{rel, err}
	}()
	select {
	case res := <-ch:
		return res.rel, res.err, false
	case <-ctx.Done():
		return nil, fmt.Errorf("privtree: release %s cancelled mid-build (debit refunded): %w", fp, ctx.Err()), true
	}
}

// Releases returns every release the session has purchased so far, in
// unspecified order. Recovered releases appear once requested (or via
// Restored).
func (s *Session) Releases() []*Release {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Release, 0, len(s.cache))
	for _, r := range s.cache {
		out = append(out, r)
	}
	return out
}
