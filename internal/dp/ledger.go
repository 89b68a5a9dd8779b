package dp

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// BudgetError is the structured rejection returned when a spend would
// exceed a ledger's total budget. Servers surface its fields verbatim so
// clients can see exactly how much budget remains.
type BudgetError struct {
	// Requested is the ε the caller tried to spend.
	Requested float64
	// Remaining is the budget still available at rejection time.
	Remaining float64
	// Total is the ledger's configured total budget.
	Total float64
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("dp: privacy budget exhausted: requested ε=%g, remaining ε=%g of total ε=%g",
		e.Requested, e.Remaining, e.Total)
}

// Audit-trail entry kinds: every Debit is explicitly a spend or a
// refund, so a reader of History never has to infer the event from the
// sign of Epsilon (refunds additionally keep their negative sign, which
// preserves the "history sums to spent" arithmetic).
const (
	DebitKindSpend  = "debit"
	DebitKindRefund = "refund"
)

// Debit is one recorded spend (or refund) against a Ledger.
type Debit struct {
	// Kind is DebitKindSpend or DebitKindRefund.
	Kind string
	// Epsilon is the budget consumed (negative for refunds).
	Epsilon float64
	// Note identifies the release the spend paid for (e.g. a release id).
	Note string
	// At is the wall-clock spend time.
	At time.Time
	// TraceID links the debit to the request trace that caused it ("" when
	// the spend happened outside a traced request). It makes the audit
	// trail explainable end to end: every unit of spent ε names the
	// request that spent it.
	TraceID string
}

// Ledger is a concurrent-safe privacy-budget accountant enforcing
// sequential composition (Lemma 2.1 of the paper, after Dwork et al.): a
// pipeline whose parts consume ε₁,…,ε_k against one dataset satisfies
// (Σεᵢ)-differential privacy, so a dataset configured with total budget ε
// may never have its debits sum beyond ε. Every release (BuildSpatial,
// BuildSequenceModel, …) must debit the dataset's ledger before the
// mechanism runs; once the ledger is exhausted, further releases are
// rejected with a *BudgetError.
//
// Unlike Budget (a single-goroutine construction helper), Ledger is safe
// for concurrent use and keeps an audit trail of its debits.
type Ledger struct {
	mu     sync.Mutex
	total  float64
	spent  float64
	debits []Debit
}

// NewLedger returns a ledger with the given total budget. The total must be
// positive and finite.
func NewLedger(total float64) (*Ledger, error) {
	if !(total > 0) || math.IsInf(total, 0) {
		return nil, fmt.Errorf("dp: ledger total budget must be positive and finite, got %v", total)
	}
	return &Ledger{total: total}, nil
}

// Total returns the configured total budget.
func (l *Ledger) Total() float64 { return l.total }

// Spent returns the budget consumed so far.
func (l *Ledger) Spent() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spent
}

// Remaining returns the unspent budget (never negative).
func (l *Ledger) Remaining() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.remainingLocked()
}

func (l *Ledger) remainingLocked() float64 {
	r := l.total - l.spent
	if r < 0 {
		return 0
	}
	return r
}

// Spend atomically debits eps from the ledger, recording note in the audit
// trail. It returns a *BudgetError if the debit would push total spend past
// the configured budget (within a 1e-9 relative tolerance for float
// round-off in fractional splits), and a plain error for non-positive or
// non-finite eps.
func (l *Ledger) Spend(eps float64, note string) error {
	return l.SpendTraced(eps, note, "")
}

// SpendTraced is Spend with the request trace ID recorded in the audit
// trail alongside the note.
func (l *Ledger) SpendTraced(eps float64, note, traceID string) error {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return fmt.Errorf("dp: cannot spend non-positive budget %v", eps)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	const tol = 1e-9
	if l.spent+eps > l.total*(1+tol) {
		return &BudgetError{Requested: eps, Remaining: l.remainingLocked(), Total: l.total}
	}
	l.spent += eps
	l.debits = append(l.debits, Debit{Kind: DebitKindSpend, Epsilon: eps, Note: note, At: time.Now(), TraceID: traceID})
	return nil
}

// Refund returns eps to the ledger. It is only sound when the release the
// matching Spend paid for never happened (e.g. the mechanism failed before
// drawing any noise): refunding budget that bought a published artifact
// would break the sequential-composition guarantee. The refund is recorded
// in the audit trail as a negative debit.
func (l *Ledger) Refund(eps float64, note string) {
	l.RefundTraced(eps, note, "")
}

// RefundTraced is Refund with the request trace ID recorded in the audit
// trail alongside the note.
func (l *Ledger) RefundTraced(eps float64, note, traceID string) {
	if !(eps > 0) {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spent -= eps
	if l.spent < 0 {
		l.spent = 0
	}
	l.debits = append(l.debits, Debit{Kind: DebitKindRefund, Epsilon: -eps, Note: note, At: time.Now(), TraceID: traceID})
}

// Restore replaces the ledger's state with a recovered audit trail,
// replaying each entry's arithmetic (including the clamp-at-zero refund
// rule) to rebuild spent ε. It exists for crash recovery: a session
// reopening its write-ahead log hands the replayed trail here, entries
// keeping their originally recorded timestamps. The recovered spend may
// legitimately exceed what a live ledger would have accepted (orphan
// debits whose releases were never acknowledged) — that direction only
// wastes budget, never leaks it — so Restore does not re-check the
// total.
func (l *Ledger) Restore(history []Debit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spent, l.debits = 0, nil
	l.replayLocked(history)
}

// Replay appends recovered entries to the audit trail, continuing
// Restore's arithmetic from the current spent ε: Restore(a) followed by
// Replay(b) leaves the ledger exactly as Restore(a+b) would. A read
// replica applies each shipped batch of WAL records this way instead of
// replaying its whole history again.
func (l *Ledger) Replay(entries []Debit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.replayLocked(entries)
}

func (l *Ledger) replayLocked(entries []Debit) {
	for _, d := range entries {
		l.spent += d.Epsilon
		if l.spent < 0 {
			l.spent = 0
		}
	}
	l.debits = append(l.debits, entries...)
}

// History returns a copy of the ledger's audit trail in spend order.
func (l *Ledger) History() []Debit {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Debit, len(l.debits))
	copy(out, l.debits)
	return out
}
