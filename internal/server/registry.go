package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"privtree"
	"privtree/internal/geom"
)

// Kind distinguishes the release pipelines a dataset can feed. It is the
// library's ReleaseKind: the server is a thin tenancy layer over the
// public Mechanism/Release/Session API.
type Kind = privtree.ReleaseKind

const (
	KindSpatial  = privtree.KindSpatial
	KindSequence = privtree.KindSequence
)

// Dataset is one registered private dataset: the raw data (wrapped in a
// privtree.Data, never exposed) and its privtree.Session, which owns the
// privacy-budget ledger and the cache of releases already paid for.
//
// The zero-trust boundary runs through this struct: handlers may hand out
// anything derived from `releases` (each entry was bought from the
// session's ledger) but never the raw points or sequences.
type Dataset struct {
	Name      string
	Kind      Kind
	CreatedAt time.Time

	// data wraps the raw payload; session owns the ε ledger and dedup
	// cache (debit-before-build, refund-on-failure, cache hits free).
	data    *privtree.Data
	session *privtree.Session

	// store is the session's crash-safe persistence root (nil when the
	// server runs without a data dir), kept for the store-bytes gauge.
	store *privtree.Store

	// Ledger is the session's ε accountant, exposed for budget reporting.
	Ledger *privtree.Ledger

	// stream is the continual-release state of a streaming dataset (nil
	// for ordinary frozen datasets): the pending ingest buffer, the
	// sliding window of sealed epochs, and the durable ingest journal.
	// See stream.go.
	stream *datasetStream

	// mu guards the release-ID bookkeeping. Builds and ledger traffic run
	// in the session, outside this lock, so queries and metadata reads
	// never stall behind a slow mechanism.
	mu       sync.RWMutex
	releases map[string]*Release
	byKey    map[string]string
	nextID   int

	// applying is 1 + the store's last WAL sequence while a replicated
	// batch is being applied, 0 otherwise. WALSeq reports no further than
	// it, so a replica's sequence becomes visible only once the releases
	// it commits are registered and served.
	applying atomic.Uint64

	// regMu guards the size and SHA-256 of the dataset's dataset.json,
	// which the replication listing advertises (see registrationSum).
	regMu     sync.Mutex
	regBytes  int64
	regSHA256 string
}

// IsStream reports whether the dataset is a streaming dataset (registered
// with a stream spec, fed by POST .../ingest, served via the `latest`
// window alias).
func (d *Dataset) IsStream() bool { return d.stream != nil }

// N returns the dataset cardinality (points or sequences).
func (d *Dataset) N() int { return d.data.N() }

// Dims returns the spatial dimensionality (0 for sequence datasets).
func (d *Dataset) Dims() int { return d.data.Dims() }

// alphabet returns the sequence alphabet size (0 for spatial datasets).
func (d *Dataset) alphabet() int { return d.data.Alphabet() }

// AttachStore opens (creating if needed) the crash-safe store at dir,
// attaches it to the dataset's session — recovering spent ε, the audit
// trail, and every committed release — and registers the recovered
// releases under fresh sequential IDs in their original commit order, so
// a restarted server serves them under the same r1, r2, … names. Must be
// called before the dataset receives traffic.
func (d *Dataset) AttachStore(dir string) error {
	st, err := privtree.OpenStore(dir)
	if err != nil {
		return err
	}
	if err := d.session.WithStore(st); err != nil {
		st.Close()
		return err
	}
	d.store = st
	for _, rr := range d.session.Restored() {
		if err := d.restoreRelease(rr.Release, rr.At); err != nil {
			return fmt.Errorf("server: dataset %q: restoring release: %w", d.Name, err)
		}
	}
	if d.stream != nil {
		// The WAL's seal records plus the ingest journal reconstruct the
		// exact streaming state: served window, next epoch, last applied
		// batch, and the unsealed pending buffer.
		if err := d.stream.recover(d, filepath.Join(dir, "..", "ingest.log")); err != nil {
			return fmt.Errorf("server: dataset %q: recovering stream: %w", d.Name, err)
		}
	}
	return nil
}

// restoreRelease registers one recovered release: the persisted envelope
// bytes are served verbatim (bit-identical across the restart), metadata
// is rebuilt from the release's own provenance, and the ID continues the
// r<N> sequence in commit order.
func (d *Dataset) restoreRelease(rel *privtree.Release, at time.Time) error {
	blob, err := rel.Envelope()
	if err != nil {
		return err
	}
	p := rel.Params()
	out := &Release{
		Kind: rel.Kind(),
		Params: ReleaseParams{
			Epsilon:            rel.Epsilon(),
			Seed:               p.Seed,
			Fanout:             p.Fanout,
			Theta:              p.Theta,
			TreeBudgetFraction: p.TreeBudgetFraction,
			MaxDepth:           p.MaxDepth,
			AffectedLeaves:     p.AffectedLeaves,
			MaxLength:          p.MaxLength,
		},
		CreatedAt: at,
		artifact:  blob,
	}
	if t, ok := rel.Spatial(); ok {
		out.tree = t
		out.Nodes, out.Height = t.Nodes(), t.Height()
	}
	if m, ok := rel.Sequence(); ok {
		out.model = m
		out.Nodes = m.Nodes()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.byKey[rel.Fingerprint()]; dup {
		return fmt.Errorf("duplicate fingerprint %q in store", rel.Fingerprint())
	}
	d.nextID++
	out.ID = fmt.Sprintf("r%d", d.nextID)
	d.releases[out.ID] = out
	d.byKey[rel.Fingerprint()] = out.ID
	return nil
}

// StoreBytes returns the dataset's on-disk store footprint (0 without
// persistence); /metrics exports it per dataset.
func (d *Dataset) StoreBytes() int64 {
	if d.store == nil {
		return 0
	}
	return d.store.SizeBytes()
}

// WALSeq returns the highest WAL sequence number the dataset's store has
// issued (0 without persistence); /metrics exports it per dataset, and
// audit entries reference these numbers.
func (d *Dataset) WALSeq() uint64 {
	if d.store == nil {
		return 0
	}
	// Store first, then the floor: a sequence read after a replicated
	// append started is capped unless its releases are registered.
	seq := d.store.LastSeq()
	if floor := d.applying.Load(); floor != 0 && floor-1 < seq {
		return floor - 1
	}
	return seq
}

// Audit returns the dataset's ε audit plane: every ledger debit, refund,
// and release commit with its WAL sequence number and originating trace
// ID, in WAL order. For store-backed datasets the rows survive restarts.
func (d *Dataset) Audit() []privtree.AuditEntry { return d.session.Audit() }

// Close releases the dataset's store and ingest journal (if any).
// Idempotent; all acknowledged state is already durable.
func (d *Dataset) Close() error {
	if d.stream != nil {
		d.stream.close()
	}
	return d.session.Close()
}

// ReleaseParams are the client-settable knobs of one release: ε plus the
// library's Params union. Together with the dataset they fully determine
// the released artifact (builds are pure functions of data, params and
// seed), which is what makes the release cache sound: a repeated request
// is the *same* release, not a new one. Knobs that do not apply to the
// dataset's mechanism are rejected — a silently ignored knob would spend
// irreversible ε on the wrong artifact.
type ReleaseParams struct {
	// Epsilon is the privacy budget this release debits. Required.
	Epsilon float64 `json:"epsilon"`
	// Seed fixes the mechanism's randomness; 0 picks the library default.
	Seed uint64 `json:"seed"`

	// Spatial knobs (mirror privtree.SpatialOptions).
	Fanout             int     `json:"fanout,omitempty"`
	Theta              float64 `json:"theta,omitempty"`
	TreeBudgetFraction float64 `json:"tree_budget_fraction,omitempty"`
	MaxDepth           int     `json:"max_depth,omitempty"`
	AffectedLeaves     int     `json:"affected_leaves,omitempty"`

	// Sequence knobs (mirror privtree.SequenceOptions).
	MaxLength int `json:"max_length,omitempty"`
}

// mechanism instantiates the registry mechanism this dataset's releases
// run: the full Params union is handed to the library, which validates the
// applicable knobs and rejects non-zero inapplicable ones.
func (p ReleaseParams) mechanism(kind Kind, workers int) (*privtree.Mechanism, error) {
	return privtree.NewMechanism(string(kind), privtree.Params{
		Seed:               p.Seed,
		Fanout:             p.Fanout,
		Theta:              p.Theta,
		TreeBudgetFraction: p.TreeBudgetFraction,
		MaxDepth:           p.MaxDepth,
		AffectedLeaves:     p.AffectedLeaves,
		MaxLength:          p.MaxLength,
		Workers:            workers,
	})
}

// Release is one purchased differentially private artifact. The payloads
// are immutable after construction, so queries read them without locking.
type Release struct {
	ID        string        `json:"release_id"`
	Kind      Kind          `json:"kind"`
	Params    ReleaseParams `json:"params"`
	CreatedAt time.Time     `json:"created_at"`
	Nodes     int           `json:"nodes"`
	Height    int           `json:"height,omitempty"`

	tree     *privtree.SpatialTree
	model    *privtree.SequenceModel
	artifact json.RawMessage
}

// Artifact returns the release in the library's versioned wire envelope
// (the JSON shape privtree.Decode loads). The bytes are marshaled once at
// build time — releases are immutable — so repeated fetches cost a slice
// copy, not a tree walk.
func (r *Release) Artifact() json.RawMessage { return r.artifact }

// Release returns the cached release for p, or builds one through the
// dataset's session: the session debits its ledger before the mechanism
// runs, serves requests with parameters already purchased from cache
// without a new debit (re-publishing released bytes is post-processing),
// refunds the debit when the mechanism fails, and guarantees concurrent
// identical requests debit exactly once. The boolean reports a cache hit.
//
// workers bounds the build parallelism (0 = GOMAXPROCS).
func (d *Dataset) Release(p ReleaseParams, workers int) (*Release, bool, error) {
	return d.ReleaseContext(context.Background(), p, workers)
}

// ReleaseContext is Release under a request context: when ctx is
// cancelled or its deadline passes mid-build, the build is abandoned and
// its debit refunded — durably, when the dataset has a store — before the
// error returns (see privtree.Session.ReleaseContext). A client that
// times out and retries the identical request pays at most one debit:
// either the cancelled attempt was refunded, or it completed server-side
// and the retry is a cache hit.
func (d *Dataset) ReleaseContext(ctx context.Context, p ReleaseParams, workers int) (*Release, bool, error) {
	rel, _, cached, err := d.releaseData(ctx, d.data, p, workers)
	return rel, cached, err
}

// releaseData runs one release of data — the dataset's frozen Data, or
// one sealed stream epoch — through the session and registers it in the
// serving maps. It additionally returns the release fingerprint, which
// the streaming plane writes into the WAL seal record so a recovered
// node can resolve the served window back to its member releases.
func (d *Dataset) releaseData(ctx context.Context, data *privtree.Data, p ReleaseParams, workers int) (*Release, string, bool, error) {
	m, err := p.mechanism(d.Kind, workers)
	if err != nil {
		return nil, "", false, err
	}
	rel, cached, err := d.session.ReleaseContext(ctx, m, data, p.Epsilon)
	if err != nil {
		return nil, "", false, err
	}
	key := rel.Fingerprint()

	// The session's verdict is authoritative for the cached flag: under a
	// concurrent identical request, the waiter that took the session cache
	// hit may register the ID first, but the builder still debited.
	d.mu.RLock()
	if id, known := d.byKey[key]; known {
		out := d.releases[id]
		d.mu.RUnlock()
		return out, key, cached, nil
	}
	d.mu.RUnlock()

	// First sighting of this fingerprint: take the release's cached
	// envelope — the SAME bytes the session persisted (if a store is
	// attached), so the artifact endpoint, the store, and a post-restart
	// recovery all serve bit-identical JSON.
	blob, err := rel.Envelope()
	if err != nil {
		return nil, "", false, fmt.Errorf("%w: marshaling release artifact: %v", errInternal, err)
	}
	out := &Release{
		Kind:      d.Kind,
		Params:    p,
		CreatedAt: time.Now(),
		artifact:  blob,
	}
	if t, ok := rel.Spatial(); ok {
		out.tree = t
		out.Nodes, out.Height = t.Nodes(), t.Height()
	}
	if mdl, ok := rel.Sequence(); ok {
		out.model = mdl
		out.Nodes = mdl.Nodes()
	}

	d.mu.Lock()
	if id, raced := d.byKey[key]; raced {
		// A concurrent identical request registered it first.
		prev := d.releases[id]
		d.mu.Unlock()
		return prev, key, cached, nil
	}
	d.nextID++
	out.ID = fmt.Sprintf("r%d", d.nextID)
	d.releases[out.ID] = out
	d.byKey[key] = out.ID
	d.mu.Unlock()
	return out, key, cached, nil
}

// releaseByFingerprint resolves a release fingerprint (the key a WAL seal
// record carries) to its registered release.
func (d *Dataset) releaseByFingerprint(fp string) (*Release, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byKey[fp]
	if !ok {
		return nil, false
	}
	r, ok := d.releases[id]
	return r, ok
}

// GetRelease returns a release by id.
func (d *Dataset) GetRelease(id string) (*Release, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.releases[id]
	return r, ok
}

// NumReleases returns the release count without copying the cache (for
// list/metrics views, which are polled).
func (d *Dataset) NumReleases() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.releases)
}

// Releases returns the dataset's releases sorted by id creation order.
func (d *Dataset) Releases() []*Release {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Release, 0, len(d.releases))
	for _, r := range d.releases {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].CreatedAt.Before(out[j].CreatedAt) })
	return out
}

// nameRE constrains dataset names to something path- and log-safe.
var nameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9_.-]{0,63}$`)

// ValidateName reports whether name is acceptable as a dataset name. It is
// cheap; callers ingesting large payloads should run it before touching
// the data.
func ValidateName(name string) error {
	if !nameRE.MatchString(name) {
		return fmt.Errorf("server: invalid dataset name %q (want %s)", name, nameRE)
	}
	return nil
}

// Registry is the concurrent-safe set of datasets a server owns.
type Registry struct {
	mu       sync.RWMutex
	datasets map[string]*Dataset
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{datasets: make(map[string]*Dataset)}
}

// newDataset initializes the bookkeeping shared by both kinds: a session
// holding the total budget, wrapped around the validated data.
func newDataset(name string, kind Kind, data *privtree.Data, epsilon float64) (*Dataset, error) {
	session, err := privtree.NewSession(epsilon)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Name:      name,
		Kind:      kind,
		CreatedAt: time.Now(),
		data:      data,
		session:   session,
		Ledger:    session.Ledger(),
		releases:  make(map[string]*Release),
		byKey:     make(map[string]string),
	}, nil
}

// NewSpatialDataset builds (without registering) a spatial dataset under
// a total privacy budget. The data is validated eagerly (domain shape,
// points inside the domain) so that a later release can only fail on
// release parameters. Attach persistence with AttachStore, then register
// with Insert.
func (r *Registry) NewSpatialDataset(name string, domain geom.Rect, points []privtree.Point, epsilon float64) (*Dataset, error) {
	data, err := privtree.NewSpatialData(domain, points)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return newDataset(name, KindSpatial, data, epsilon)
}

// NewSequenceDataset builds (without registering) a sequence dataset
// under a total privacy budget.
func (r *Registry) NewSequenceDataset(name string, alphabet int, seqs []privtree.Sequence, epsilon float64) (*Dataset, error) {
	data, err := privtree.NewSequenceData(alphabet, seqs)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return newDataset(name, KindSequence, data, epsilon)
}

// AddSpatial builds and registers a spatial dataset (in-memory only; the
// server's registration path splits build from Insert so it can attach
// persistence in between).
func (r *Registry) AddSpatial(name string, domain geom.Rect, points []privtree.Point, epsilon float64) (*Dataset, error) {
	d, err := r.NewSpatialDataset(name, domain, points, epsilon)
	if err != nil {
		return nil, err
	}
	return d, r.Insert(d)
}

// AddSequence builds and registers a sequence dataset (in-memory only).
func (r *Registry) AddSequence(name string, alphabet int, seqs []privtree.Sequence, epsilon float64) (*Dataset, error) {
	d, err := r.NewSequenceDataset(name, alphabet, seqs, epsilon)
	if err != nil {
		return nil, err
	}
	return d, r.Insert(d)
}

// ErrExists reports a dataset-name collision; handlers map it to HTTP 409.
var ErrExists = errors.New("dataset already registered")

// Insert registers a built dataset under its name.
func (r *Registry) Insert(d *Dataset) error { return r.insert(d) }

// Close closes every dataset's store, returning the first error.
func (r *Registry) Close() error {
	var first error
	for _, d := range r.List() {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (r *Registry) insert(d *Dataset) error {
	if err := ValidateName(d.Name); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.datasets[d.Name]; exists {
		return fmt.Errorf("server: dataset %q: %w", d.Name, ErrExists)
	}
	r.datasets[d.Name] = d
	return nil
}

// Get returns a dataset by name.
func (r *Registry) Get(name string) (*Dataset, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.datasets[name]
	return d, ok
}

// List returns all datasets sorted by name.
func (r *Registry) List() []*Dataset {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Dataset, 0, len(r.datasets))
	for _, d := range r.datasets {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered datasets.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.datasets)
}
