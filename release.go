package privtree

import (
	"fmt"
	"math"
	"sync/atomic"
)

// ReleaseKind identifies the artifact family a release carries on the wire
// and in memory.
type ReleaseKind string

// The release kinds. The three tree kinds are serializable through the
// versioned envelope (see Decode); baseline releases are in-memory query
// structures only.
const (
	KindSpatial  ReleaseKind = "spatial"
	KindSequence ReleaseKind = "sequence"
	KindHybrid   ReleaseKind = "hybrid"
	KindBaseline ReleaseKind = "baseline"
)

// Release is the uniform ε-differentially-private artifact every mechanism
// produces: the paper frames the spatial decomposition, the prediction
// suffix tree, the hybrid-domain tree, and each Figure-5 baseline as the
// same object — a private release that composes sequentially and can be
// post-processed freely. A Release records which mechanism ran, the
// parameters it ran with, and the ε it consumed, alongside the payload.
//
// Releases are immutable once built; all accessors are safe for concurrent
// use.
type Release struct {
	kind      ReleaseKind
	mechanism string
	epsilon   float64
	params    Params

	spatial *SpatialTree
	model   *SequenceModel
	hybrid  *HybridTree
	counter RangeCounter // baseline payloads

	// wire caches the marshaled envelope so every consumer — MarshalJSON,
	// the store's commit, the server's artifact — serves the SAME bytes.
	// For releases recovered from a store it is pre-loaded with the exact
	// persisted bytes, which is what makes "bit-identical across a
	// restart" a guarantee instead of a marshaling coincidence.
	wire atomic.Pointer[wireEnvelope]
}

// wireEnvelope is the cached result of encoding a Release's envelope.
type wireEnvelope struct {
	blob []byte
	err  error
}

// Envelope returns the release's versioned wire envelope (the JSON that
// privtree.Decode loads), marshaled once and cached: repeated calls —
// and MarshalJSON — return the same byte slice. Callers must not mutate
// it. Baseline releases have no wire format and return an error.
func (r *Release) Envelope() ([]byte, error) {
	if e := r.wire.Load(); e != nil {
		return e.blob, e.err
	}
	blob, err := r.encodeEnvelope()
	// First writer wins, so concurrent callers settle on one byte slice.
	r.wire.CompareAndSwap(nil, &wireEnvelope{blob: blob, err: err})
	e := r.wire.Load()
	return e.blob, e.err
}

// Kind returns the artifact family.
func (r *Release) Kind() ReleaseKind { return r.kind }

// Mechanism returns the registry name of the mechanism that produced the
// release ("spatial", "baseline/ug", ...). Empty when the envelope did not
// record it.
func (r *Release) Mechanism() string { return r.mechanism }

// Epsilon returns the privacy budget the release consumed. Zero when the
// envelope did not record it.
func (r *Release) Epsilon() float64 { return r.epsilon }

// Seed returns the mechanism seed the release was built with.
func (r *Release) Seed() uint64 { return r.params.Seed }

// Params returns the parameters the mechanism ran with.
func (r *Release) Params() Params { return r.params }

// Fingerprint returns a stable identity string for the release request:
// mechanism name, ε, and every artifact-determining parameter in a fixed
// order. Two requests with equal fingerprints against the same data denote
// the same release — this is the key the Session cache dedups on, and what
// makes serving a repeat request without a new debit sound (re-publishing
// released bytes is post-processing).
func (r *Release) Fingerprint() string {
	return releaseFingerprint(r.mechanism, r.epsilon, r.params)
}

// releaseFingerprint is the shared fingerprint construction for releases
// and not-yet-built release requests.
func releaseFingerprint(mechanism string, eps float64, p Params) string {
	return fmt.Sprintf("mech=%s eps=%g %s", mechanism, eps, p.fingerprint())
}

// Spatial returns the payload as a spatial decomposition, when the release
// kind is KindSpatial.
func (r *Release) Spatial() (*SpatialTree, bool) { return r.spatial, r.spatial != nil }

// Sequence returns the payload as a sequence model, when the release kind
// is KindSequence.
func (r *Release) Sequence() (*SequenceModel, bool) { return r.model, r.model != nil }

// Hybrid returns the payload as a hybrid-domain tree, when the release
// kind is KindHybrid.
func (r *Release) Hybrid() (*HybridTree, bool) { return r.hybrid, r.hybrid != nil }

// RangeCounter returns the payload as a range-count structure: spatial
// releases and every baseline satisfy it.
func (r *Release) RangeCounter() (RangeCounter, bool) {
	switch {
	case r.spatial != nil:
		return r.spatial, true
	case r.counter != nil:
		return r.counter, true
	}
	return nil, false
}

// RangeCount makes Release itself satisfy RangeCounter for spatial and
// baseline payloads: post-processing a release never needs to know which
// mechanism produced it. Releases of other kinds answer NaN; use
// RangeCounter to branch explicitly.
func (r *Release) RangeCount(q Rect) float64 {
	if c, ok := r.RangeCounter(); ok {
		return c.RangeCount(q)
	}
	return math.NaN()
}

// FrequencyEstimator answers substring-frequency queries; SequenceModel
// and sequence-kind Releases satisfy it.
type FrequencyEstimator interface {
	EstimateFrequency(s Sequence) float64
}

// EstimateFrequency makes Release satisfy FrequencyEstimator for sequence
// payloads. Releases of other kinds answer NaN; use Sequence to branch
// explicitly.
func (r *Release) EstimateFrequency(s Sequence) float64 {
	if r.model != nil {
		return r.model.EstimateFrequency(s)
	}
	return math.NaN()
}
