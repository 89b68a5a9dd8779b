package privtree

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"privtree/internal/wire"
)

// This file defines the versioned, self-describing wire envelope every
// serializable release travels in:
//
//	{
//	  "privtree_release": 1,
//	  "kind": "spatial" | "sequence" | "hybrid",
//	  "mechanism": "spatial",          // registry name, optional
//	  "epsilon": 0.5,                  // budget the release consumed, optional
//	  "params": { "seed": 7, ... },    // the Params the mechanism ran with
//	  "payload": { ... }               // the kind-specific artifact document
//	}
//
// Decode is the single entry point: it dispatches on "kind", and keeps
// loading the legacy per-type v0 documents (a bare SpatialTree,
// SequenceModel, or HybridTree JSON document with no envelope) through
// compat shims, so artifacts archived before the envelope existed remain
// readable. The payload documents themselves are unchanged — an envelope
// wraps exactly the bytes the per-type (Un)MarshalJSON implementations
// produce, so the ε-DP guarantee of the payload carries over verbatim.

// EnvelopeVersion is the wire-envelope version this library writes.
const EnvelopeVersion = 1

// MarshalJSON implements json.Marshaler for Release: the versioned
// envelope around the kind-specific payload document, served from the
// Envelope cache so repeated marshals are bit-identical. Baseline
// releases are in-memory query structures with no wire format and return
// an error.
func (r *Release) MarshalJSON() ([]byte, error) {
	return r.Envelope()
}

// encodeEnvelope builds the envelope bytes; Envelope caches its result.
// Header and payload are appended to one buffer, the spatial and
// sequence payloads straight from their arenas. The bytes must stay
// exactly what encoding/json writes for the envelope — keys in this
// order, mechanism and a zero ε omitted — since stores, replicas and
// archived artifacts hold them (the golden files pin them).
func (r *Release) encodeEnvelope() ([]byte, error) {
	if r.spatial == nil && r.model == nil && r.hybrid == nil {
		return nil, fmt.Errorf("privtree: %s release has no wire format", r.kind)
	}
	b := append(make([]byte, 0, 256), `{"privtree_release":`...)
	b = strconv.AppendInt(b, EnvelopeVersion, 10)
	// Kinds and mechanism names are registry identifiers (Decode rejects
	// any other), plain ASCII that JSON quotes without escapes.
	b = append(append(append(b, `,"kind":"`...), r.kind...), '"')
	if r.mechanism != "" {
		b = append(append(append(b, `,"mechanism":"`...), r.mechanism...), '"')
	}
	var err error
	if r.epsilon != 0 {
		b = append(b, `,"epsilon":`...)
		if b, err = wire.AppendFloat(b, r.epsilon); err != nil {
			return nil, err
		}
	}
	// Params' struct tags are the one definition of its wire form.
	params, err := json.Marshal(&r.params)
	if err != nil {
		return nil, err
	}
	b = append(append(append(b, `,"params":`...), params...), `,"payload":`...)
	switch {
	case r.spatial != nil:
		b, err = appendSpatialPayload(b, r.spatial.tree)
	case r.model != nil:
		b, err = appendSequencePayload(b, r.model)
	default:
		var blob []byte
		if blob, err = json.Marshal(r.hybrid); err == nil {
			b = append(b, blob...)
		}
	}
	if err != nil {
		return nil, err
	}
	// The buffer was sized generously up front; the cached envelope lives
	// as long as the release, so keep an exact-size copy.
	return append([]byte(nil), append(b, '}')...), nil
}

// UnmarshalJSON implements json.Unmarshaler for Release via Decode, so
// envelopes (and legacy v0 documents) load with plain json.Unmarshal too.
// The receiver is left untouched on failure. (Fields are copied one by
// one: the receiver's envelope cache is an atomic and must not be copied
// as a value.)
func (r *Release) UnmarshalJSON(data []byte) error {
	dec, err := Decode(data)
	if err != nil {
		return err
	}
	r.kind = dec.kind
	r.mechanism = dec.mechanism
	r.epsilon = dec.epsilon
	r.params = dec.params
	r.spatial, r.model, r.hybrid, r.counter = dec.spatial, dec.model, dec.hybrid, dec.counter
	// Take dec's cache even when it is nil: a reused receiver must not
	// keep serving a PREVIOUS document's envelope bytes.
	r.wire.Store(dec.wire.Load())
	return nil
}

// EnvelopeInfo is the provenance metadata of a serialized release,
// readable without decoding (or validating) the payload — see
// InspectEnvelope.
type EnvelopeInfo struct {
	// Version is the envelope version (0 for legacy bare documents).
	Version int
	// Kind is the artifact family the document carries.
	Kind ReleaseKind
	// Mechanism is the producing mechanism's registry name ("" when not
	// recorded).
	Mechanism string
	// Epsilon is the privacy budget the release consumed (0 when not
	// recorded).
	Epsilon float64
	// Seed is the mechanism seed.
	Seed uint64
	// Params are the recorded release parameters.
	Params Params
	// Fingerprint is the release-request identity string (mechanism, ε,
	// params) — the key the Session cache and the artifact store dedup on.
	Fingerprint string
	// PayloadBytes is the size of the (uninspected) payload document.
	PayloadBytes int
}

// envelopeHeader is one scan of a serialized release's top-level
// object: the envelope fields, the raw payload, and the legacy v0
// discriminator keys. Field by field it holds what encoding/json would
// decode into
//
//	struct {
//		Envelope  *int            `json:"privtree_release"`
//		Kind      ReleaseKind     `json:"kind"`
//		Mechanism string          `json:"mechanism"`
//		Epsilon   float64         `json:"epsilon"`
//		Params    *Params         `json:"params"`
//		Payload   json.RawMessage `json:"payload"`
//		Alphabet, Fanout *int                 // v0 sequence, spatial
//		Numeric, Taxonomies, Root json.RawMessage // v0 hybrid, any tree
//	}
//
// keys matched in exact case only.
type envelopeHeader struct {
	versioned bool
	version   int
	kind      ReleaseKind
	mechanism string
	epsilon   float64
	params    Params
	payload   []byte // the payload value's bytes; nil when absent

	alphabet, fanout, numeric, taxonomies, root bool
}

// readEnvelopeHeader scans a serialized release once, checking the
// payload's syntax but not decoding it.
func readEnvelopeHeader(data []byte) (*envelopeHeader, error) {
	h := &envelopeHeader{}
	r := wire.NewReader(data)
	err := r.Object(func(key []byte) (err error) {
		switch string(key) {
		case "privtree_release":
			v, null, err := r.Int()
			h.versioned = !null
			if !null && err == nil {
				h.version = v
			}
			return err
		case "kind":
			return r.StringInto((*string)(&h.kind))
		case "mechanism":
			return r.StringInto(&h.mechanism)
		case "epsilon":
			v, null, err := r.Float()
			if !null && err == nil {
				h.epsilon = v
			}
			return err
		case "params":
			if null, err := r.Null(); null || err != nil {
				h.params = Params{}
				return err
			}
			params, err := r.Raw()
			if err != nil {
				return err
			}
			return json.Unmarshal(params, &h.params)
		case "payload":
			h.payload, err = r.Raw()
			return err
		case "alphabet":
			_, null, err := r.Int()
			h.alphabet = !null
			return err
		case "fanout":
			_, null, err := r.Int()
			h.fanout = !null
			return err
		case "numeric":
			h.numeric = true
		case "taxonomies":
			h.taxonomies = true
		case "root":
			h.root = true
		}
		return r.Skip()
	})
	if err != nil {
		return nil, err
	}
	return h, r.End()
}

// check applies the provenance screening Decode and InspectEnvelope
// share to a versioned envelope: a supported version, a payload, a
// plausible ε (0 = not recorded), a known kind, and a registered
// mechanism that produces this kind.
func (h *envelopeHeader) check() error {
	if h.version != EnvelopeVersion {
		return fmt.Errorf("privtree: unsupported release envelope version %d", h.version)
	}
	if len(h.payload) == 0 {
		return fmt.Errorf("privtree: release envelope has no payload")
	}
	if math.IsNaN(h.epsilon) || math.IsInf(h.epsilon, 0) || h.epsilon < 0 {
		return fmt.Errorf("privtree: release envelope has unusable epsilon %v", h.epsilon)
	}
	switch h.kind {
	case KindSpatial, KindSequence, KindHybrid:
	default:
		return fmt.Errorf("privtree: release envelope carries unknown kind %q", h.kind)
	}
	if h.mechanism != "" {
		spec, ok := mechanismRegistry[h.mechanism]
		if !ok {
			return fmt.Errorf("privtree: release envelope names unknown mechanism %q", h.mechanism)
		}
		if spec.kind != h.kind {
			return fmt.Errorf("privtree: mechanism %q produces %s releases, envelope claims %s",
				h.mechanism, spec.kind, h.kind)
		}
	}
	return nil
}

// v0Kind identifies a legacy bare document from its shape.
func (h *envelopeHeader) v0Kind() (ReleaseKind, error) {
	switch {
	case h.alphabet && h.root:
		return KindSequence, nil
	case h.fanout && h.root:
		return KindSpatial, nil
	case h.numeric || h.taxonomies:
		return KindHybrid, nil
	}
	return "", fmt.Errorf("privtree: not a release document (no envelope and no recognizable v0 shape)")
}

// InspectEnvelope reads a serialized release's provenance — kind,
// mechanism, ε, seed, params fingerprint — WITHOUT decoding the payload:
// inspecting a multi-megabyte artifact costs one metadata parse, and a
// payload too corrupt for Decode can still be identified. It accepts
// both versioned envelopes and legacy v0 documents (which carry no
// provenance and report Version 0). The provenance fields get the same
// plausibility screening as Decode; the payload gets none.
func InspectEnvelope(data []byte) (*EnvelopeInfo, error) {
	h, err := readEnvelopeHeader(data)
	if err != nil {
		return nil, err
	}
	if !h.versioned {
		kind, err := h.v0Kind()
		if err != nil {
			return nil, err
		}
		return &EnvelopeInfo{Version: 0, Kind: kind, PayloadBytes: len(data)}, nil
	}
	if err := h.check(); err != nil {
		return nil, err
	}
	return &EnvelopeInfo{
		Version:      h.version,
		Kind:         h.kind,
		Mechanism:    h.mechanism,
		Epsilon:      h.epsilon,
		Seed:         h.params.Seed,
		Params:       h.params,
		Fingerprint:  releaseFingerprint(h.mechanism, h.epsilon, h.params),
		PayloadBytes: len(h.payload),
	}, nil
}

// Decode loads a serialized release: either a versioned envelope (see
// EnvelopeVersion) or one of the legacy v0 per-type documents, which are
// recognized by their distinguishing keys — "alphabet"+"root" (sequence),
// "fanout"+"root" (spatial), "numeric"/"taxonomies" (hybrid). The payload
// is fully validated by the kind-specific decoder before a Release is
// handed back.
//
// Releases decoded from v0 documents carry no mechanism name and ε = 0:
// the legacy formats never recorded them.
func Decode(data []byte) (*Release, error) {
	h, err := readEnvelopeHeader(data)
	if err != nil {
		return nil, err
	}
	if !h.versioned {
		// Legacy v0 compat shim: the whole document is the payload.
		kind, err := h.v0Kind()
		if err != nil {
			return nil, err
		}
		return decodePayload(&Release{kind: kind}, data)
	}
	// The provenance fields are validated like everything else on the
	// wire: a forged envelope must not smuggle provenance no mechanism
	// could have produced.
	if err := h.check(); err != nil {
		return nil, err
	}
	rel := &Release{kind: h.kind, mechanism: h.mechanism, epsilon: h.epsilon, params: h.params}
	if h.mechanism != "" {
		if err := mechanismRegistry[h.mechanism].validate(rel.params); err != nil {
			return nil, fmt.Errorf("privtree: release envelope params: %w", err)
		}
	}
	return decodePayload(rel, h.payload)
}

// decodePayload decodes a standalone payload document of rel's kind into
// rel.
func decodePayload(rel *Release, data []byte) (*Release, error) {
	var err error
	switch rel.kind {
	case KindSpatial:
		rel.spatial = &SpatialTree{}
		err = rel.spatial.UnmarshalJSON(data)
	case KindSequence:
		rel.model = &SequenceModel{}
		err = rel.model.UnmarshalJSON(data)
	default:
		rel.hybrid = &HybridTree{}
		err = json.Unmarshal(data, rel.hybrid)
	}
	if err != nil {
		return nil, err
	}
	return rel, nil
}
