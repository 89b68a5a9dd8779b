package privtree

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// buildTestReleases returns one release of each serializable kind, built
// deterministically via the registry.
func buildTestReleases(t testing.TB) map[ReleaseKind]*Release {
	t.Helper()
	out := make(map[ReleaseKind]*Release)

	data, err := NewSpatialData(UnitCube(2), makeClusteredPoints(2000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSpatialMechanism(SpatialOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if out[KindSpatial], err = m.Run(data, 0.7); err != nil {
		t.Fatal(err)
	}

	seqData, err := NewSequenceData(6, makeClickstreams(2000))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSequenceMechanism(SequenceOptions{MaxLength: 10, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if out[KindSequence], err = sm.Run(seqData, 0.7); err != nil {
		t.Fatal(err)
	}

	hData, err := NewHybridData(testHybridSchema(t), testHybridRecords(2000))
	if err != nil {
		t.Fatal(err)
	}
	hm, err := NewHybridMechanism(31)
	if err != nil {
		t.Fatal(err)
	}
	if out[KindHybrid], err = hm.Run(hData, 0.7); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEnvelopeRoundTripAllKinds(t *testing.T) {
	rels := buildTestReleases(t)
	for kind, rel := range rels {
		blob, err := json.Marshal(rel)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !bytes.Contains(blob, []byte(`"privtree_release":1`)) {
			t.Fatalf("%s: envelope missing version marker: %s", kind, blob[:min(len(blob), 120)])
		}
		dec, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: Decode: %v", kind, err)
		}
		if dec.Kind() != kind || dec.Mechanism() != rel.Mechanism() ||
			dec.Epsilon() != rel.Epsilon() || dec.Seed() != rel.Seed() || dec.Params() != rel.Params() {
			t.Fatalf("%s: metadata lost in round trip: %+v vs %+v", kind, dec, rel)
		}
		// Payloads must answer identically.
		switch kind {
		case KindSpatial:
			q := NewRect(Point{0.1, 0.2}, Point{0.7, 0.9})
			if a, b := rel.RangeCount(q), dec.RangeCount(q); a != b {
				t.Fatalf("spatial answers diverged: %v vs %v", a, b)
			}
		case KindSequence:
			for _, s := range []Sequence{{0}, {2, 3}, {5, 0, 1}} {
				if a, b := rel.EstimateFrequency(s), dec.EstimateFrequency(s); a != b {
					t.Fatalf("sequence answers diverged on %v: %v vs %v", s, a, b)
				}
			}
		case KindHybrid:
			h1, _ := rel.Hybrid()
			h2, _ := dec.Hybrid()
			q := HybridQuery{NumRanges: []*[2]float64{{10, 60}}, CatValues: []map[string]bool{{"eng": true, "sci": true}}}
			if a, b := h1.Count(q), h2.Count(q); a != b {
				t.Fatalf("hybrid answers diverged: %v vs %v", a, b)
			}
		}
		// json.Unmarshal into a Release must behave exactly like Decode.
		var viaUnmarshal Release
		if err := json.Unmarshal(blob, &viaUnmarshal); err != nil {
			t.Fatalf("%s: Unmarshal: %v", kind, err)
		}
		if viaUnmarshal.Kind() != kind {
			t.Fatalf("%s: Unmarshal lost kind", kind)
		}
	}
}

// TestDecodeLegacyV0Documents pins the retirement of the compat shims:
// a bare per-type document (the pre-envelope wire format) is not a
// release, and Decode and InspectEnvelope reject it with an error that
// says so, while the per-type reader still loads it.
func TestDecodeLegacyV0Documents(t *testing.T) {
	rels := buildTestReleases(t)
	spatial, _ := rels[KindSpatial].Spatial()
	model, _ := rels[KindSequence].Sequence()
	hybrid, _ := rels[KindHybrid].Hybrid()
	for _, doc := range []json.Marshaler{spatial, model, hybrid} {
		blob, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(blob); err == nil || !strings.Contains(err.Error(), "not a release envelope") {
			t.Fatalf("Decode of a bare %T: error %v, want one saying it is not a release envelope", doc, err)
		}
		if _, err := InspectEnvelope(blob); err == nil || !strings.Contains(err.Error(), "not a release envelope") {
			t.Fatalf("InspectEnvelope of a bare %T: error %v, want one saying it is not a release envelope", doc, err)
		}
	}
	var back SpatialTree
	blob, _ := json.Marshal(spatial)
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	q := NewRect(Point{0.1, 0.2}, Point{0.7, 0.9})
	if a, b := spatial.RangeCount(q), back.RangeCount(q); a != b {
		t.Fatalf("bare spatial document answers diverged: %v vs %v", a, b)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		blob string
	}{
		{"empty", ``},
		{"not json", `{`},
		{"no shape", `{"hello": "world"}`},
		{"future envelope version", `{"privtree_release":2,"kind":"spatial","payload":{}}`},
		{"unknown kind", `{"privtree_release":1,"kind":"tabular","payload":{}}`},
		{"baseline kind", `{"privtree_release":1,"kind":"baseline","payload":{}}`},
		{"missing payload", `{"privtree_release":1,"kind":"spatial"}`},
		{"corrupt payload", `{"privtree_release":1,"kind":"spatial","payload":{"version":1,"fanout":0,"root":{}}}`},
		{"kind/payload mismatch", `{"privtree_release":1,"kind":"sequence","payload":{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}}`},
		// Forged provenance: the envelope's metadata is validated too.
		{"negative epsilon", `{"privtree_release":1,"kind":"spatial","epsilon":-3,"payload":{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}}`},
		{"non-finite epsilon", `{"privtree_release":1,"kind":"spatial","epsilon":1e999,"payload":{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}}`},
		{"unknown mechanism name", `{"privtree_release":1,"kind":"spatial","mechanism":"magic","payload":{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}}`},
		{"mechanism/kind mismatch", `{"privtree_release":1,"kind":"spatial","mechanism":"sequence","payload":{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}}`},
		{"params no mechanism accepts", `{"privtree_release":1,"kind":"spatial","mechanism":"spatial","params":{"fanout":1},"payload":{"version":1,"fanout":2,"root":{"lo":[0],"hi":[1],"count":1}}}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Decode([]byte(c.blob)); err == nil {
				t.Fatalf("Decode accepted %s", c.blob)
			}
		})
	}
}

func TestBaselineReleaseHasNoWireFormat(t *testing.T) {
	data, err := NewSpatialData(UnitCube(2), makeClusteredPoints(1000))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewBaselineMechanism(BaselineUG, 1)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := m.Run(data, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(rel); err == nil || !strings.Contains(err.Error(), "no wire format") {
		t.Fatalf("baseline release marshaled, want no-wire-format error, got %v", err)
	}
}

func TestEnvelopeOmitsWorkers(t *testing.T) {
	// Workers is an execution knob, not a release parameter: it must never
	// reach the wire or the fingerprint.
	data, err := NewSpatialData(UnitCube(2), makeClusteredPoints(1000))
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSpatialMechanism(SpatialOptions{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSpatialMechanism(SpatialOptions{Seed: 5, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	relA, err := a.Run(data, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	relB, err := b.Run(data, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if relA.Fingerprint() != relB.Fingerprint() {
		t.Fatalf("workers leaked into the fingerprint: %q vs %q", relA.Fingerprint(), relB.Fingerprint())
	}
	blobA, err := json.Marshal(relA)
	if err != nil {
		t.Fatal(err)
	}
	blobB, err := json.Marshal(relB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blobA, blobB) {
		t.Fatal("workers setting changed the wire bytes")
	}
	if bytes.Contains(blobA, []byte("workers")) {
		t.Fatal("workers field reached the wire")
	}
}

func TestReleaseNaNForInapplicableQueries(t *testing.T) {
	rels := buildTestReleases(t)
	if !math.IsNaN(rels[KindHybrid].RangeCount(UnitCube(2))) {
		t.Fatal("hybrid release answered a range count")
	}
	if !math.IsNaN(rels[KindHybrid].EstimateFrequency(Sequence{0})) {
		t.Fatal("hybrid release answered a frequency estimate")
	}
	if _, ok := rels[KindSpatial].Sequence(); ok {
		t.Fatal("spatial release claims a sequence payload")
	}
	if _, ok := rels[KindSequence].Hybrid(); ok {
		t.Fatal("sequence release claims a hybrid payload")
	}
}
