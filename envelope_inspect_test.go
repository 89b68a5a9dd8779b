package privtree

import (
	"os"
	"path/filepath"
	"testing"
)

func TestInspectEnvelope(t *testing.T) {
	data, err := NewSpatialData(UnitCube(2), sessionStorePoints(500))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSpatialMechanism(SpatialOptions{Seed: 21, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := m.Run(data, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := rel.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectEnvelope(blob)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != EnvelopeVersion || info.Kind != KindSpatial || info.Mechanism != "spatial" {
		t.Fatalf("inspect identity wrong: %+v", info)
	}
	if info.Epsilon != 0.75 || info.Seed != 21 {
		t.Fatalf("inspect provenance wrong: eps=%v seed=%d", info.Epsilon, info.Seed)
	}
	if info.Fingerprint != rel.Fingerprint() {
		t.Fatalf("inspect fingerprint %q != release fingerprint %q", info.Fingerprint, rel.Fingerprint())
	}
	if info.PayloadBytes <= 0 {
		t.Fatal("payload size not reported")
	}
}

// TestInspectEnvelopeGolden pins inspect to the checked-in wire
// artifacts: every golden envelope must identify without a payload
// decode, and every bare pre-envelope document must be refused.
func TestInspectEnvelopeGolden(t *testing.T) {
	cases := []struct {
		file    string
		version int
		kind    ReleaseKind
	}{
		{"spatial_envelope.json", 1, KindSpatial},
		{"spatial_envelope_v2.json", 1, KindSpatial},
		{"sequence_envelope.json", 1, KindSequence},
		{"hybrid_envelope.json", 1, KindHybrid},
		{"spatial_v0.json", 0, ""},
		{"sequence_v0.json", 0, ""},
		{"hybrid_v0.json", 0, ""},
	}
	for _, c := range cases {
		blob, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		info, err := InspectEnvelope(blob)
		if c.version == 0 {
			if err == nil {
				t.Fatalf("%s: a bare document was inspected as %+v", c.file, info)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.file, err)
		}
		if info.Version != c.version || info.Kind != c.kind {
			t.Fatalf("%s: got version=%d kind=%s, want %d/%s", c.file, info.Version, info.Kind, c.version, c.kind)
		}
	}
}

// TestInspectEnvelopeDoesNotDecodePayload: a corrupt payload must not
// stop inspection — that is the point of the tool.
func TestInspectEnvelopeHostile(t *testing.T) {
	info, err := InspectEnvelope([]byte(
		`{"privtree_release":1,"kind":"spatial","mechanism":"spatial","epsilon":0.5,` +
			`"params":{"seed":3},"payload":{"totally":"broken"}}`))
	if err != nil {
		t.Fatalf("inspect refused a valid envelope with an undecodable payload: %v", err)
	}
	if info.Kind != KindSpatial || info.Epsilon != 0.5 || info.Seed != 3 {
		t.Fatalf("inspect metadata wrong: %+v", info)
	}

	for _, bad := range []string{
		``,
		`{}`,
		`{"privtree_release":2,"kind":"spatial","payload":{}}`,
		`{"privtree_release":1,"kind":"nope","payload":{}}`,
		`{"privtree_release":1,"kind":"spatial"}`,
		`{"privtree_release":1,"kind":"spatial","epsilon":-1,"payload":{}}`,
		`{"privtree_release":1,"kind":"spatial","mechanism":"no-such","payload":{}}`,
		`{"privtree_release":1,"kind":"sequence","mechanism":"spatial","payload":{}}`,
	} {
		if _, err := InspectEnvelope([]byte(bad)); err == nil {
			t.Fatalf("hostile document accepted: %s", bad)
		}
	}
}
