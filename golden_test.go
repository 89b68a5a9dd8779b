package privtree

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden-file compatibility gate: the files under testdata/ are serialized
// artifacts. The *_envelope*.json files written today must not drift;
// spatial_envelope.json (a version-1 spatial payload) and the bare
// *_v0.json documents are fixtures from earlier formats that are no
// longer written. Future changes to the decoders must keep loading every
// envelope — a released artifact archived by a user must never become
// unreadable.
//
// Regenerate the current envelopes (only when intentionally revving the
// wire format) with:
//
//	PRIVTREE_UPDATE_GOLDEN=1 go test -run TestGolden .

// goldenReleases builds the deterministic releases the golden files were
// generated from.
func goldenReleases(t testing.TB) map[string]*Release {
	t.Helper()
	out := make(map[string]*Release)

	data, err := NewSpatialData(UnitCube(2), makeClusteredPoints(300))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSpatialMechanism(SpatialOptions{Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out["spatial"], err = m.Run(data, 0.5); err != nil {
		t.Fatal(err)
	}

	seqData, err := NewSequenceData(6, makeClickstreams(500))
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSequenceMechanism(SequenceOptions{MaxLength: 8, Seed: 11, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out["sequence"], err = sm.Run(seqData, 1.0); err != nil {
		t.Fatal(err)
	}

	hData, err := NewHybridData(testHybridSchema(t), testHybridRecords(300))
	if err != nil {
		t.Fatal(err)
	}
	hm, err := NewHybridMechanism(11)
	if err != nil {
		t.Fatal(err)
	}
	if out["hybrid"], err = hm.Run(hData, 1.0); err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenEnvelopeFile names the checked-in envelope of each golden
// release. The spatial one carries a version-2 payload;
// spatial_envelope.json, its version-1 predecessor, stays as a
// decode-only fixture.
func goldenEnvelopeFile(name string) string {
	if name == "spatial" {
		return "spatial_envelope_v2.json"
	}
	return name + "_envelope.json"
}

func TestGoldenArtifactsUpToDate(t *testing.T) {
	update := os.Getenv("PRIVTREE_UPDATE_GOLDEN") == "1"
	for name, rel := range goldenReleases(t) {
		envelope, err := json.Marshal(rel)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", goldenEnvelopeFile(name))
		if update {
			if err := os.WriteFile(path, append(envelope, '\n'), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with PRIVTREE_UPDATE_GOLDEN=1): %v", err)
		}
		if !bytes.Equal(bytes.TrimSuffix(want, []byte("\n")), envelope) {
			t.Errorf("%s: serialization drifted from the checked-in golden bytes", path)
		}
	}
}

// TestGoldenV1SpatialReencodesAsV2 is the compatibility contract of the
// version-2 spatial payload: the checked-in version-1 envelope decodes
// to a release whose envelope is, byte for byte, the version-2 golden
// file — the regions version 1 stored are exactly the ones version 2
// derives.
func TestGoldenV1SpatialReencodesAsV2(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "spatial_envelope.json"))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", "spatial_envelope_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := Decode(v1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rel.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimSuffix(v2, []byte("\n"))) {
		t.Fatal("the version-1 golden release does not re-encode as the version-2 golden file")
	}
	again, err := Decode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !sameRelease(rel, again) {
		t.Fatal("the version-1 and version-2 golden files decode to different releases")
	}
}

// TestGoldenV0DecodesViaEnvelopeEntryPoint pins the retirement of the
// bare per-type documents that predate the envelope: Decode must reject
// each checked-in one with an error saying it is not an envelope, while
// the per-type UnmarshalJSON methods still read them.
func TestGoldenV0DecodesViaEnvelopeEntryPoint(t *testing.T) {
	cases := []struct {
		file string
		into json.Unmarshaler
	}{
		{"spatial_v0.json", &SpatialTree{}},
		{"sequence_v0.json", &SequenceModel{}},
		{"hybrid_v0.json", &HybridTree{}},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(blob); err == nil || !strings.Contains(err.Error(), "not a release envelope") {
				t.Fatalf("Decode of a bare document: error %v, want one saying it is not a release envelope", err)
			}
			if _, err := InspectEnvelope(blob); err == nil || !strings.Contains(err.Error(), "not a release envelope") {
				t.Fatalf("InspectEnvelope of a bare document: error %v, want one saying it is not a release envelope", err)
			}
			if err := json.Unmarshal(blob, c.into); err != nil {
				t.Fatalf("the per-type reader rejected its document: %v", err)
			}
		})
	}
}

// TestGoldenEnvelopesDecode pins the envelope metadata of the checked-in
// envelope files.
func TestGoldenEnvelopesDecode(t *testing.T) {
	for name, want := range map[string]ReleaseKind{
		"spatial_envelope.json":    KindSpatial,
		"spatial_envelope_v2.json": KindSpatial,
		"sequence_envelope.json":   KindSequence,
		"hybrid_envelope.json":     KindHybrid,
	} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := Decode(blob)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rel.Kind() != want || rel.Seed() != 11 || rel.Epsilon() == 0 || rel.Mechanism() == "" {
			t.Fatalf("%s: metadata wrong: kind=%s mech=%q eps=%v seed=%d",
				name, rel.Kind(), rel.Mechanism(), rel.Epsilon(), rel.Seed())
		}
	}
}
