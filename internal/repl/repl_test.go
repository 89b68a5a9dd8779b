package repl

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"privtree/internal/store"
)

// fakePrimary serves the shipping protocol for its datasets from one real
// store's WAL, advertising listedEpoch on the listing and streamEpoch on
// each frame response, and records the registration fetches and WAL pulls
// it serves.
type fakePrimary struct {
	st           *store.Store
	registration []byte
	names        []string

	mu            sync.Mutex
	listedEpoch   uint64
	streamEpoch   uint64
	registrations map[string]int
	froms         []uint64
}

func newFakePrimary(t *testing.T, debits int, names ...string) (*fakePrimary, *httptest.Server) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 0; i < debits; i++ {
		if err := st.AppendDebit(0.125, "k"+strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	p := &fakePrimary{st: st, registration: []byte(`{"privtreed_dataset":1}`), names: names,
		listedEpoch: 1, streamEpoch: 1, registrations: map[string]int{}}
	srv := httptest.NewServer(p)
	t.Cleanup(srv.Close)
	return p, srv
}

func (p *fakePrimary) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	path := strings.TrimPrefix(r.URL.Path, "/v1/repl/datasets")
	switch {
	case path == "":
		var docs []DatasetDoc
		for _, name := range p.names {
			docs = append(docs, DatasetDoc{
				Name: name, WriterEpoch: p.listedEpoch, LastSeq: p.st.LastSeq(),
				RegistrationBytes:  int64(len(p.registration)),
				RegistrationSHA256: store.AddrString(sha256.Sum256(p.registration)),
			})
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"datasets": docs})
	case strings.HasSuffix(path, "/registration"):
		p.registrations[strings.Trim(strings.TrimSuffix(path, "/registration"), "/")]++
		_, _ = w.Write(p.registration)
	case strings.HasSuffix(path, "/wal"):
		from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		maxBytes, _ := strconv.Atoi(r.URL.Query().Get("max_bytes"))
		frames, last, err := p.st.FramesSince(from, maxBytes)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		p.froms = append(p.froms, from)
		w.Header().Set(HeaderWriterEpoch, strconv.FormatUint(p.streamEpoch, 10))
		w.Header().Set(HeaderLastSeq, strconv.FormatUint(last, 10))
		_, _ = w.Write(frames)
	default:
		http.NotFound(w, r)
	}
}

// fakeReplica applies shipped frames by moving its cursor to the last
// sequence they carry.
type fakeReplica struct {
	mu      sync.Mutex
	seq     uint64
	epoch   uint64
	applies int
}

func (f *fakeReplica) LastSeq() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

func (f *fakeReplica) WriterEpoch() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *fakeReplica) HasArtifact(string) bool          { return true }
func (f *fakeReplica) PutArtifact(string, []byte) error { return nil }

func (f *fakeReplica) ApplyFrames(frames []byte) error {
	events, err := store.ParseFrames(frames)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.applies++
	f.seq = events[len(events)-1].Seq
	return nil
}

// fakeTarget is a registry of fake replicas that records what Ensure is
// handed.
type fakeTarget struct {
	mu       sync.Mutex
	replicas map[string]*fakeReplica
	ensured  map[string][]byte
}

func newFakeTarget(known map[string]*fakeReplica) *fakeTarget {
	return &fakeTarget{replicas: known, ensured: map[string][]byte{}}
}

func (f *fakeTarget) Lookup(name string) (Replica, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rep, ok := f.replicas[name]
	if !ok {
		return nil, false, nil
	}
	return rep, true, nil
}

func (f *fakeTarget) Ensure(doc DatasetDoc, registration []byte) (Replica, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ensured[doc.Name] = registration
	rep := &fakeReplica{}
	f.replicas[doc.Name] = rep
	return rep, nil
}

// TestSyncRefusesStaleWriterEpoch checks that a replica never applies a
// stream from a writer older than the one it has applied, whether the
// listing or the frame response gives the stale epoch away.
func TestSyncRefusesStaleWriterEpoch(t *testing.T) {
	for _, tc := range []struct {
		name                string
		listed, streamEpoch uint64
	}{
		{"listing", 1, 2},
		{"stream", 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, srv := newFakePrimary(t, 3, "d")
			p.listedEpoch, p.streamEpoch = tc.listed, tc.streamEpoch
			rep := &fakeReplica{epoch: 2}
			s := NewSyncer(srv.URL, newFakeTarget(map[string]*fakeReplica{"d": rep}), Options{})
			if err := s.syncOnce(context.Background()); err == nil || !strings.Contains(err.Error(), "below local epoch") {
				t.Fatalf("sync from a stale writer: err = %v, want a refusal", err)
			}
			if rep.applies != 0 || rep.LastSeq() != 0 {
				t.Fatalf("stale shipment applied: %d applies, last seq %d", rep.applies, rep.LastSeq())
			}
			if s.CaughtUp() {
				t.Fatal("replica reports caught up after refusing the stream")
			}
		})
	}
}

// TestSyncFetchesRegistrationOnlyForUnknownDatasets checks that the
// registration document is fetched once, for the dataset the target does
// not know, and handed to Ensure verbatim.
func TestSyncFetchesRegistrationOnlyForUnknownDatasets(t *testing.T) {
	p, srv := newFakePrimary(t, 2, "known", "fresh")
	target := newFakeTarget(map[string]*fakeReplica{"known": {}})
	s := NewSyncer(srv.URL, target, Options{})
	for pass := 0; pass < 2; pass++ {
		if err := s.syncOnce(context.Background()); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	if len(p.registrations) != 1 || p.registrations["fresh"] != 1 {
		t.Fatalf("registration fetches %v, want one, for fresh", p.registrations)
	}
	if got := string(target.ensured["fresh"]); len(target.ensured) != 1 || got != string(p.registration) {
		t.Fatalf("Ensure got %v, want fresh's registration", target.ensured)
	}
}

// TestSyncCursorAdvancesToLastApplied checks that each pull starts after
// the last sequence applied, and that the pass ends caught up at the
// primary's last sequence.
func TestSyncCursorAdvancesToLastApplied(t *testing.T) {
	const debits = 6
	p, srv := newFakePrimary(t, debits, "d")
	rep := &fakeReplica{}
	s := NewSyncer(srv.URL, newFakeTarget(map[string]*fakeReplica{"d": rep}), Options{MaxBytes: 1})
	if err := s.syncOnce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rep.LastSeq() != debits || !s.CaughtUp() {
		t.Fatalf("last applied %d, caught up %v; want %d and true", rep.LastSeq(), s.CaughtUp(), debits)
	}
	if rep.applies < 2 {
		t.Fatalf("%d applies: MaxBytes 1 should split the catch-up into several pulls", rep.applies)
	}
	for i, from := range p.froms {
		if i > 0 && from <= p.froms[i-1] {
			t.Fatalf("pull %d started at %d, not after the previous pull's %d: %v", i, from, p.froms[i-1], p.froms)
		}
	}
	if p.froms[0] != 0 {
		t.Fatalf("first pull from %d, want 0", p.froms[0])
	}
	if lag := s.Status()["d"]; lag.Applied != debits || lag.Observed != debits || lag.Lag() != 0 {
		t.Fatalf("status %+v, want applied = observed = %d", lag, debits)
	}
}
