package privtree

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"privtree/internal/dp"
)

// sessionStorePoints is a small deterministic dataset for the
// persistence tests (big enough for real trees, small enough for many
// child processes).
func sessionStorePoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		x := float64(i%97) / 97
		y := float64((i*31)%89) / 89
		pts[i] = Point{x, y}
	}
	return pts
}

func TestOpenSessionRecoversLedgerAndReleases(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "session-store")
	data, err := NewSpatialData(UnitCube(2), sessionStorePoints(2000))
	if err != nil {
		t.Fatal(err)
	}

	s1, err := OpenSession(dir, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewSpatialMechanism(SpatialOptions{Seed: 7, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rel1, cached, err := s1.Release(m1, data, 0.5)
	if err != nil || cached {
		t.Fatalf("first release: cached=%v err=%v", cached, err)
	}
	env1, err := rel1.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	// A failed build: fanout 8 is unrealizable in 2-D, which fails at
	// build time (after the debit) and must leave a durable refund.
	mBad, err := NewSpatialMechanism(SpatialOptions{Seed: 7, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Release(mBad, data, 0.25); err == nil {
		t.Fatal("unrealizable fanout built")
	}
	spent1 := s1.Spent()
	if spent1 != 0.5 {
		t.Fatalf("spent after release+refund = %v, want 0.5", spent1)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process: same directory, same data.
	s2, err := OpenSession(dir, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Spent(); got != spent1 {
		t.Fatalf("recovered spent = %v, want %v", got, spent1)
	}
	hist := s2.History()
	if len(hist) != 3 {
		t.Fatalf("recovered audit trail has %d entries, want 3 (debit, debit, refund): %+v", len(hist), hist)
	}
	if hist[2].Kind != dp.DebitKindRefund || hist[2].Epsilon != -0.25 {
		t.Fatalf("refund entry not recovered explicitly: %+v", hist[2])
	}
	restored := s2.Restored()
	if len(restored) != 1 {
		t.Fatalf("%d restored releases, want 1", len(restored))
	}
	env2, err := restored[0].Release.Envelope()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env1, env2) {
		t.Fatal("recovered envelope is not bit-identical to the released one")
	}
	// And it decodes through the public entry point.
	decoded, err := Decode(env2)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Epsilon() != 0.5 || decoded.Mechanism() != "spatial" {
		t.Fatalf("decoded provenance wrong: eps=%v mech=%q", decoded.Epsilon(), decoded.Mechanism())
	}

	// Requesting the same release again is a cache hit from the store: no
	// new debit, and the SAME tree answers queries.
	rel2, cached, err := s2.Release(m1, data, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("recovered release rebuilt instead of served from store")
	}
	if got := s2.Spent(); got != spent1 {
		t.Fatalf("recovered cache hit re-debited: spent %v -> %v", spent1, got)
	}
	t1, _ := rel1.Spatial()
	t2, _ := rel2.Spatial()
	q := NewRect(Point{0.1, 0.1}, Point{0.8, 0.7})
	if c1, c2 := t1.RangeCount(q), t2.RangeCount(q); c1 != c2 {
		t.Fatalf("recovered tree answers differently: %v vs %v", c1, c2)
	}

	// The remaining budget is live: a fresh release debits it.
	m3, err := NewSpatialMechanism(SpatialOptions{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.Release(m3, data, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := s2.Spent(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("spent after fresh release = %v, want 1.0", got)
	}
	// ... and exhaustion carries across the recovered debits.
	m4, err := NewSpatialMechanism(SpatialOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var be *BudgetError
	if _, _, err := s2.Release(m4, data, 0.25); !errors.As(err, &be) {
		t.Fatalf("over-budget release after recovery: got %v, want *BudgetError", err)
	}
}

func TestOpenSessionBudgetExhaustionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	data, err := NewSpatialData(UnitCube(2), sessionStorePoints(500))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := OpenSession(dir, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSpatialMechanism(SpatialOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.Release(m, data, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// The attack the store exists to stop: bounce the process, try to
	// spend the budget again with different parameters.
	s2, err := OpenSession(dir, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m2, err := NewSpatialMechanism(SpatialOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var be *BudgetError
	if _, _, err := s2.Release(m2, data, 0.5); !errors.As(err, &be) {
		t.Fatalf("restart forgot the spent budget: got %v, want *BudgetError", err)
	}
}

func TestWithStoreRequiresFreshSession(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s, err := NewSession(1.0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := NewSpatialData(UnitCube(2), sessionStorePoints(200))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewSpatialMechanism(SpatialOptions{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Release(m, data, 0.25); err != nil {
		t.Fatal(err)
	}
	if err := s.WithStore(st); err == nil {
		t.Fatal("WithStore accepted a session with prior spends")
	}
	fresh, err := NewSession(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.WithStore(st); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WithStore(st); err == nil {
		t.Fatal("second WithStore accepted")
	}
	if err := fresh.WithStore(nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

// TestSessionStoreCompaction exercises Compact through the public
// wrapper: state must be identical after fold + reopen.
func TestSessionStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	data, err := NewSpatialData(UnitCube(2), sessionStorePoints(500))
	if err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(2.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WithStore(st); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		m, err := NewSpatialMechanism(SpatialOptions{Seed: seed, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Release(m, data, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	spent := s.Spent()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSession(dir, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Spent(); got != spent {
		t.Fatalf("spent after compaction+reopen = %v, want %v", got, spent)
	}
	if n := len(s2.Restored()); n != 3 {
		t.Fatalf("%d restored releases after compaction, want 3", n)
	}
	if n := len(s2.History()); n != 3 {
		t.Fatalf("audit trail has %d entries after compaction, want 3", n)
	}
}

// TestApplyReplicatedReplaysLedgerIncrementally ships a primary's WAL to
// a replica session one frame per pull and, after every pull, holds the
// replica's spent ε and audit trail to a full Restore of the replica
// store's events: replaying only each pull's new debits and refunds must
// give bit-identical arithmetic. The spends are fractions whose running
// sum rounds, and a failed build adds a refund.
func TestApplyReplicatedReplaysLedgerIncrementally(t *testing.T) {
	data, err := NewSpatialData(UnitCube(2), sessionStorePoints(500))
	if err != nil {
		t.Fatal(err)
	}
	primary, err := OpenSession(filepath.Join(t.TempDir(), "primary"), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	for i, eps := range []float64{0.1, 0.2, 0.3, 0.7, 1.1} {
		m, err := NewSpatialMechanism(SpatialOptions{Seed: uint64(i + 1), Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := primary.Release(m, data, eps); err != nil {
			t.Fatal(err)
		}
	}
	bad, err := NewSpatialMechanism(SpatialOptions{Seed: 9, Fanout: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := primary.Release(bad, data, 0.3); err == nil {
		t.Fatal("unrealizable fanout built")
	}

	replica, err := OpenSession(filepath.Join(t.TempDir(), "replica"), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	for _, c := range primary.store.Commits() {
		blob, err := primary.store.LoadArtifact(c.SHA)
		if err != nil {
			t.Fatal(err)
		}
		if err := replica.store.PutArtifact(hex.EncodeToString(c.SHA[:]), blob); err != nil {
			t.Fatal(err)
		}
	}
	pulls := 0
	for replica.store.LastSeq() < primary.store.LastSeq() {
		frames, _, err := primary.store.FramesSince(replica.store.LastSeq(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := replica.ApplyReplicated(frames); err != nil {
			t.Fatal(err)
		}
		pulls++
		full, err := dp.NewLedger(10)
		if err != nil {
			t.Fatal(err)
		}
		full.Restore(ledgerHistory(replica.store.Events()))
		if got, want := replica.Spent(), full.Spent(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pull %d: spent %v, a full replay gives %v", pulls, got, want)
		}
		if got, want := replica.History(), full.History(); !reflect.DeepEqual(got, want) {
			t.Fatalf("pull %d: history %+v, a full replay gives %+v", pulls, got, want)
		}
	}
	if pulls < 10 {
		t.Fatalf("caught up in %d pulls, want one per frame", pulls)
	}
	if got, want := replica.Spent(), primary.Spent(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("replica spent %v, primary %v", got, want)
	}
}
