package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"privtree/internal/server"
)

// clusterPair starts a persistent primary and a replica syncing from it,
// both registered with the cleanup stack, and returns them with their
// test servers.
func clusterPair(t *testing.T) (primary, replica *server.Server, tsP, tsR *httptest.Server) {
	t.Helper()
	var err error
	primary, err = server.New(server.Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tsP = httptest.NewServer(primary)
	t.Cleanup(tsP.Close)
	t.Cleanup(func() { primary.Close() })
	replica, err = server.New(server.Options{
		DataDir: t.TempDir(), Workers: 1,
		ReplicaOf: tsP.URL, ReplicaPoll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tsR = httptest.NewServer(replica)
	t.Cleanup(tsR.Close)
	t.Cleanup(func() { replica.Close() })
	return primary, replica, tsP, tsR
}

// TestClusterRoutingAndFailover drives the cluster client against a real
// primary/replica pair: writes land on the primary regardless of
// endpoint order, reads round-robin over both nodes, and after the
// primary dies and the replica is promoted, the same client's writes
// follow the failover with no configuration change.
func TestClusterRoutingAndFailover(t *testing.T) {
	primary, _, tsP, tsR := clusterPair(t)
	ctx := context.Background()

	// Replica FIRST in the endpoint list: the initial write must bounce
	// off its read_only rejection and advance to the primary.
	cc, err := NewCluster([]string{tsR.URL, tsP.URL}, WithRetryPolicy(fastRetry(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCluster(nil); err == nil {
		t.Fatal("NewCluster accepted an empty endpoint list")
	}

	reg, err := cc.Register(ctx, RegisterRequest{Name: "ha", Epsilon: 2.0, Points: clusterPoints(400)})
	if err != nil {
		t.Fatalf("register through cluster client: %v", err)
	}
	if reg.N != 400 {
		t.Fatalf("register ack n=%d", reg.N)
	}
	rel, err := cc.CreateRelease(ctx, "ha", ReleaseParams{Epsilon: 0.5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the replica to be ready and to hold the release, then
	// verify reads succeed many times in a row — round-robin means both
	// nodes serve them. Readiness alone is not enough: it latches on the
	// replica's first caught-up pass, which can come before the release
	// was bought, and the failover below needs the release's debit on
	// the replica.
	replicaClient := New(tsR.URL, WithRetryPolicy(fastRetry(3)))
	deadline := time.Now().Add(15 * time.Second)
	for {
		if replicaClient.Ready(ctx) == nil {
			if _, err := replicaClient.Release(ctx, "ha", rel.ID); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("replica never became ready with the release")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		if _, err := cc.Query(ctx, "ha", rel.ID, QueryRequest{Queries: [][]float64{{0.1, 0.1, 0.9, 0.9}}}); err != nil {
			t.Fatalf("cluster read %d: %v", i, err)
		}
	}

	// Kill the primary and promote the replica. The next write through
	// the SAME cluster client must fail over: the dead endpoint yields a
	// transport error, the cursor advances, and the promoted node serves
	// the write.
	tsP.CloseClientConnections()
	tsP.Close()
	if _, err := replicaClient.Promote(ctx); err != nil {
		t.Fatalf("promote: %v", err)
	}
	rel2, err := cc.CreateRelease(ctx, "ha", ReleaseParams{Epsilon: 0.25, Seed: 43})
	if err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	if rel2.EpsilonSpent != 0.75 {
		t.Fatalf("post-failover spent = %v, want 0.75 (history continued)", rel2.EpsilonSpent)
	}
	// Reads keep working (degraded: one node down, round-robin retries
	// onto the live one).
	if _, err := cc.Query(ctx, "ha", rel2.ID, QueryRequest{Queries: [][]float64{{0.2, 0.2, 0.8, 0.8}}}); err != nil {
		t.Fatalf("post-failover read: %v", err)
	}

	// Promote on a cluster client is refused — it targets one node.
	if _, err := cc.Promote(ctx); err == nil {
		t.Fatal("cluster client Promote succeeded")
	}
	_ = primary
}

// TestClusterStreamIngestFailover proves ingest is classified as a
// write: batches route to the sticky primary (bouncing off the replica's
// read_only rejection), replays of an explicit batch sequence dedup
// server-side, the replica's latest window converges bit-identically to
// the primary's, and after failover the same client keeps ingesting with
// the epoch history and ε accounting intact.
func TestClusterStreamIngestFailover(t *testing.T) {
	_, _, tsP, tsR := clusterPair(t)
	ctx := context.Background()

	// Replica FIRST: the initial ingest must advance off it.
	cc, err := NewCluster([]string{tsR.URL, tsP.URL}, WithRetryPolicy(fastRetry(4)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cc.Register(ctx, RegisterRequest{
		Name: "sw", Epsilon: 1.0,
		Domain: &Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}},
		Stream: &StreamSpec{EpochEpsilon: 0.125, Window: 2, Seed: 7},
	})
	if err != nil {
		t.Fatalf("register streaming dataset: %v", err)
	}

	pts := clusterPoints(90)
	seq := uint64(0)
	ingest := func(c *Client, batch [][]float64, seal bool) *IngestResult {
		t.Helper()
		seq++
		res, err := c.Ingest(ctx, "sw", IngestRequest{BatchSeq: seq, Points: batch, Seal: seal})
		if err != nil {
			t.Fatalf("ingest batch %d: %v", seq, err)
		}
		return res
	}

	res := ingest(cc, pts[:30], true)
	if !res.Sealed || res.Epoch != 1 || res.EpsilonSpent != 0.125 {
		t.Fatalf("first seal ack = %+v", res)
	}
	// Replay the same batch sequence: acked as a duplicate, nothing applied.
	dup, err := cc.Ingest(ctx, "sw", IngestRequest{BatchSeq: seq, Points: pts[:30]})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Duplicate || dup.Applied != 0 {
		t.Fatalf("replayed batch ack = %+v, want duplicate with nothing applied", dup)
	}

	ingest(cc, pts[30:60], true)
	res = ingest(cc, pts[60:], true)
	if res.Epoch != 3 || res.LastEpoch != 3 {
		t.Fatalf("third seal ack = %+v", res)
	}
	// Window of 2: composed window ε stays at 2×0.125 while total spend is 3×0.125.
	if res.WindowEpsilon != 0.25 || res.EpsilonSpent != 0.375 {
		t.Fatalf("after 3 seals: window ε=%v spent=%v, want 0.25 / 0.375", res.WindowEpsilon, res.EpsilonSpent)
	}

	// Wait for the replica's window to reach epoch 3, then the latest
	// alias must answer bit-identically on both nodes.
	pc := New(tsP.URL, WithRetryPolicy(fastRetry(3)))
	rc := New(tsR.URL, WithRetryPolicy(fastRetry(3)))
	deadline := time.Now().Add(15 * time.Second)
	for {
		info, err := rc.Dataset(ctx, "sw")
		if err == nil && info.Stream != nil && info.Stream.LastEpoch == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never reached epoch 3 (info err=%v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	q := QueryRequest{Queries: [][]float64{{0, 0, 1, 1}, {0.25, 0.25, 0.75, 0.75}, {0.1, 0.6, 0.4, 0.9}}}
	pAns, err := pc.Query(ctx, "sw", "latest", q)
	if err != nil {
		t.Fatal(err)
	}
	rAns, err := rc.Query(ctx, "sw", "latest", q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pAns.Counts {
		if pAns.Counts[i] != rAns.Counts[i] {
			t.Fatalf("latest diverges at query %d: primary %v, replica %v", i, pAns.Counts, rAns.Counts)
		}
	}

	// Failover: kill the primary, promote the replica, keep ingesting
	// through the SAME cluster client.
	tsP.CloseClientConnections()
	tsP.Close()
	if _, err := rc.Promote(ctx); err != nil {
		t.Fatalf("promote: %v", err)
	}
	res = ingest(cc, pts[:30], true)
	if res.Epoch != 4 || res.EpsilonSpent != 0.5 {
		t.Fatalf("post-failover seal ack = %+v, want epoch 4 spent 0.5", res)
	}
}

// TestReadyDistinguishesCatchUp proves Ready reports not_ready (with the
// structured code) for a replica that cannot reach its primary, while
// Health stays fine.
func TestReadyDistinguishesCatchUp(t *testing.T) {
	s, err := server.New(server.Options{
		DataDir: t.TempDir(), Workers: 1,
		ReplicaOf: "http://127.0.0.1:1", ReplicaPoll: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	c := New(ts.URL, WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
	ctx := context.Background()
	err = c.Ready(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != CodeNotReady || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("Ready = %v, want 503 not_ready", err)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("Health on a catching-up replica: %v", err)
	}
}
