package main

import (
	"context"
	"fmt"
	"time"

	"privtree"
	"privtree/client"
	"privtree/internal/synth"
)

// runQuery is the read-path workload: one large release, then batches of
// mixed-size range rectangles. Every 8th request is a single rectangle,
// the per-request overhead with almost no range-count work (op2). After
// the timing, accReleases-1 more releases are bought so that rel_error
// averages over accReleases noise draws instead of one.
func runQuery(ctx context.Context, b *bench) error {
	const accReleases = 4
	n, batch, poolBatches, relRects := 1_000_000, 256, 64, evalPerClass
	warm := time.Second
	b.reps, b.setupReps = 4, 3
	if b.toy {
		b.reps, b.setupReps = 2, 2
		n, poolBatches, relRects, warm = 20_000, 8, 20, 200*time.Millisecond
	}
	rows := quantize(sample(b, 1, synth.RoadLike(n+n/4, population()).Points, n))
	relSeeds := b.rng(2)
	relSeed := relSeeds.Uint64()
	pool := mixedRects((poolBatches*batch+2)/3, b.rng(3))[:poolBatches*batch]
	evalRects := mixedRects(relRects, b.rng(4))

	var relID string
	node, c, err := b.setup(ctx, func(ctx context.Context, c *client.Client) error {
		if _, err := c.Register(ctx, client.RegisterRequest{
			Name: "road", Epsilon: accReleases, Domain: &client.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}, Points: rows,
		}); err != nil {
			return err
		}
		res, err := c.CreateRelease(ctx, "road", client.ReleaseParams{Epsilon: 1, Seed: relSeed})
		if err != nil {
			return err
		}
		relID = res.ID
		return nil
	})
	if err != nil {
		return err
	}
	setupState, err := captureState(ctx, c, []string{"road"})
	if err != nil {
		return err
	}
	b.check(setupState.spent["road"] == 1, "spent ε after set-up %v, want 1", setupState.spent["road"])

	// Expected answers come from the node's own envelope, decoded in
	// process: every served answer must match them bit for bit.
	rel, env, err := b.decode(ctx, c, "road", relID)
	if err != nil {
		return err
	}
	b.diag["release_nodes"] = nodesOf(rel)
	expected := make([]float64, len(pool))
	for i, q := range pool {
		expected[i] = rel.RangeCount(q)
	}
	if b.wrong {
		expected[0]++
	}
	bodies := make([][][]float64, poolBatches)
	for i := range bodies {
		bodies[i] = flatRects(pool[i*batch : (i+1)*batch])
	}

	// one sends request i; warm-up requests (count false) are not checked.
	one := func(i int, count bool) (int, time.Duration, bool) {
		var q client.QueryRequest
		var want []float64
		if i%8 == 7 {
			j := (i / 8) % len(pool)
			q.Queries, want = flatRects(pool[j:j+1]), expected[j:j+1]
		} else {
			j := i % poolBatches
			q.Queries, want = bodies[j], expected[j*batch:(j+1)*batch]
		}
		start := time.Now()
		res, err := c.Query(ctx, "road", relID, q)
		d := time.Since(start)
		if !count {
			return 0, d, err == nil
		}
		b.sp.record("client.Query", start, d)
		ok := b.check(err == nil && sameFloats(res.Counts, want), "query %d: answers differ from the decoded envelope (err %v)", i, err)
		return len(want), d, ok
	}
	b.stage("warmup")
	for start, i := time.Now(), 0; time.Since(start) < warm; i++ {
		one(i, false)
	}

	p, err := b.beginPhase(ctx, node)
	if err != nil {
		return err
	}
	stats0 := c.Stats()
	var batches, singles timer
	for i := 0; ; i++ {
		slice, more, err := p.next()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		k, d, ok := one(i, true)
		if !ok {
			continue
		}
		p.work[slice] += float64(k)
		if k == 1 {
			singles.add(slice, d)
		} else {
			batches.add(slice, d)
		}
	}
	if err := b.endPhase(ctx, p); err != nil {
		return err
	}
	if err := b.recordRSS(node); err != nil {
		return err
	}
	b.latency(p, &batches, "op_p50_ms", "op_p90_ms")
	b.latency(p, &singles, "op2_p50_ms", "")
	b.diag["batches"], b.diag["singles"] = batches.count(), singles.count()
	if err := b.storeKB(node.dataDir, 2); err != nil {
		return err
	}
	if b.traced {
		b.commonLayers(p, c, stats0)
		reqs := delta(p.before, p.after, "privtree_http_request_seconds_count{route=query}")
		handler := delta(p.before, p.after, "privtree_http_request_seconds_sum{route=query}") * 1e3
		answer := delta(p.before, p.after, "privtree_query_nanos_total") / 1e6
		answered := delta(p.before, p.after, "privtree_queries_answered_total")
		clientMS := batches.total() + singles.total()
		b.layerMean("server.query.handler_ms", "Δprivtree_http_request_seconds{route=query}", reqs, handler, nil)
		b.layerMean("client.query.wire_ms", "client batch time − server.query.handler_ms", reqs, clientMS-handler, nil)
		b.layerMean("core.query.answer_us", "Δprivtree_query_nanos_total ÷ Δprivtree_queries_answered_total", answered, answer, nil)
		b.routeSplit("query", clientMS, map[string]float64{
			"client.query.wire_ms": clientMS - handler, "core.query.answer": answer,
		}, "query.unattributed_ms", reqs)
	}

	// After the timed phase: restarts, replicas, accuracy and the traced
	// in-process layer calls.
	if err := b.stop(node); err != nil {
		return err
	}
	verify := func(ctx context.Context, c *client.Client) error {
		st, err := captureState(ctx, c, []string{"road"})
		if err != nil {
			return err
		}
		return sameState(setupState, st)
	}
	node, c, err = b.recoverAndCatchUp(ctx, node.dataDir, verify)
	if err != nil {
		return err
	}
	exact, deltaN, err := exactCounts(toPoints(rows), evalRects)
	if err != nil {
		return err
	}
	var relErrs []float64
	for k := 0; k < accReleases; k++ {
		id := relID
		if k > 0 {
			res, err := c.CreateRelease(ctx, "road", client.ReleaseParams{Epsilon: 1, Seed: relSeeds.Uint64()})
			if !b.check(err == nil && !res.Cached && res.EpsilonSpent == float64(k+1),
				"accuracy release %d: %v", k+1, err) {
				return fmt.Errorf("accuracy release %d failed", k+1)
			}
			id = res.ID
		}
		res, err := c.Query(ctx, "road", id, client.QueryRequest{Queries: flatRects(evalRects)})
		if !b.check(err == nil, "accuracy query: %v", err) {
			return err
		}
		relErrs = append(relErrs, meanRelError(res.Counts, exact, deltaN))
	}
	b.e2e["rel_error"] = mean(relErrs)
	if err := b.stop(node); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	b.stage("in_process")
	if err := b.openSessionCopies(node.dataDir, []string{"road"}, accReleases); err != nil {
		return err
	}
	b.envelopeLayers([][]byte{env})
	for _, q := range pool {
		start := time.Now()
		rel.RangeCount(q)
		b.sp.record("Release.RangeCount", start, time.Since(start))
	}
	b.layerSpans("privtree.range_count_us", "Release.RangeCount")
	pts := toPoints(rows)
	start := time.Now()
	tree, err := privtree.BuildSpatial(privtree.UnitCube(2), pts, 1, privtree.SpatialOptions{Seed: relSeed})
	b.sp.record("privtree.BuildSpatial", start, time.Since(start))
	if err != nil {
		return err
	}
	b.check(tree.Nodes() == nodesOf(rel), "in-process build has %d nodes, the node's release %d", tree.Nodes(), nodesOf(rel))
	b.layerSpans("core.build_spatial_ms", "privtree.BuildSpatial")
	return nil
}

// nodesOf is the node count of a spatial release (0 for other kinds).
func nodesOf(r *privtree.Release) int {
	if t, ok := r.Spatial(); ok {
		return t.Nodes()
	}
	return 0
}
