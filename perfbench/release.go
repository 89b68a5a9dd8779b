package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"privtree"
	"privtree/client"
	"privtree/internal/synth"
)

// msnbcAlphabet is the symbol count of synth.MSNBCLike.
const msnbcAlphabet = 17

// runRelease is the write-path workload: purchases of fresh releases that
// alternate between a spatial and a sequence dataset, with every 5th
// purchase repeating an earlier (params, seed) pair that must come back
// cached. op is a spatial build, op2 a sequence build. Recovery and
// catch-up run on a copy of the data dir taken right after the snapAt-th
// build, so they replay the same state whatever the build speed.
func runRelease(ctx context.Context, b *bench) error {
	nPts, nSeq, snapAt, rssAt, warmBuilds := 100_000, 100_000, 24, 96, 4
	b.reps, b.setupReps = 4, 5
	if b.toy {
		b.reps, b.setupReps = 2, 2
		nPts, nSeq, snapAt, rssAt, warmBuilds = 5_000, 5_000, 4, 4, 2
	}
	const budget, eps, maxLen, repeatEvery = 1e6, 1.0, 12, 5
	rows := quantize(sample(b, 1, synth.RoadLike(nPts+nPts/4, population()).Points, nPts))
	seqs := make([][]int, nSeq)
	for i, s := range sample(b, 2, synth.MSNBCLike(nSeq+nSeq/4, population()).Seqs, nSeq) {
		seqs[i] = make([]int, len(s.Syms))
		for k, x := range s.Syms {
			seqs[i][k] = int(x)
		}
	}
	evalRects := mixedRects(evalPerClass, b.rng(4))
	seeds := b.rng(5)

	node, c, err := b.setup(ctx, func(ctx context.Context, c *client.Client) error {
		if _, err := c.Register(ctx, client.RegisterRequest{
			Name: "pts", Epsilon: budget, Domain: &client.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}}, Points: rows,
		}); err != nil {
			return err
		}
		_, err := c.Register(ctx, client.RegisterRequest{Name: "seqs", Epsilon: budget, Alphabet: msnbcAlphabet, Sequences: seqs})
		return err
	})
	if err != nil {
		return err
	}

	type purchase struct {
		ds string
		p  client.ReleaseParams
		id string
	}
	var bought []purchase
	spent := map[string]float64{}
	builds, purchases := 0, 0
	// buy makes purchase i: a fresh build, or every repeatEvery-th a
	// repeat of an earlier one that must be served from cache.
	buy := func(i int) (purchase, bool, time.Duration, bool) {
		var pu purchase
		purchases++
		repeat := i%repeatEvery == repeatEvery-1 && len(bought) > 0
		if repeat {
			pu = bought[seeds.IntN(len(bought))]
		} else {
			pu.ds = "pts"
			pu.p = client.ReleaseParams{Epsilon: eps, Seed: seeds.Uint64()}
			if builds%2 == 1 {
				pu.ds, pu.p.MaxLength = "seqs", maxLen
			}
		}
		start := time.Now()
		res, err := c.CreateRelease(ctx, pu.ds, pu.p)
		d := time.Since(start)
		b.sp.record("client.CreateRelease", start, d)
		if err != nil {
			return pu, repeat, d, b.check(false, "purchase %d on %s: %v", i, pu.ds, err)
		}
		want := spent[pu.ds]
		if !repeat {
			want += eps
		}
		if b.wrong && purchases == warmBuilds+1 {
			want++
		}
		ok := b.check(res.Cached == repeat && res.EpsilonSpent == want && (!repeat || res.ID == pu.id),
			"purchase %d on %s: cached %v (want %v), spent ε %v (want %v), id %s (want %s)",
			i, pu.ds, res.Cached, repeat, res.EpsilonSpent, want, res.ID, pu.id)
		// Follow the node's state even past a failed check, so one wrong
		// answer counts once instead of failing every later purchase.
		spent[pu.ds] = res.EpsilonSpent
		if !res.Cached {
			pu.id = res.ID
			bought = append(bought, pu)
			builds++
		}
		return pu, repeat, d, ok
	}
	b.stage("warmup")
	for i := 0; i < warmBuilds; i++ {
		if _, _, _, ok := buy(i * repeatEvery); !ok {
			return fmt.Errorf("warm-up purchase failed")
		}
	}

	p, err := b.beginPhase(ctx, node)
	if err != nil {
		return err
	}
	stats0 := c.Stats()
	var spatial, sequence, cached timer
	var snapState nodeState
	var snapBought []purchase
	snapDir := filepath.Join(b.work, "snapshot")
	for i := 0; ; i++ {
		slice, more, err := p.next()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		pu, repeat, d, ok := buy(i)
		if ok {
			switch {
			case repeat:
				cached.add(slice, d)
			case pu.ds == "pts":
				spatial.add(slice, d)
			default:
				sequence.add(slice, d)
			}
		}
		if !repeat {
			p.work[slice]++
		}
		if builds == rssAt && !b.rssDone {
			if err := p.pause(func() error { return b.recordRSS(node) }); err != nil {
				return err
			}
		}
		if builds == snapAt && snapBought == nil {
			err := p.pause(func() error {
				snapBought = append([]purchase(nil), bought...)
				var err error
				if snapState, err = captureState(ctx, c, []string{"pts", "seqs"}); err != nil {
					return err
				}
				return copyDir(node.dataDir, snapDir)
			})
			if err != nil {
				return err
			}
		}
	}
	if snapBought == nil || !b.rssDone {
		return fmt.Errorf("only %d builds in the timed phase, fewer than the %d the recovery snapshot and the %d the peak RSS need", builds, snapAt, rssAt)
	}
	if err := b.endPhase(ctx, p); err != nil {
		return err
	}
	b.latency(p, &spatial, "op_p50_ms", "op_p90_ms")
	b.latency(p, &sequence, "op2_p50_ms", "")
	b.diag["spatial_builds"], b.diag["sequence_builds"], b.diag["cached_repeats"] = spatial.count(), sequence.count(), cached.count()
	for _, ds := range []string{"pts", "seqs"} {
		info, err := c.Dataset(ctx, ds)
		if !b.check(err == nil && info.EpsilonSpent == spent[ds], "dataset %s: node spent ε differs from the sum of purchases %v (err %v)", ds, spent[ds], err) {
			return err
		}
	}
	if err := b.storeKB(node.dataDir, 2+builds+cached.count()); err != nil {
		return err
	}
	if b.traced {
		b.commonLayers(p, c, stats0)
		b.releaseLayers(p, spatial.total()+sequence.total()+cached.total())
	}

	if err := b.stop(node); err != nil {
		return err
	}
	verify := func(ctx context.Context, c *client.Client) error {
		st, err := captureState(ctx, c, []string{"pts", "seqs"})
		if err != nil {
			return err
		}
		return sameState(snapState, st)
	}
	node, c, err = b.recoverAndCatchUp(ctx, snapDir, verify)
	if err != nil {
		return err
	}
	exact, deltaN, err := exactCounts(toPoints(rows), evalRects)
	if err != nil {
		return err
	}
	var errs []float64
	var envelopes [][]byte
	for _, pu := range snapBought {
		if pu.ds != "pts" {
			continue
		}
		res, err := c.Query(ctx, "pts", pu.id, client.QueryRequest{Queries: flatRects(evalRects)})
		if !b.check(err == nil, "accuracy query on %s: %v", pu.id, err) {
			return err
		}
		errs = append(errs, meanRelError(res.Counts, exact, deltaN))
	}
	b.e2e["rel_error"] = mean(errs)
	if b.traced {
		for _, pu := range snapBought {
			_, env, err := b.decode(ctx, c, pu.ds, pu.id)
			if err != nil {
				return err
			}
			envelopes = append(envelopes, env)
		}
	}
	if err := b.stop(node); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	b.stage("in_process")
	if err := b.openSessionCopies(snapDir, []string{"pts", "seqs"}, budget); err != nil {
		return err
	}
	b.envelopeLayers(envelopes)
	// The same builds in process, on the same data and params.
	pts := toPoints(rows)
	pseqs := make([]privtree.Sequence, len(seqs))
	for i, s := range seqs {
		pseqs[i] = s
	}
	for _, pu := range snapBought {
		start := time.Now()
		if pu.ds == "pts" {
			_, err = privtree.BuildSpatial(privtree.UnitCube(2), pts, eps, privtree.SpatialOptions{Seed: pu.p.Seed})
			b.sp.record("privtree.BuildSpatial", start, time.Since(start))
		} else {
			_, err = privtree.BuildSequenceModel(msnbcAlphabet, pseqs, eps, privtree.SequenceOptions{Seed: pu.p.Seed, MaxLength: maxLen})
			b.sp.record("privtree.BuildSequenceModel", start, time.Since(start))
		}
		if err != nil {
			return err
		}
	}
	b.layerSpans("core.build_spatial_ms", "privtree.BuildSpatial")
	b.layerSpans("markov.build_sequence_ms", "privtree.BuildSequenceModel")
	return nil
}

// releaseLayers reads the create-release route and its build stages.
func (b *bench) releaseLayers(p *phase, clientMS float64) {
	stage := func(s string) (float64, float64) {
		lbl := "{stage=" + s + "}"
		return delta(p.before, p.after, "privtree_build_stage_seconds_count"+lbl),
			delta(p.before, p.after, "privtree_build_stage_seconds_sum"+lbl) * 1e3
	}
	reqs := delta(p.before, p.after, "privtree_http_request_seconds_count{route=create_release}")
	handler := delta(p.before, p.after, "privtree_http_request_seconds_sum{route=create_release}") * 1e3
	b.layerMean("server.release.handler_ms", "Δprivtree_http_request_seconds{route=create_release}", reqs, handler, nil)
	parts := map[string]float64{"client.release.wire": clientMS - handler}
	for _, s := range []struct{ stage, metric string }{
		{"debit", "privtree.release.debit_ms"},
		{"wal_debit", "store.release.wal_debit_ms"},
		{"build", "core.release.build_ms"},
		{"envelope", "privtree.release.envelope_ms"},
		{"wal_commit", "store.release.wal_commit_ms"},
	} {
		n, busy := stage(s.stage)
		b.layerMean(s.metric, "Δprivtree_build_stage_seconds{stage="+s.stage+"}", n, busy, nil)
		parts[s.metric] = busy
	}
	b.routeSplit("create_release", clientMS, parts, "create_release.unattributed_ms", reqs)
	hits := delta(p.before, p.after, "privtree_release_cache_hits_total")
	built := delta(p.before, p.after, "privtree_releases_built_total")
	if hits+built > 0 {
		b.layerValue("privtree.session.cache_hit_ratio", "Δcache hits ÷ (Δhits + Δreleases built)", hits/(hits+built))
	}
}
