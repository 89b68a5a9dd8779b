package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"privtree"
	"privtree/client"
	"privtree/internal/geom"
	"privtree/internal/stream"
	"privtree/internal/synth"
)

// runStream is the many-small-writes workload: fixed-size point batches,
// every sealEvery-th one sealing an epoch, and after each seal one small
// rectangle batch against the releases/latest window. op is a
// non-sealing ingest batch; op2 is a sealing batch plus the window read
// that follows it. No timer seals: the dataset has no interval_ms and no
// seal_every, so the benchmark alone decides when work happens.
func runStream(ctx context.Context, b *bench) error {
	batchSize, sealEvery, window, snapAt, rssAt, readRects, poolN := 1000, 10, 8, 64, 256, 32, 400_000
	warmEpochs := 3
	b.reps, b.setupReps = 5, 15
	if b.toy {
		b.reps, b.setupReps = 2, 2
		snapAt, rssAt, poolN, warmEpochs = 10, 10, 20_000, 1
	}
	const budget, epochEps = 1e6, 0.5
	pool := quantize(sample(b, 1, synth.GowallaLike(poolN, population()).Points, poolN))
	baseSeed := b.rng(2).Uint64()
	readPool := mixedRects(64, b.rng(3))
	evalRects := mixedRects(evalPerClass, b.rng(4))

	node, c, err := b.setup(ctx, func(ctx context.Context, c *client.Client) error {
		_, err := c.Register(ctx, client.RegisterRequest{
			Name: "live", Epsilon: budget, Domain: &client.Rect{Lo: []float64{0, 0}, Hi: []float64{1, 1}},
			Stream: &client.StreamSpec{EpochEpsilon: epochEps, Window: window, Seed: baseSeed},
		})
		return err
	})
	if err != nil {
		return err
	}

	// batch j carries pool points [j·B, (j+1)·B) modulo the pool.
	batchRows := func(j int) [][]float64 {
		off := (j * batchSize) % (len(pool) - batchSize)
		return pool[off : off+batchSize]
	}
	type read struct {
		epoch uint64 // newest epoch of the window the read saw
		rects int    // offset into readPool
		got   []float64
	}
	var (
		epochIDs []string // release ID of epoch e at index e-1
		reads    []read
		pending  int
		batches  int
		readSeq  int
	)
	// ingest sends batch number batches+1; it seals when seal is set.
	ingest := func(seal bool) (time.Duration, bool) {
		rows := batchRows(batches)
		batches++
		start := time.Now()
		res, err := c.Ingest(ctx, "live", client.IngestRequest{BatchSeq: uint64(batches), Points: rows, Seal: seal})
		d := time.Since(start)
		b.sp.record("client.Ingest", start, d)
		if err != nil {
			return d, b.check(false, "ingest batch %d: %v", batches, err)
		}
		wantPending, epochs := pending+len(rows), len(epochIDs)
		if seal {
			wantPending, epochs = 0, epochs+1
		}
		inWindow := min(epochs, window)
		wantSpent := float64(epochs) * epochEps
		if b.wrong && batches == warmEpochs*sealEvery+1 {
			wantSpent++
		}
		ok := res.Applied == len(rows) && !res.Duplicate && res.Pending == wantPending &&
			res.LastEpoch == uint64(epochs) && res.Sealed == seal && res.SealError == "" &&
			res.WindowEpsilon == float64(inWindow)*epochEps && res.WindowEpsilon <= float64(window)*epochEps &&
			res.EpsilonSpent == wantSpent
		ok = b.check(ok, "ingest batch %d: applied %d pending %d last_epoch %d sealed %v window_epsilon %v spent %v (%s)",
			batches, res.Applied, res.Pending, res.LastEpoch, res.Sealed, res.WindowEpsilon, res.EpsilonSpent, res.SealError)
		// Follow the node's state even past a failed check, so one wrong
		// answer counts once instead of failing every later batch.
		pending = res.Pending
		if res.Sealed {
			epochIDs = append(epochIDs, res.ReleaseID)
		}
		return d, ok
	}
	// latest reads readRects rectangles from the window after a seal; the
	// answers are checked against the decoded epochs after the timed phase.
	latest := func() (time.Duration, bool) {
		off := (readSeq * readRects) % (len(readPool) - readRects)
		readSeq++
		start := time.Now()
		res, err := c.Query(ctx, "live", "latest", client.QueryRequest{Queries: flatRects(readPool[off : off+readRects])})
		d := time.Since(start)
		b.sp.record("client.Query", start, d)
		if err != nil {
			return d, b.check(false, "latest read after epoch %d: %v", len(epochIDs), err)
		}
		reads = append(reads, read{epoch: uint64(len(epochIDs)), rects: off, got: res.Counts})
		return d, true
	}
	b.stage("warmup")
	for e := 0; e < warmEpochs; e++ {
		for k := 1; k <= sealEvery; k++ {
			if _, ok := ingest(k == sealEvery); !ok {
				return fmt.Errorf("warm-up ingest failed")
			}
		}
		if _, ok := latest(); !ok {
			return fmt.Errorf("warm-up read failed")
		}
	}
	reads = reads[:0]

	p, err := b.beginPhase(ctx, node)
	if err != nil {
		return err
	}
	stats0 := c.Stats()
	var plain, sealed, readT timer
	var snapState nodeState
	var snapEpochs []string
	snapDir := filepath.Join(b.work, "snapshot")
	firstBatch := batches
	for k := 1; ; k++ {
		slice, more, err := p.next()
		if err != nil {
			return err
		}
		if !more {
			break
		}
		seal := k%sealEvery == 0
		d, ok := ingest(seal)
		if !ok {
			continue
		}
		p.work[slice] += float64(batchSize)
		if !seal {
			plain.add(slice, d)
			continue
		}
		rd, ok := latest()
		if ok {
			sealed.add(slice, d+rd)
			readT.add(slice, rd)
		}
		if len(epochIDs) == rssAt && !b.rssDone {
			if err := p.pause(func() error { return b.recordRSS(node) }); err != nil {
				return err
			}
		}
		if len(epochIDs) == snapAt {
			err := p.pause(func() error {
				snapEpochs = append([]string(nil), epochIDs...)
				var err error
				if snapState, err = captureState(ctx, c, []string{"live"}); err != nil {
					return err
				}
				return copyDir(node.dataDir, snapDir)
			})
			if err != nil {
				return err
			}
		}
	}
	if snapEpochs == nil || !b.rssDone {
		return fmt.Errorf("only %d epochs sealed, fewer than the %d the recovery snapshot and the %d the peak RSS need", len(epochIDs), snapAt, rssAt)
	}
	if err := b.endPhase(ctx, p); err != nil {
		return err
	}
	b.latency(p, &plain, "op_p50_ms", "op_p90_ms")
	b.latency(p, &sealed, "op2_p50_ms", "")
	b.diag["plain_batches"], b.diag["seals"] = plain.count(), sealed.count()
	if err := b.storeKB(node.dataDir, 1+batches); err != nil {
		return err
	}
	if b.traced {
		b.commonLayers(p, c, stats0)
		b.streamLayers(p, plain.total()+sealed.total()-readT.total(), readT.total())
	}

	// Every window read must equal, bit for bit, the sum over the window's
	// epochs of the decoded envelopes' answers, summed oldest first as the
	// node does.
	b.stage("verify")
	trees := make([]*privtree.Release, len(epochIDs))
	var envelopes [][]byte
	for i, id := range epochIDs {
		rel, env, err := b.decode(ctx, c, "live", id)
		if err != nil {
			return err
		}
		trees[i], envelopes = rel, append(envelopes, env)
	}
	for _, r := range reads {
		lo := max(0, int(r.epoch)-window)
		want := make([]float64, readRects)
		for qi, q := range readPool[r.rects : r.rects+readRects] {
			for _, t := range trees[lo:r.epoch] {
				start := time.Now()
				want[qi] += t.RangeCount(q)
				b.sp.record("Release.RangeCount", start, time.Since(start))
			}
		}
		b.check(sameFloats(r.got, want), "latest read at epoch %d differs from the decoded window", r.epoch)
	}

	if err := b.stop(node); err != nil {
		return err
	}
	verify := func(ctx context.Context, c *client.Client) error {
		st, err := captureState(ctx, c, []string{"live"})
		if err != nil {
			return err
		}
		if err := sameState(snapState, st); err != nil {
			return err
		}
		info, err := c.Dataset(ctx, "live")
		if err != nil {
			return err
		}
		s := info.Stream
		if s == nil || s.Pending != 0 || s.LastEpoch != uint64(snapAt) || s.WindowEpsilon != float64(window)*epochEps {
			return fmt.Errorf("stream status %+v, want pending 0, last_epoch %d, window_epsilon %v", s, snapAt, float64(window)*epochEps)
		}
		return nil
	}
	node, c, err = b.recoverAndCatchUp(ctx, snapDir, verify)
	if err != nil {
		return err
	}
	// Accuracy over every full window up to the snapshot, from the node's
	// per-epoch answers summed oldest first as the latest alias sums them.
	perEpoch := make([][]float64, len(snapEpochs))
	for e, id := range snapEpochs {
		res, err := c.Query(ctx, "live", id, client.QueryRequest{Queries: flatRects(evalRects)})
		if !b.check(err == nil, "accuracy query on epoch %d: %v", e+1, err) {
			return err
		}
		perEpoch[e] = res.Counts
	}
	var relErrs []float64
	for last := window; last <= snapAt; last++ {
		var winPts []geom.Point
		for j := (last - window) * sealEvery; j < last*sealEvery; j++ {
			for _, r := range batchRows(j) {
				winPts = append(winPts, geom.Point(r))
			}
		}
		exact, deltaN, err := exactCounts(winPts, evalRects)
		if err != nil {
			return err
		}
		got := make([]float64, len(evalRects))
		for _, ans := range perEpoch[last-window : last] {
			for q := range got {
				got[q] += ans[q]
			}
		}
		relErrs = append(relErrs, meanRelError(got, exact, deltaN))
	}
	b.e2e["rel_error"] = mean(relErrs)
	if err := b.stop(node); err != nil {
		return err
	}
	if !b.traced {
		return nil
	}
	b.stage("in_process")
	if err := b.openSessionCopies(snapDir, []string{"live"}, budget); err != nil {
		return err
	}
	b.envelopeLayers(envelopes)
	b.layerSpans("privtree.range_count_us", "Release.RangeCount")
	// The timed batches again, in process: Stream.AppendPoints per batch,
	// Stream.Seal + Mechanism.Run per epoch.
	st, err := privtree.NewSpatialStream(privtree.UnitCube(2))
	if err != nil {
		return err
	}
	for j := firstBatch; j < batches; j++ {
		rows := batchRows(j)
		start := time.Now()
		err := st.AppendPoints(toPoints(rows))
		b.sp.record("Stream.AppendPoints", start, time.Since(start))
		if err != nil {
			return err
		}
		if (j+1)%sealEvery != 0 {
			continue
		}
		epoch := uint64((j + 1) / sealEvery)
		start = time.Now()
		data, err := st.Seal()
		if err == nil {
			var m *privtree.Mechanism
			if m, err = privtree.NewSpatialMechanism(privtree.SpatialOptions{Seed: stream.DeriveSeed(baseSeed, epoch)}); err == nil {
				_, err = m.Run(data, epochEps)
			}
		}
		b.sp.record("Stream.Seal+Mechanism.Run", start, time.Since(start))
		if err != nil {
			return err
		}
	}
	b.layerSpans("privtree.stream.append_us", "Stream.AppendPoints")
	b.layerSpans("privtree.stream.seal_ms", "Stream.Seal+Mechanism.Run")
	return nil
}

// streamLayers reads the ingest and query routes and the seal stages.
func (b *bench) streamLayers(p *phase, ingestMS, readMS float64) {
	hist := func(key string) (float64, float64) {
		return delta(p.before, p.after, "privtree_build_stage_seconds_count{stage="+key+"}"),
			delta(p.before, p.after, "privtree_build_stage_seconds_sum{stage="+key+"}") * 1e3
	}
	reqs := delta(p.before, p.after, "privtree_http_request_seconds_count{route=ingest}")
	handler := delta(p.before, p.after, "privtree_http_request_seconds_sum{route=ingest}") * 1e3
	b.layerMean("server.ingest.handler_ms", "Δprivtree_http_request_seconds{route=ingest}", reqs, handler, nil)
	parts := map[string]float64{"client.ingest.wire": ingestMS - handler}
	n, busy := hist("ingest.append")
	b.layerMean("server.ingest.append_ms", "Δprivtree_build_stage_seconds{stage=ingest.append}", n, busy, nil)
	parts["server.ingest.append_ms"] = busy
	n, busy = hist("journal.fsync")
	b.layerMean("store.journal_fsync_ms", "Δprivtree_build_stage_seconds{stage=journal.fsync} (inside ingest.append)", n, busy, nil)
	for _, s := range []string{"debit", "wal_debit", "build", "envelope", "wal_commit", "wal"} {
		n, busy := hist("seal." + s)
		metric := "server.seal." + s + "_ms"
		b.layerMean(metric, "Δprivtree_build_stage_seconds{stage=seal."+s+"}", n, busy, nil)
		parts[metric] = busy
	}
	b.routeSplit("ingest", ingestMS, parts, "ingest.unattributed_ms", reqs)

	qreqs := delta(p.before, p.after, "privtree_http_request_seconds_count{route=query}")
	qhandler := delta(p.before, p.after, "privtree_http_request_seconds_sum{route=query}") * 1e3
	answer := delta(p.before, p.after, "privtree_query_nanos_total") / 1e6
	b.layerMean("server.query.handler_ms", "Δprivtree_http_request_seconds{route=query}", qreqs, qhandler, nil)
	b.layerMean("client.query.wire_ms", "client read time − server.query.handler_ms", qreqs, readMS-qhandler, nil)
	b.layerMean("core.query.answer_us", "Δprivtree_query_nanos_total ÷ Δprivtree_queries_answered_total",
		delta(p.before, p.after, "privtree_queries_answered_total"), answer, nil)
	b.routeSplit("query", readMS, map[string]float64{"client.query.wire_ms": readMS - qhandler, "core.query.answer": answer},
		"query.unattributed_ms", qreqs)
}
