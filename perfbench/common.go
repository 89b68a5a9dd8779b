package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"privtree"
	"privtree/client"
	"privtree/internal/dataset"
	"privtree/internal/geom"
	"privtree/internal/workload"
)

var workloads = map[string]func(context.Context, *bench) error{
	"query":   runQuery,
	"release": runRelease,
	"stream":  runStream,
}

// rng derives an independent generator for one input stream of the run.
func (b *bench) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(b.seed, stream))
}

// populationSeed fixes the synthetic populations the workloads sample
// from. The workload seed picks which records a run sends and in which
// order, so every seed sees the same data distribution and the spread
// across seeds measures the system, not differences between datasets.
const populationSeed = 0x5eed

// population is the generator every synthetic population is drawn from.
func population() *rand.Rand { return rand.New(rand.NewPCG(populationSeed, 0)) }

// sample returns n distinct records of pop in an order chosen by the
// workload seed and the given stream.
func sample[T any](b *bench, stream uint64, pop []T, n int) []T {
	out := make([]T, n)
	for i, j := range b.rng(stream).Perm(len(pop))[:n] {
		out[i] = pop[j]
	}
	return out
}

// quantize rounds coordinates down to a 1e-6 grid, so the inline JSON
// stays compact; points remain inside [0,1)^d.
func quantize(pts []geom.Point) [][]float64 {
	out := make([][]float64, len(pts))
	for i, p := range pts {
		q := make([]float64, len(p))
		for j, x := range p {
			q[j] = math.Floor(x*1e6) / 1e6
		}
		out[i] = q
	}
	return out
}

func toPoints(rows [][]float64) []privtree.Point {
	out := make([]privtree.Point, len(rows))
	for i, r := range rows {
		out[i] = privtree.Point(r)
	}
	return out
}

// evalPerClass is how many rectangles per §6.1 size class rel_error
// averages over.
const evalPerClass = 1000

// mixedRects draws count rectangles per §6.1 size class (small, medium,
// large), interleaved so every slice of the result mixes the classes.
func mixedRects(count int, rng *rand.Rand) []geom.Rect {
	dom := geom.UnitCube(2)
	var classes [3][]geom.Rect
	for c := range classes {
		classes[c] = workload.Queries(dom, workload.SizeClass(c), count, rng)
	}
	out := make([]geom.Rect, 0, 3*count)
	for i := 0; i < count; i++ {
		for c := range classes {
			out = append(out, classes[c][i])
		}
	}
	return out
}

// flatRects renders rectangles as the query API's lo...hi rows.
func flatRects(rs []geom.Rect) [][]float64 {
	out := make([][]float64, len(rs))
	for i, r := range rs {
		out[i] = append(append([]float64{}, r.Lo...), r.Hi...)
	}
	return out
}

// exactCounts returns the true answers for rects over points, and the
// §6.1 smoothing Δ = 0.1%·n.
func exactCounts(points []geom.Point, rects []geom.Rect) ([]float64, float64, error) {
	ds, err := dataset.NewSpatial(geom.UnitCube(2), points)
	if err != nil {
		return nil, 0, err
	}
	ev := workload.NewEvaluator(dataset.NewGridIndex(ds, 256), rects)
	out := make([]float64, len(rects))
	for i := range rects {
		out[i] = ev.Exact(i)
	}
	return out, ev.Delta, nil
}

// meanRelError is the mean §6.1 relative error of got against exact.
func meanRelError(got, exact []float64, delta float64) float64 {
	var s float64
	for i := range got {
		s += workload.RelativeError(got[i], exact[i], delta)
	}
	return s / float64(len(got))
}

// decode fetches one committed envelope and decodes it in process; the
// decode is a span in traced runs.
func (b *bench) decode(ctx context.Context, c *client.Client, ds, id string) (*privtree.Release, []byte, error) {
	art, err := c.Release(ctx, ds, id)
	if err != nil {
		return nil, nil, fmt.Errorf("fetching %s/%s: %w", ds, id, err)
	}
	start := time.Now()
	rel, err := privtree.Decode(art.Payload)
	b.sp.record("privtree.Decode", start, time.Since(start))
	if err != nil {
		return nil, nil, fmt.Errorf("decoding %s/%s: %w", ds, id, err)
	}
	return rel, art.Payload, nil
}

// nodeState is what must survive a restart and reach a replica: spent ε,
// release IDs and the bytes of every envelope.
type nodeState struct {
	spent map[string]float64
	ids   map[string][]string
	sha   map[string]string // "dataset/id" → envelope SHA-256
}

func captureState(ctx context.Context, c *client.Client, names []string) (nodeState, error) {
	st := nodeState{spent: map[string]float64{}, ids: map[string][]string{}, sha: map[string]string{}}
	for _, name := range names {
		info, err := c.Dataset(ctx, name)
		if err != nil {
			return st, fmt.Errorf("dataset %s: %w", name, err)
		}
		st.spent[name] = info.EpsilonSpent
		for _, r := range info.Releases {
			st.ids[name] = append(st.ids[name], r.ID)
			art, err := c.Release(ctx, name, r.ID)
			if err != nil {
				return st, fmt.Errorf("release %s/%s: %w", name, r.ID, err)
			}
			h := sha256.Sum256(art.Payload)
			st.sha[name+"/"+r.ID] = hex.EncodeToString(h[:])
		}
		sort.Strings(st.ids[name])
	}
	return st, nil
}

// sameState compares two captured states field by field.
func sameState(a, b nodeState) error {
	for name, s := range a.spent {
		if b.spent[name] != s {
			return fmt.Errorf("dataset %s: spent ε %v, want %v", name, b.spent[name], s)
		}
		if fmt.Sprint(a.ids[name]) != fmt.Sprint(b.ids[name]) {
			return fmt.Errorf("dataset %s: release IDs %v, want %v", name, b.ids[name], a.ids[name])
		}
	}
	for k, h := range a.sha {
		if b.sha[k] != h {
			return fmt.Errorf("release %s: envelope bytes changed", k)
		}
	}
	if len(a.sha) != len(b.sha) {
		return fmt.Errorf("%d envelopes, want %d", len(b.sha), len(a.sha))
	}
	return nil
}

// setup brings a workload up several times on fresh data dirs and keeps
// the last one running; setup_s is the median, node.boot_ms the mean of
// the exec → /healthz times inside it.
func (b *bench) setup(ctx context.Context, fn func(context.Context, *client.Client) error) (*node, *client.Client, error) {
	b.stage("setup")
	defer b.sp.end()
	var total, boot []float64
	for i := 0; i < b.setupReps; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("primary-%d", i))
		start := time.Now()
		n, d, err := b.start(dir, "/healthz")
		if err != nil {
			return nil, nil, err
		}
		c := client.New(n.base)
		if err := fn(ctx, c); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		total = append(total, time.Since(start).Seconds())
		boot = append(boot, ms(d))
		if i == b.setupReps-1 {
			b.e2e["setup_s"] = median(total)
			b.diag["setup_s_samples"] = total
			b.layerMean("node.boot_ms", "exec → /healthz on an empty data dir", float64(len(boot)), sum(boot), nil)
			return n, c, nil
		}
		if err := b.stop(n); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
	panic("unreachable")
}

// recordRSS sets node_rss_mb to the primary's peak RSS so far. Workloads
// call it after a fixed amount of work, so the figure does not grow with
// the number of operations a faster node fits into the timed phase.
func (b *bench) recordRSS(n *node) error {
	rss, err := n.peakRSSMiB()
	b.e2e["node_rss_mb"], b.rssDone = rss, true
	return err
}

// storeKB sets store_kb_per_write from the primary's data dir.
func (b *bench) storeKB(dir string, writes int) error {
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	b.e2e["store_kb_per_write"] = float64(n) / 1024 / float64(writes)
	b.diag["store_bytes"] = n
	return nil
}

// commonLayers reads the layers every workload has from the timed
// phase's scrapes.
func (b *bench) commonLayers(p *phase, c *client.Client, statsBefore client.Stats) {
	if !b.traced {
		return
	}
	b.layerValue("obs.gc_pause_ms", "Δprivtree_go_gc_pause_total_seconds (total over the timed phase)", delta(p.before, p.after, "privtree_go_gc_pause_total_seconds")*1e3)
	b.layerValue("obs.gc_runs", "Δprivtree_go_gc_runs_total", delta(p.before, p.after, "privtree_go_gc_runs_total"))
	b.layerValue("server.shed", "Δprivtree_shed_total", delta(p.before, p.after, "privtree_shed_total"))
	st := c.Stats()
	b.layerValue("client.retries", "client.Stats Attempts − Requests over the timed phase",
		float64((st.Attempts-st.Requests)-(statsBefore.Attempts-statsBefore.Requests)))
	fsyncs := delta(p.before, p.after, "privtree_wal_fsync_seconds_count")
	b.layerMean("store.fsync_ms", "Δprivtree_wal_fsync_seconds", fsyncs, delta(p.before, p.after, "privtree_wal_fsync_seconds_sum")*1e3, nil)
	b.layerValue("store.fsyncs", "Δprivtree_wal_fsync_seconds_count", fsyncs)
}

// recoverAndCatchUp restarts a node from dir several times (recover_s)
// and then starts fresh replicas against the last restart (catchup_s).
// verify runs against every restarted node and every replica. The last
// restarted node is returned still running.
func (b *bench) recoverAndCatchUp(ctx context.Context, dir string, verify func(context.Context, *client.Client) error) (*node, *client.Client, error) {
	b.stage("recovery")
	defer b.sp.end()
	var rec, recRaw []float64
	var n *node
	for i := 0; i < b.reps; i++ {
		var d time.Duration
		var scale float64
		var err error
		if n, d, scale, err = b.timedStart(dir, "/healthz"); err != nil {
			return nil, nil, fmt.Errorf("restart: %w", err)
		}
		rec, recRaw = append(rec, d.Seconds()*scale), append(recRaw, d.Seconds())
		err = verify(ctx, client.New(n.base))
		b.check(err == nil, "after restart %d: %v", i+1, err)
		if i < b.reps-1 {
			if err := b.stop(n); err != nil {
				return nil, nil, err
			}
		}
	}
	b.e2e["recover_s"], b.raw["recover_s"] = median(rec), median(recRaw)
	b.diag["recover_s_samples"] = rec

	var cat, catRaw []float64
	var pullN, pullS, fetchN, fetchS float64
	for i := 0; i < b.reps; i++ {
		rdir := filepath.Join(b.work, fmt.Sprintf("replica-%d", i))
		r, d, scale, err := b.timedStart(rdir, "/readyz", "-replica-of", n.base, "-replica-poll", "20ms")
		if err != nil {
			return nil, nil, fmt.Errorf("replica: %w", err)
		}
		cat, catRaw = append(cat, d.Seconds()*scale), append(catRaw, d.Seconds())
		err = verify(ctx, client.New(r.base))
		b.check(err == nil, "on replica %d: %v", i+1, err)
		if b.traced {
			m, err := r.scrape(ctx)
			if err != nil {
				return nil, nil, err
			}
			pullN += m["privtree_build_stage_seconds_count{stage=repl.wal_pull}"]
			pullS += m["privtree_build_stage_seconds_sum{stage=repl.wal_pull}"]
			fetchN += m["privtree_build_stage_seconds_count{stage=repl.artifact_fetch}"]
			fetchS += m["privtree_build_stage_seconds_sum{stage=repl.artifact_fetch}"]
		}
		if err := b.stop(r); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(rdir); err != nil {
			return nil, nil, err
		}
	}
	b.e2e["catchup_s"], b.raw["catchup_s"] = median(cat), median(catRaw)
	b.diag["catchup_s_samples"] = cat
	b.layerMean("repl.wal_pull_ms", "replica Δprivtree_build_stage_seconds{stage=repl.wal_pull}", pullN, pullS*1e3, nil)
	b.layerMean("repl.artifact_fetch_ms", "replica Δprivtree_build_stage_seconds{stage=repl.artifact_fetch}", fetchN, fetchS*1e3, nil)
	return n, client.New(n.base), nil
}

// timedStart starts a node like start and also returns the scale that
// turns its start-up time into reference time, from reference task
// timings taken right before and right after it.
func (b *bench) timedStart(dir, probe string, extra ...string) (*node, time.Duration, float64, error) {
	// Collect the benchmark's own garbage first, so no GC cycle of its
	// large heap lands inside the reference timings.
	runtime.GC()
	var rs refSamples
	if err := rs.run(b.ref, refAround); err != nil {
		return nil, 0, 0, err
	}
	n, d, err := b.start(dir, probe, extra...)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := rs.run(b.ref, refAround); err != nil {
		return nil, 0, 0, err
	}
	return n, d, rs.scale(), nil
}

// openSessionCopies times privtree.OpenSession on a copy of each
// dataset's store directory (WAL replay plus decode of every commit).
func (b *bench) openSessionCopies(dataDir string, names []string, budget float64) error {
	if !b.traced {
		return nil
	}
	for _, name := range names {
		for i := 0; i < 3; i++ {
			cp := filepath.Join(b.work, fmt.Sprintf("session-copy-%s-%d", name, i))
			if err := copyDir(filepath.Join(dataDir, "datasets", name, "store"), cp); err != nil {
				return err
			}
			start := time.Now()
			s, err := privtree.OpenSession(cp, budget)
			b.sp.record("privtree.OpenSession", start, time.Since(start))
			if err != nil {
				return fmt.Errorf("OpenSession on a copy of %s: %w", name, err)
			}
			if err := s.Close(); err != nil {
				return err
			}
			if err := os.RemoveAll(cp); err != nil {
				return err
			}
		}
	}
	b.layerSpans("privtree.open_session_ms", "privtree.OpenSession")
	return nil
}

// envelopeLayers records the envelope size and decode layers.
func (b *bench) envelopeLayers(envelopes [][]byte) {
	if !b.traced {
		return
	}
	var kb []float64
	for _, e := range envelopes {
		kb = append(kb, float64(len(e))/1024)
	}
	b.layerValue("privtree.envelope_kb", fmt.Sprintf("mean KiB of %d committed envelopes", len(kb)), mean(kb))
	b.layerSpans("privtree.decode_ms", "privtree.Decode")
}

// sameFloats reports whether two answer vectors are bit-identical.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
