package main

import (
	"context"
	"runtime"
	"syscall"
	"time"
)

// slices is how many equal parts a timed phase is cut into. Latency
// medians, throughput and node CPU per operation are computed per slice
// and reported as the median over slices, so a host hiccup confined to a
// slice or two barely moves them.
const slices = 5

// phase is one timed phase: a closed loop that runs for a fixed active
// time (pauses excluded) against one node.
type phase struct {
	n      *node
	length time.Duration
	t0     time.Time
	paused time.Duration
	cur    int             // slice of the operation in flight
	starts []time.Duration // active time at which each slice's first operation started
	cpu    []float64       // node CPU seconds at the same instants, pauses excluded
	cpuOff float64         // node CPU spent during pauses
	ops    [slices]int
	work   [slices]float64 // units of work done per slice (rectangles, builds, records)

	task    *refTask
	ref     [slices]refSamples // reference task timings per slice
	refBusy time.Duration      // wall time spent on them
	// scale and cpuScale turn each slice's wall-clock and CPU time into
	// reference time (see calib.go); endPhase sets them.
	scale, cpuScale [slices]float64

	before, after map[string]float64 // /metrics scrapes, traced runs only
}

func (b *bench) beginPhase(ctx context.Context, n *node) (*phase, error) {
	// Collect the set-up's garbage and flush its writes now, so neither
	// lands inside the phase.
	runtime.GC()
	syscall.Sync()
	p := &phase{n: n, length: b.seconds, task: b.ref}
	var err error
	if b.traced {
		if p.before, err = n.scrape(ctx); err != nil {
			return nil, err
		}
	}
	c, err := n.cpuSeconds()
	p.cpu, p.starts = append(p.cpu, c), append(p.starts, 0)
	b.stage("timed")
	p.t0 = time.Now()
	return p, err
}

func (p *phase) now() time.Duration { return time.Since(p.t0) - p.paused }

// next starts the next operation. It returns false once the phase has
// run its length, and otherwise the slice the operation counts in.
func (p *phase) next() (int, bool, error) {
	now := p.now()
	if now >= p.length {
		return 0, false, nil
	}
	i := int(int64(now) * slices / int64(p.length))
	for p.cur < i {
		c, err := p.n.cpuSeconds()
		if err != nil {
			return 0, false, err
		}
		p.cpu, p.starts = append(p.cpu, c-p.cpuOff), append(p.starts, now)
		p.cur++
	}
	// Between operations, run the reference task until it has had its
	// share of the active time so far; it is paused time, so it counts in
	// no operation, rate or node CPU figure.
	if float64(p.refBusy) < refShare*float64(now) {
		err := p.pause(func() error {
			for float64(p.refBusy) < refShare*float64(now) {
				w, c, err := p.task.once()
				if err != nil {
					return err
				}
				p.ref[i].wall, p.ref[i].cpu = append(p.ref[i].wall, ms(w)), append(p.ref[i].cpu, ms(c))
				p.refBusy += w
			}
			return nil
		})
		if err != nil {
			return 0, false, err
		}
	}
	p.ops[i]++
	return i, true, nil
}

// pause runs fn outside the timed phase: neither its wall time nor the
// node CPU it causes counts.
func (p *phase) pause(fn func() error) error {
	start := time.Now()
	c0, err := p.n.cpuSeconds()
	if err != nil {
		return err
	}
	if err := fn(); err != nil {
		return err
	}
	c1, err := p.n.cpuSeconds()
	p.cpuOff += c1 - c0
	p.paused += time.Since(start)
	return err
}

// endPhase closes the phase and sets node_cpu_ms_per_op and ops_per_s.
func (b *bench) endPhase(ctx context.Context, p *phase) error {
	b.sp.end()
	c, err := p.n.cpuSeconds()
	if err != nil {
		return err
	}
	for len(p.cpu) <= slices {
		p.cpu, p.starts = append(p.cpu, c-p.cpuOff), append(p.starts, p.now())
	}
	if b.traced {
		if p.after, err = p.n.scrape(ctx); err != nil {
			return err
		}
	}
	// A slice too short for its own reference timings (toy runs) uses
	// those of the whole phase.
	var all refSamples
	for _, r := range p.ref {
		all.wall, all.cpu = append(all.wall, r.wall...), append(all.cpu, r.cpu...)
	}
	if len(all.wall) == 0 {
		if err := all.run(p.task, 20); err != nil {
			return err
		}
	}
	var refMS, refCPU [slices]float64
	for i, r := range p.ref {
		if len(r.wall) < 20 {
			r = all
		}
		p.scale[i], p.cpuScale[i] = r.scale(), r.cpuScale()
		refMS[i], refCPU[i] = median(r.wall), median(r.cpu)
	}
	var cpuPerOp, rate, rawCPU, rawRate []float64
	for i := 0; i < slices; i++ {
		if p.ops[i] > 0 {
			c := (p.cpu[i+1] - p.cpu[i]) * 1e3 / float64(p.ops[i])
			r := p.work[i] / (p.starts[i+1] - p.starts[i]).Seconds()
			rawCPU, rawRate = append(rawCPU, c), append(rawRate, r)
			cpuPerOp, rate = append(cpuPerOp, c*p.cpuScale[i]), append(rate, r/p.scale[i])
		}
	}
	b.e2e["node_cpu_ms_per_op"] = median(cpuPerOp)
	b.e2e["ops_per_s"] = median(rate)
	b.raw["node_cpu_ms_per_op"], b.raw["ops_per_s"] = median(rawCPU), median(rawRate)
	b.diag["ops_per_slice"] = p.ops
	b.diag["ref_ms_per_slice"], b.diag["ref_cpu_ms_per_slice"] = refMS, refCPU
	b.diag["ref_samples"] = len(all.wall)
	b.diag["node_cpu_s"] = p.cpu[slices] - p.cpu[0]
	return nil
}

// latency sets the p50 and p90 metrics of a timer in reference time, and
// keeps the wall-clock figures for the diagnostics.
func (b *bench) latency(p *phase, t *timer, p50, p90 string) {
	var one [slices]float64
	for i := range one {
		one[i] = 1
	}
	b.e2e[p50], b.raw[p50] = t.p50(p.scale), t.p50(one)
	if p90 != "" {
		b.e2e[p90], b.raw[p90] = t.p90(p.scale), t.p90(one)
	}
}

// timer collects the latencies of one kind of operation per slice.
type timer struct{ ms [slices][]float64 }

func (t *timer) add(slice int, d time.Duration) { t.ms[slice] = append(t.ms[slice], ms(d)) }

func (t *timer) all() []float64 {
	var out []float64
	for _, s := range t.ms {
		out = append(out, s...)
	}
	return out
}

func (t *timer) count() int { return len(t.all()) }

func (t *timer) total() float64 { return sum(t.all()) }

// p50 is the median over slices of each slice's median latency, each
// multiplied by its slice's scale.
func (t *timer) p50(scale [slices]float64) float64 {
	var per []float64
	for i, s := range t.ms {
		if len(s) > 0 {
			per = append(per, median(s)*scale[i])
		}
	}
	return median(per)
}

// p90 is the median over slices of each slice's 90th percentile when
// every slice holds at least ten samples beyond it, and otherwise the
// 90th percentile over the whole phase; each latency is multiplied by
// its slice's scale.
func (t *timer) p90(scale [slices]float64) float64 {
	var per []float64
	for i, s := range t.ms {
		if len(s) < 100 {
			var all []float64
			for j, s := range t.ms {
				for _, x := range s {
					all = append(all, x*scale[j])
				}
			}
			return quantile(all, 0.9)
		}
		per = append(per, quantile(s, 0.9)*scale[i])
	}
	return median(per)
}
