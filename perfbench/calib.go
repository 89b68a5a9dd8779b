package main

import (
	"encoding/json"
	"math/rand/v2"
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark shares a few vCPUs of a host whose speed drifts: a busy
// neighbour can make every timing 30-50% slower for a minute at a time,
// which neither longer runs nor medians average away. So each run also
// times a fixed reference task, interleaved with the operations it
// measures, and reports every timing except setup_s in reference time:
//
//	reference ms = measured ms × refNominalMS / median reference task time
//
// refNominalMS is what the task takes on an idle 2-vCPU Intel Xeon VM, so
// on such a host reference ms read close to wall-clock ms. A change to
// privtree moves the measured operations and leaves the reference task
// alone; a host slowdown moves both. The raw wall-clock figures go to
// the diagnostics on standard error.
//
// The task is plain Go computation on one goroutine, using only the
// standard library and this file: a JSON round trip of a rectangle batch,
// a sort, map inserts and a pointer chase through an 8 MiB table, the
// kinds of work a query batch or a build does.
const (
	refNominalMS    = 0.4  // wall time of one task on the idle reference host
	refNominalCPUMS = 0.4  // CPU time of the same
	refShare        = 0.15 // reference work as a share of a phase's active time
	refAround       = 50   // reference timings before and after a one-shot timing
	refRects        = 256
	refSteps        = 16      // pointer-chase steps per rectangle
	refTable        = 2 << 20 // uint32 entries: 8 MiB
)

// refTask is the reference task's fixed input.
type refTask struct {
	rects [][4]float64
	next  []uint32 // one random cycle over the table
	sink  float64
}

// newRefTask builds the task's input and warms it up. The input is fixed,
// not drawn from the workload seed: every run does the same work.
func newRefTask() (*refTask, error) {
	rng := rand.New(rand.NewPCG(0x2ef, 0))
	t := &refTask{next: make([]uint32, refTable), rects: make([][4]float64, refRects)}
	perm := rng.Perm(refTable)
	for i := range perm {
		t.next[perm[i]] = uint32(perm[(i+1)%refTable])
	}
	for i := range t.rects {
		x, y := rng.Float64(), rng.Float64()
		t.rects[i] = [4]float64{x, y, x + rng.Float64()*(1-x), y + rng.Float64()*(1-y)}
	}
	for i := 0; i < 200; i++ {
		if _, _, err := t.once(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// once runs the task one time and returns its wall and CPU time. The
// goroutine stays on one thread, so the thread's CPU clock covers it.
func (t *refTask) once() (wall, cpu time.Duration, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	start := time.Now()
	blob, err := json.Marshal(t.rects)
	if err != nil {
		return 0, 0, err
	}
	var rects [][4]float64
	if err := json.Unmarshal(blob, &rects); err != nil {
		return 0, 0, err
	}
	keys := make([]float64, 0, 4*len(rects))
	seen := make(map[uint32]int, len(rects))
	var s uint64
	for i, q := range rects {
		keys = append(keys, q[:]...)
		j := uint32((q[0]+q[1]*7+q[2]*13+q[3]*29)*refTable/50) % refTable
		for k := 0; k < refSteps; k++ {
			j = t.next[j]
			s += uint64(j)
		}
		seen[j] = i
	}
	sort.Float64s(keys)
	t.sink += keys[len(keys)/2] + float64(s) + float64(len(seen))
	wall = time.Since(start)
	return wall, threadCPU() - c0, nil
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID, which the syscall
// package does not name.
const clockThreadCPUTime = 3

// refSamples collects reference task timings.
type refSamples struct{ wall, cpu []float64 }

// run adds n timings of the task.
func (s *refSamples) run(t *refTask, n int) error {
	for i := 0; i < n; i++ {
		w, c, err := t.once()
		if err != nil {
			return err
		}
		s.wall, s.cpu = append(s.wall, ms(w)), append(s.cpu, ms(c))
	}
	return nil
}

// scale converts measured wall-clock time into reference time.
func (s *refSamples) scale() float64 { return refNominalMS / median(s.wall) }

// cpuScale converts measured CPU time into reference CPU time.
func (s *refSamples) cpuScale() float64 { return refNominalCPUMS / median(s.cpu) }
