package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"privtree/internal/obs"
)

// node is one privtreed process started by the benchmark.
type node struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	logPath string
	done    chan struct{}
	waitErr error
}

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startNode execs privtreed on dataDir and returns once probe answers 200
// on it. probe is "/healthz" for a primary and "/readyz" for a replica;
// the returned duration runs from exec to that first 200.
func startNode(bin, dataDir, logDir, probe string, extra ...string) (*node, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("picking a port: %w", err)
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, 0, err
	}
	logPath := filepath.Join(logDir, fmt.Sprintf("privtreed-%d.log", port))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := append([]string{"-addr", addr, "-data-dir", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The node dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	n := &node{cmd: cmd, base: "http://" + addr, dataDir: dataDir, logPath: logPath, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting privtreed: %w", err)
	}
	go func() {
		n.waitErr = cmd.Wait()
		close(n.done)
	}()
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := start.Add(120 * time.Second)
	for {
		select {
		case <-n.done:
			return nil, 0, fmt.Errorf("privtreed exited during start-up (%v); log: %s", n.waitErr, n.tail())
		default:
		}
		if resp, err := hc.Get(n.base + probe); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			n.kill()
			return nil, 0, fmt.Errorf("privtreed at %s not answering %s after 120s; log: %s", addr, probe, n.tail())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// tail returns the end of the node's log for error messages.
func (n *node) tail() string {
	b, _ := os.ReadFile(n.logPath)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// stop sends SIGTERM (a graceful drain) and waits for the process to exit.
func (n *node) stop() error {
	if n == nil {
		return nil
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-n.done:
	case <-time.After(30 * time.Second):
		n.kill()
		return fmt.Errorf("privtreed did not drain within 30s")
	}
	if n.waitErr != nil {
		return fmt.Errorf("privtreed exited with %v; log: %s", n.waitErr, n.tail())
	}
	return nil
}

// kill ends the process at once and waits for it.
func (n *node) kill() {
	if n == nil {
		return
	}
	_ = n.cmd.Process.Kill()
	<-n.done
}

// cpuSeconds is the process's user+sys CPU time so far.
func (n *node) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name in field 2 may hold spaces; fields resume after ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (utime + stime) / clockTicks, nil
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func (n *node) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape reads the node's Prometheus exposition into series → value.
func (n *node) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		out[s.SeriesKey()] = s.Value
	}
	return out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of src into a fresh dst tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}

// cpuStat is the machine-wide steal and total CPU time from /proc/stat.
type cpuStat struct{ steal, total float64 }

func readCPUStat() cpuStat {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var s cpuStat
	for i, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			s.total += x
		}
		if i == 7 {
			s.steal = x
		}
	}
	return s
}

// busyStealShare keeps every CPU busy for d and returns the steal share
// over it. An idle guest is never denied CPU, so steal only shows under load.
func busyStealShare(d time.Duration) float64 {
	a := readCPUStat()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
			}
		}()
	}
	wg.Wait()
	return stealShare(a, readCPUStat())
}

// stealShare is the host's steal share of CPU time between two readings:
// a diagnostic, never used to adjust a metric.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}
