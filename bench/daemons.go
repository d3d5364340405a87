package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons compiles ximdd and ximdc from the repository at root
// into binDir. It runs before any timing starts; with a warm build
// cache it only checks that the binaries are up to date.
func buildDaemons(root, binDir string) error {
	for _, name := range []string{"ximdd", "ximdc"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, name), "./cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("go build ./cmd/%s: %v\n%s", name, err, out)
		}
	}
	return nil
}

// daemon is one ximdd or ximdc process started by the benchmark.
type daemon struct {
	name      string
	cmd       *exec.Cmd
	exited    chan struct{}
	addr      string // API listen address, host:port
	debugAddr string // pprof listener, host:port
}

var (
	listenRE = regexp.MustCompile(`listening on (\S+)`)
	debugRE  = regexp.MustCompile(`pprof debug server on (\S+)`)
)

// startDaemon starts bin with args plus a loopback API listener and a
// pprof listener (read for the daemon's memory statistics), logging to
// dir/name.log, and waits until the daemon prints both addresses. The
// process is killed if the benchmark dies first.
func startDaemon(bin, name, dir string, args ...string) (*daemon, error) {
	logPath := filepath.Join(dir, name+".log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append([]string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		text, _ := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(text); m != nil {
			d.addr = string(m[1])
		}
		if m := debugRE.FindSubmatch(text); m != nil {
			d.debugAddr = string(m[1])
		}
		if d.addr != "" && d.debugAddr != "" {
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("%s exited during start-up:\n%s", name, text)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s printed no listen address in 20s:\n%s", name, text)
		}
	}
}

func (d *daemon) url() string { return "http://" + d.addr }

// stop asks the daemon to drain (SIGTERM) and waits for it to exit,
// killing it if the drain takes longer than 15s.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(ctx context.Context, c *client, base string) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		status, err := c.get(ctx, base+"/readyz", nil)
		if err == nil && status == 200 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/readyz: not ready after 20s (status %d, err %v)", base, status, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// clockTicksPerSecond is Linux's USER_HZ, the unit of /proc/<pid>/stat
// CPU times; it is 100 on every mainstream Linux architecture.
const clockTicksPerSecond = 100

// cpuSeconds reads the process's user+system CPU time.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// fixed. utime and stime are fields 14 and 15.
	s := string(b)
	rest := s[strings.LastIndexByte(s, ')')+2:]
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("parse /proc stat: %w", err)
	}
	return (ut + st) / clockTicksPerSecond, nil
}

// daemonMem is runtime.MemStats as daemons report it in the footer of
// their pprof heap profile.
type daemonMem struct {
	totalAllocMB float64 // cumulative allocation
	heapAllocMB  float64 // heap in use; the live heap right after a collection
	gcCPUFrac    float64 // share of CPU spent in GC since start
}

// readDaemonMem reads the daemons' memory statistics: allocation and
// heap summed, GC share averaged. With gc, each daemon collects first
// (?gc=1), so heapAllocMB is the memory they hold.
func readDaemonMem(ctx context.Context, c *client, ds []*daemon, gc bool) (daemonMem, error) {
	var sum daemonMem
	for _, d := range ds {
		u := "http://" + d.debugAddr + "/debug/pprof/heap?debug=1"
		if gc {
			u += "&gc=1"
		}
		body, err := c.getBody(ctx, u)
		if err != nil {
			return daemonMem{}, err
		}
		fields := map[string]float64{}
		for _, line := range strings.Split(string(body), "\n") {
			for _, key := range []string{"TotalAlloc", "HeapAlloc", "GCCPUFraction"} {
				if v, ok := strings.CutPrefix(line, "# "+key+" = "); ok {
					n, err := strconv.ParseFloat(v, 64)
					if err != nil {
						return daemonMem{}, fmt.Errorf("%s heap profile: parse %q: %w", d.name, line, err)
					}
					fields[key] = n
				}
			}
		}
		if len(fields) != 3 {
			return daemonMem{}, fmt.Errorf("%s heap profile has no MemStats footer", d.name)
		}
		sum.totalAllocMB += fields["TotalAlloc"] / (1 << 20)
		sum.heapAllocMB += fields["HeapAlloc"] / (1 << 20)
		sum.gcCPUFrac += fields["GCCPUFraction"] / float64(len(ds))
	}
	return sum, nil
}

// sumPeakRSSMB sums the daemons' peak resident set sizes.
func sumPeakRSSMB(ds []*daemon) (float64, error) {
	var total float64
	for _, d := range ds {
		r, err := peakRSSMB(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += r
	}
	return total, nil
}

// metricValue scrapes one unlabelled sample from a Prometheus text
// exposition, 0 when absent.
func metricValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}
