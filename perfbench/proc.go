package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"btreeperf/internal/server"
)

// threadCPU returns the seconds process pid's threads have run, from the
// scheduler's per-thread nanosecond counters (the sum behind utime +
// stime in /proc/<pid>/stat, which counts only whole 10 ms ticks).
func threadCPU(pid int) float64 {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	ents, _ := os.ReadDir(dir)
	var ns float64
	for _, e := range ents {
		b, err := os.ReadFile(dir + "/" + e.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited
		}
		if f := strings.Fields(string(b)); len(f) > 0 {
			v, _ := strconv.ParseFloat(f[0], 64)
			ns += v
		}
	}
	return ns / 1e9
}

// selfCPU returns this process's user plus system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// procFields reads the "name: value" (or "name value") lines of a /proc
// file into a map, keeping the first number of each value.
func procFields(path string) (map[string]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		if fs := strings.Fields(rest); len(fs) > 0 {
			if v, err := strconv.ParseFloat(fs[0], 64); err == nil {
				out[name] = v
			}
		}
	}
	return out, sc.Err()
}

// hostCPU is the aggregate line of /proc/stat, in ticks.
type hostCPU struct{ total, steal float64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var h hostCPU
	for i, s := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(s, 64)
		if i < 8 { // user..steal; guest time is already inside user
			h.total += v
		}
		if i == 7 {
			h.steal = v
		}
	}
	return h
}

// cpuPressure returns /proc/pressure/cpu's "some" averages (percent) and
// its cumulative stall total (µs); zeros where the kernel has no PSI.
func cpuPressure() (avg10, avg60, totalUs float64) {
	b, err := os.ReadFile("/proc/pressure/cpu")
	if err != nil {
		return
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for _, kv := range strings.Fields(line)[1:] {
		k, v, _ := strings.Cut(kv, "=")
		x, _ := strconv.ParseFloat(v, 64)
		switch k {
		case "avg10":
			avg10 = x
		case "avg60":
			avg60 = x
		case "total":
			totalUs = x
		}
	}
	return
}

// host is a reading of the host's CPU accounting, so that a noisy run
// can be explained.
type host struct {
	cpu      hostCPU
	psiTotal float64
	at       time.Time
}

func readHost() host {
	_, _, tot := cpuPressure()
	return host{cpu: readHostCPU(), psiTotal: tot, at: time.Now()}
}

// stealPct returns the host's steal share of CPU time from h to a later
// reading.
func (h host) stealPct(later host) float64 {
	if d := later.cpu.total - h.cpu.total; d > 0 {
		return 100 * (later.cpu.steal - h.cpu.steal) / d
	}
	return 0
}

// describe renders the host's steal and CPU pressure from h to a later
// reading.
func (h host) describe(later host) string {
	avg10, avg60, _ := cpuPressure()
	stall := 100 * (later.psiTotal - h.psiTotal) / 1e6 / later.at.Sub(h.at).Seconds()
	return fmt.Sprintf("host: steal %.1f%% of cpu time, cpu pressure some %.1f%% of wall time (avg10 %.2f avg60 %.2f at end)",
		h.stealPct(later), stall, avg10, avg60)
}

// serverMetrics is the part of btserved's /metrics?format=json the
// benchmark reads. Counters are cumulative; root_rho_w covers the time
// since the previous scrape.
type serverMetrics struct {
	Gets          int64   `json:"gets"`
	Puts          int64   `json:"puts"`
	Dels          int64   `json:"dels"`
	ScanPages     int64   `json:"scan_pages"`
	Splits        int64   `json:"splits"`
	RootRhoW      float64 `json:"root_rho_w"`
	ReadRestarts  int64   `json:"read_restarts"`
	ReadFallbacks int64   `json:"read_fallbacks"`
	OplogAppended int64   `json:"oplog_appended"` // current oplog only
	OplogBytes    int64   `json:"oplog_bytes"`    // current oplog only
	Fsyncs        int64   `json:"group_commit_fsyncs"`
	Checkpoints   int64   `json:"checkpoints"`
	SeqAppended   int64   `json:"seq_appended"`
}

func (m serverMetrics) ops() int64       { return m.Gets + m.Puts + m.Dels + m.ScanPages }
func (m serverMetrics) mutations() int64 { return m.Puts + m.Dels }

// since returns the counters accumulated from prev to m; the window's
// root_rho_w and the current oplog's size are kept as read at m.
func (m serverMetrics) since(prev serverMetrics) serverMetrics {
	d := m
	d.Gets -= prev.Gets
	d.Puts -= prev.Puts
	d.Dels -= prev.Dels
	d.ScanPages -= prev.ScanPages
	d.Splits -= prev.Splits
	d.ReadRestarts -= prev.ReadRestarts
	d.ReadFallbacks -= prev.ReadFallbacks
	d.Fsyncs -= prev.Fsyncs
	d.Checkpoints -= prev.Checkpoints
	d.SeqAppended -= prev.SeqAppended
	return d
}

func scrape(httpAddr string) (serverMetrics, error) {
	var m serverMetrics
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get("http://" + httpAddr + "/metrics?format=json")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// freeAddr returns a loopback address with a port nothing listens on,
// below the kernel's ephemeral range, so that no outgoing connection can
// take the port before btserved binds it.
func freeAddr() (string, error) {
	low := 32768
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		fmt.Sscan(string(b), &low)
	}
	for i := 0; i < 100; i++ {
		port := 10000 + rand.IntN(max(low-10000, 1000))
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
		if err == nil {
			ln.Close()
			return ln.Addr().String(), nil
		}
	}
	return "", fmt.Errorf("no free loopback port below %d", low)
}

// btserved is one running server process.
type btserved struct {
	cmd            *exec.Cmd
	addr, httpAddr string
	log            string
	exited         chan error
}

// launch starts btserved and returns once its first request has been
// answered, with the time that took: a single dial every 2 ms until the
// listener accepts, then one ping. A launch that loses its port to
// another process before binding it is retried on new ports.
func launch(bin string, args []string, logPath string) (*btserved, time.Duration, error) {
	for try := 0; ; try++ {
		s, d, err := launchOnce(bin, args, logPath)
		if err == nil || try == 2 || !strings.Contains(tail(logPath), "address already in use") {
			return s, d, err
		}
	}
}

func launchOnce(bin string, args []string, logPath string) (*btserved, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	httpAddr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	s := &btserved{addr: addr, httpAddr: httpAddr, log: logPath, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, append([]string{"-listen", addr, "-http", httpAddr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// If this process dies, the kernel stops the server too.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			err = ping(nc)
			nc.Close()
			if err == nil {
				return s, time.Since(t0), nil
			}
		}
		select {
		case err := <-s.exited:
			return nil, 0, fmt.Errorf("btserved exited before serving (%v); log:\n%s", err, tail(logPath))
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(t0) > 120*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("btserved not serving after 120s; log:\n%s", tail(logPath))
		}
	}
}

func ping(nc net.Conn) error {
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := nc.Write(server.AppendRequest(nil, server.Request{Op: server.OpPing})); err != nil {
		return err
	}
	resp, err := server.ReadResponse(bufio.NewReader(nc), make([]byte, server.MaxPayload))
	if err != nil {
		return err
	}
	if resp.Status != server.StatusOK {
		return fmt.Errorf("ping: %s", server.StatusName(resp.Status))
	}
	return nil
}

func (s *btserved) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM and waits for it to exit (SIGKILL
// after a minute).
func (s *btserved) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.exited:
		if err != nil {
			return fmt.Errorf("btserved: %v; log:\n%s", err, tail(s.log))
		}
		return nil
	case <-time.After(time.Minute):
		s.cmd.Process.Kill()
		<-s.exited
		return fmt.Errorf("btserved did not drain within a minute; log:\n%s", tail(s.log))
	}
}

// tail returns the last lines of a log file.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-20):], "\n")
}
