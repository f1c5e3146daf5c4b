package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// peakRSSMB is a finished process's peak resident set size.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// daemon is one wcetd process under test.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	// startup is the time from exec to the first 200 from /healthz.
	startup time.Duration
	log     *os.File
}

// startWcetd execs wcetd and waits for its first healthy /healthz
// answer. With persist it serves from a fresh, empty -data directory;
// without, tables, jobs and observability state stay in memory.
func (b *bench) startWcetd(name string, persist bool) (*daemon, error) {
	args := []string{"-workers", strconv.Itoa(b.nproc)}
	if persist {
		dataDir := filepath.Join(b.work, name)
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		args = append(args, "-data", dataDir)
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(b.work, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(b.bin, "wcetd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A throwaway client: health probes must not count as load
	// connections.
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, addr: addr, log: logf}
	for time.Since(start) < 30*time.Second {
		resp, err := probe.Get("http://" + addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.startup = time.Since(start)
				return d, nil
			}
		}
		time.Sleep(500 * time.Microsecond)
	}
	d.stop()
	return nil, fmt.Errorf("wcetd %s did not become healthy within 30s (log %s)", name, logf.Name())
}

// stop drains the daemon with SIGTERM (SIGKILL after 20s), waits for it
// to exit, and returns its peak RSS.
func (d *daemon) stop() (float64, error) {
	defer d.log.Close()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		err = errors.Join(errors.New("wcetd did not drain within 20s"), <-done)
	}
	return peakRSSMB(d.cmd.ProcessState), err
}

// measureDaemonSetup starts and stops n daemons on empty data directories
// and returns their startup times in seconds.
func (b *bench) measureDaemonSetup(n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		d, err := b.startWcetd(fmt.Sprintf("setup%d", i), true)
		if err != nil {
			return nil, err
		}
		out = append(out, d.startup.Seconds())
		if _, err := d.stop(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loadClient is the benchmark's one HTTP client: a single keep-alive
// transport sized to the client count, with every dial counted.
type loadClient struct {
	*http.Client
	dials atomic.Int64
}

func newLoadClient(conns int) *loadClient {
	c := &loadClient{}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	c.Client = &http.Client{Transport: tr, Timeout: 60 * time.Second}
	return c
}

// close releases the client's idle connections.
func (c *loadClient) close() { c.Client.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and drains the whole body, so the connection goes
// back to the pool.
func (c *loadClient) do(req *http.Request) (int, []byte, error) {
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

// hwmMB is the running daemon's peak resident set size so far (VmHWM).
func (d *daemon) hwmMB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid)
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
