package main

// daemon.go runs the real unidetectd as a child process on loopback and
// talks to it as a tenant, over at most nproc connections.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/unidetect/unidetect/internal/tenants"
)

// apiKey is the benchmark tenant's key. Its quota is far above any
// rate the benchmark reaches, so a 429 is a defect, not load shedding.
const apiKey = "perfbench-key"

type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
}

// startDaemon boots unidetectd with args plus a loopback listener and
// the benchmark's tenant registry, and waits until /healthz answers.
func startDaemon(o options, args []string) (*daemon, error) {
	reg := filepath.Join(o.workdir, "tenants.bin")
	if err := tenants.WriteFile(reg, []tenants.Tenant{{ID: "bench", KeyHash: tenants.HashKey(apiKey),
		RatePerSec: 1e9, Burst: 1 << 30}}); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(o.workdir, "addr")
	_ = os.Remove(addrFile) // a stale address from an earlier boot would be read too early
	logf, err := os.Create(filepath.Join(o.workdir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-tenants", reg)
	cmd := exec.Command(o.daemon, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState in stop
		close(d.exited)
	}()
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     o.procs,
		MaxIdleConnsPerHost: o.procs,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			d.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := d.client.Get(d.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("daemon exited during boot; see %s", logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy after 60s")
		}
	}
}

// do sends one request as the benchmark tenant and reads the whole reply.
func (d *daemon) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Authorization", "Bearer "+apiKey)
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post sends a body and fails on a non-2xx reply.
func (d *daemon) post(path, contentType string, body []byte) (int, []byte, error) {
	code, b, err := d.do(http.MethodPost, path, contentType, body)
	if err == nil && code/100 != 2 {
		err = fmt.Errorf("POST %s: %d %s", path, code, bytes.TrimSpace(b))
	}
	return code, b, err
}

// cpu returns the daemon's CPU time so far, in seconds.
func (d *daemon) cpu() float64 {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 Hz).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB is the daemon's peak resident set so far.
func (d *daemon) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
}

// metrics scrapes the daemon's Prometheus exposition.
func (d *daemon) metrics() (string, error) {
	code, b, err := d.do(http.MethodGet, "/metrics", "", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("GET /metrics: %d", code)
	}
	return string(b), err
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// after 20s, and waits for it either way.
func (d *daemon) stop() (*os.ProcessState, error) {
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return d.cmd.ProcessState, fmt.Errorf("daemon did not drain within 20s")
	}
	return d.cmd.ProcessState, nil
}
