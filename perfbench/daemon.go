package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// daemon is one pytfhed subprocess.
type daemon struct {
	cmd         *exec.Cmd
	done        chan struct{} // closed once the process has been reaped
	addr        string
	metricsAddr string
}

// startDaemon runs pytfhed on loopback ports it picks itself and waits
// until it has written both bound addresses.
func startDaemon(e *env, args ...string) (*daemon, error) {
	dir, err := os.MkdirTemp(e.workDir, "pytfhed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	addrFile, metricsFile := filepath.Join(dir, "addr"), filepath.Join(dir, "metrics")
	args = append([]string{
		"-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-metrics-addr", "127.0.0.1:0", "-metrics-addr-file", metricsFile,
	}, args...)
	cmd := exec.Command(filepath.Join(e.binDir, "pytfhed"), args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The daemon must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start pytfhed: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // exit status is irrelevant once we stop it; early exits show below
		close(d.done)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for d.addr == "" || d.metricsAddr == "" {
		select {
		case <-d.done:
			return nil, fmt.Errorf("pytfhed exited during start-up")
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("pytfhed did not report its addresses within 60s")
		}
		d.addr = readAddr(addrFile)
		d.metricsAddr = readAddr(metricsFile)
	}
	return d, nil
}

// readAddr returns a complete address file's content, or "" before the
// daemon has finished writing it.
func readAddr(path string) string {
	b, err := os.ReadFile(path)
	if err != nil || !strings.HasSuffix(string(b), "\n") {
		return ""
	}
	return strings.TrimSpace(string(b))
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain and exit, kills it if it has not within
// 30 seconds, and returns once it has been reaped.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}
