package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/service"
)

// daemon is one running multihitd process.
type daemon struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
	err  error         // the process's exit error, valid after done
	log  *os.File
	cl   *client.Client
	// ready is the time from starting the process until /readyz first
	// answered ready.
	ready timing
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// simulatedGPUs is the daemon's simulated cluster size for admission
// control. The default (one 6-GPU node) refuses the 4-hit ACC/150 and
// LGG/175 jobs as oversized; with one job in flight the size changes
// nothing else.
const simulatedGPUs = 64

// startDaemon runs the daemon binary on dataDir with per-job workers =
// nproc, and returns once /readyz answers ready.
func startDaemon(ctx context.Context, bin, dataDir string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	cl, err := client.New(client.Config{BaseURL: "http://" + addr, MaxRetries: -1})
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir,
		"-workers", strconv.Itoa(runtime.NumCPU()), "-gpus", strconv.Itoa(simulatedGPUs))
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, done: make(chan struct{}), log: logf, cl: cl}
	cpu0 := readCPUStat()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	for {
		rd, err := cl.Readiness(ctx)
		if err == nil && rd.Ready {
			d.ready = timing{wall: time.Since(start), unstolen: readCPUStat().unstolen(cpu0)}
			return d, nil
		}
		select {
		case <-d.done:
			d.log.Close()
			return nil, fmt.Errorf("daemon exited before it was ready (%v); log %s", d.err, logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-deadline.C:
			d.stop()
			return nil, fmt.Errorf("daemon not ready after 60s; log %s", logf.Name())
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// peakRSSMiB reads the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 30s)
// and reports an exit other than the daemon's drained early-stop code.
func (d *daemon) stop() error {
	defer d.log.Close()
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
			return fmt.Errorf("daemon ignored SIGTERM for 30s and was killed")
		}
	}
	var exit *exec.ExitError
	if errors.As(d.err, &exit) && exit.ExitCode() == service.ExitEarlyStop {
		return nil
	}
	if d.err == nil {
		return nil
	}
	return fmt.Errorf("daemon exited with %v; log %s", d.err, d.log.Name())
}

// copyTree copies a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !e.Type().IsRegular() {
			return fmt.Errorf("%s is not a regular file", path)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// ensureTemplate returns the starting data directory for w, building it
// once per daemon build: a daemon runs every history job to completion
// and is then stopped. The directory name carries the daemon binary's
// hash, so a rebuilt daemon never starts on another build's state.
func ensureTemplate(ctx context.Context, w *workload, bin, work, binHash string) (string, error) {
	dir := filepath.Join(work, "templates", w.name+"-"+binHash)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	d, err := startDaemon(ctx, bin, tmp)
	if err != nil {
		return "", err
	}
	ids := make([]string, len(w.history))
	for i, s := range w.history {
		st, _, err := d.cl.Submit(ctx, s, fmt.Sprintf("mhbench-history-%s-%d", w.name, i))
		if err != nil {
			d.stop()
			return "", fmt.Errorf("history job %s: %w", specName(s), err)
		}
		ids[i] = st.ID
	}
	for i, id := range ids {
		if _, err := followToTerminal(ctx, d.cl, id); err != nil {
			d.stop()
			return "", fmt.Errorf("history job %s: %w", specName(w.history[i]), err)
		}
		st, err := d.cl.Get(ctx, id)
		if err != nil {
			d.stop()
			return "", err
		}
		if st.State != "succeeded" {
			d.stop()
			return "", fmt.Errorf("history job %s ended %s", specName(w.history[i]), st.State)
		}
	}
	if err := d.stop(); err != nil {
		return "", err
	}
	if err := os.Remove(tmp + ".log"); err != nil {
		return "", err
	}
	return dir, os.Rename(tmp, dir)
}
