package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is a started program. Its standard output is collected line by
// line; its standard error goes to the run's log file.
type child struct {
	cmd     *exec.Cmd
	started time.Time

	mu        sync.Mutex
	lines     []string
	firstLine time.Duration // from start to the first stdout line
	newLine   chan struct{} // wakes waitLine; capacity 1, never closed
	exited    chan struct{} // closed once the process has been reaped
}

// startChild starts path with args. The child runs in its own process
// group, so a Ctrl-C at the terminal reaches only the benchmark, which
// stops its children in order; and the kernel kills it should the
// benchmark itself die without cleaning up.
func startChild(stderr io.Writer, path string, args ...string) (*child, error) {
	cmd := exec.Command(path, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, newLine: make(chan struct{}, 1), exited: make(chan struct{})}
	c.started = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", path, err)
	}
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			c.mu.Lock()
			if len(c.lines) == 0 {
				c.firstLine = time.Since(c.started)
			}
			c.lines = append(c.lines, sc.Text())
			c.mu.Unlock()
			select {
			case c.newLine <- struct{}{}:
			default:
			}
		}
		// Drain anything left so the child never blocks on a full pipe.
		io.Copy(io.Discard, stdout)
		// The exit status is read from ProcessState; Wait's error adds
		// nothing to it.
		cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

// output returns the stdout lines read so far.
func (c *child) output() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

// waitLine waits for a stdout line starting with prefix and returns the
// rest of it.
func (c *child) waitLine(ctx context.Context, prefix string, timeout time.Duration) (string, error) {
	t := time.NewTimer(timeout)
	defer t.Stop()
	seen := 0
	for {
		lines := c.output()
		for _, l := range lines[seen:] {
			if strings.HasPrefix(l, prefix) {
				return strings.TrimPrefix(l, prefix), nil
			}
		}
		seen = len(lines)
		select {
		case <-c.newLine:
		case <-c.exited:
			// One last look: the line may have landed with the exit.
			for _, l := range c.output()[seen:] {
				if strings.HasPrefix(l, prefix) {
					return strings.TrimPrefix(l, prefix), nil
				}
			}
			return "", fmt.Errorf("%s exited before printing %q", c.cmd.Path, prefix)
		case <-t.C:
			return "", fmt.Errorf("%s printed no %q within %v", c.cmd.Path, prefix, timeout)
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// wait waits for the child to exit, killing it if ctx ends first.
func (c *child) wait(ctx context.Context) error {
	select {
	case <-c.exited:
		return nil
	case <-ctx.Done():
		c.stop(0)
		return ctx.Err()
	}
}

// stop sends SIGTERM and waits up to grace for the child to exit, then
// kills it; it returns once the process has been reaped. A zero grace
// kills at once.
func (c *child) stop(grace time.Duration) {
	select {
	case <-c.exited:
		return
	default:
	}
	if grace > 0 {
		c.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-c.exited:
			return
		case <-time.After(grace):
		}
	}
	c.cmd.Process.Kill()
	<-c.exited
}

// exitCode is the child's exit status; -1 if it died by a signal.
func (c *child) exitCode() int { return c.cmd.ProcessState.ExitCode() }

// peakRSSKiB is the exited child's maximum resident set size.
func (c *child) peakRSSKiB() int64 {
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return ru.Maxrss
	}
	return 0
}

// liveHWMKiB reads a running process's resident-set high-water mark.
func liveHWMKiB(pid int) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
