package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/serve"
)

// buildServer compiles cmd/heimdall-serve from the tree the benchmark runs
// in (the commit under test) into dir. It is the one `go build` and is kept
// out of setup_s.
func buildServer(dir string) (string, error) {
	if _, err := os.Stat("go.mod"); err != nil {
		return "", fmt.Errorf("run from the module root: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "heimdall-serve")
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/heimdall-serve").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/heimdall-serve: %w\n%s", err, out)
	}
	return bin, nil
}

// child is one running heimdall-serve. Only -model and -listen are passed:
// every serving knob stays at its default, so the benchmark measures the
// server as shipped.
type child struct {
	cmd     *exec.Cmd
	argv    []string
	addr    string
	files   []string // socket and model file, removed by stop
	log     bytes.Buffer
	exited  chan struct{}
	ctl     *serve.Client // control connection, used for Stats only
	startMS float64       // spawn to first Stats reply
}

// startChild writes the model, spawns the server on a unix socket under dir
// and waits for its first Stats reply. Paths stay relative: a checkout can
// sit deeper than the 108 bytes a unix socket address allows.
func startChild(bin, dir string, model []byte, cpus cpuSplit) (*child, error) {
	base := filepath.Join(dir, "serve-"+strconv.Itoa(os.Getpid()))
	modelPath, sock := base+".model", base+".sock"
	if err := os.WriteFile(modelPath, model, 0o644); err != nil {
		return nil, err
	}
	if err := os.Remove(sock); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err // a stale socket would fail the server's bind
	}
	c := &child{
		argv:   []string{bin, "-model", modelPath, "-listen", "unix:" + sock},
		addr:   "unix:" + sock,
		files:  []string{modelPath, sock},
		exited: make(chan struct{}),
	}
	c.cmd = exec.Command(c.argv[0], c.argv[1:]...)
	c.cmd.Stdout, c.cmd.Stderr = &c.log, &c.log
	// The server must not outlive the benchmark, however the benchmark ends.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cpus.startPinned(c.cmd.Start); err != nil {
		return nil, err
	}
	go func() {
		_ = c.cmd.Wait() // stop reads the outcome from ProcessState
		close(c.exited)
	}()
	err := c.connect(start.Add(10 * time.Second))
	if err != nil {
		_ = c.stop()
		return nil, fmt.Errorf("heimdall-serve did not come up: %w\n%s", err, c.log.String())
	}
	c.startMS = float64(time.Since(start)) / 1e6
	return c, nil
}

// connect dials the control connection until the server accepts, then waits
// for the first Stats reply.
func (c *child) connect(deadline time.Time) error {
	for {
		ctl, err := serve.Dial(c.addr)
		if err == nil {
			c.ctl = ctl
			_, err = ctl.Stats()
			return err
		}
		select {
		case <-c.exited:
			return errors.New("exited during start-up")
		default:
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down the way an operator would (SIGTERM, graceful
// drain), waits for it to end, and reports a non-zero exit as an error.
func (c *child) stop() error {
	if c.ctl != nil {
		_ = c.ctl.Close()
	}
	_ = c.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-c.exited:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.exited
	}
	for _, f := range c.files {
		_ = os.Remove(f) // the server may have unlinked its socket already
	}
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("heimdall-serve: %s\n%s", c.cmd.ProcessState, c.log.String())
	}
	return nil
}

// procCPU returns the user and system CPU seconds a process has used, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks per second).
func procCPU(pid int) (user, sys float64, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name (field 2) may hold spaces; fields resume after ")".
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, 0, err
	}
	st, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, 0, err
	}
	return ut / 100, st / 100, nil
}

// procHWM returns a process's peak resident set (VmHWM) in MB.
func procHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns this process's user+system CPU seconds.
func selfCPU() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}
