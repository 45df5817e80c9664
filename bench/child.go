package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildDir holds what the benchmark compiles and, when no tmpfs is
// writable, its data roots. It is relative to the checkout root the
// benchmark is run from and is git-ignored.
const buildDir = ".bench_build"

// buildServer compiles cmd/logstreamd into buildDir and returns the
// binary's path. The go tool skips the link when the binary is current, so
// only the first run in a checkout pays for it.
func buildServer(ctx context.Context) (string, error) {
	if _, err := os.Stat(filepath.Join("cmd", "logstreamd")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "logstreamd"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/logstreamd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/logstreamd: %w\n%s", err, out)
	}
	return bin, nil
}

// dataBase picks where data roots live: tmpfs when writable, so the
// sandbox's shared virtual disk stays out of the timings (fsync is still
// called, its device latency is not claimed), else the build directory.
func dataBase() string {
	if probe, err := os.MkdirTemp("/dev/shm", "logbench-probe-*"); err == nil {
		os.Remove(probe)
		return "/dev/shm"
	}
	return buildDir
}

// live tracks every running child and every data root so the signal handler
// and the exit paths can kill and remove them all.
var live struct {
	sync.Mutex
	children map[*child]struct{}
	roots    map[string]struct{}
}

func trackRoot(dir string) {
	live.Lock()
	defer live.Unlock()
	if live.roots == nil {
		live.roots = make(map[string]struct{})
	}
	live.roots[dir] = struct{}{}
}

func removeRoot(dir string) {
	os.RemoveAll(dir)
	live.Lock()
	delete(live.roots, dir)
	live.Unlock()
}

// cleanupAll kills every live child, waits for each, and removes every data
// root. Safe to call more than once.
func cleanupAll() {
	live.Lock()
	kids := make([]*child, 0, len(live.children))
	for c := range live.children {
		kids = append(kids, c)
	}
	roots := make([]string, 0, len(live.roots))
	for r := range live.roots {
		roots = append(roots, r)
	}
	live.Unlock()
	for _, c := range kids {
		c.kill()
	}
	for _, r := range roots {
		removeRoot(r)
	}
}

// child is one logstreamd -listen process.
type child struct {
	pid        int
	addr       string
	stderrPath string
	cmd        *exec.Cmd
	done       chan struct{} // closed when the process has been waited for
	waitErr    error         // valid after done is closed
}

// startServer launches bin in -listen mode over root and waits until the
// server has published its address and answers /readyz. The port comes only
// from -listen-addr-file.
func startServer(ctx context.Context, bin, root, online string) (*child, error) {
	addrFile := filepath.Join(root, "addr")
	stderrPath := filepath.Join(root, "server.stderr")
	args := []string{
		"-listen", "127.0.0.1:0", "-listen-addr-file", addrFile,
		"-checkpoint-dir", filepath.Join(root, "ckpt"), "-wal", "-events", filepath.Join(root, "ev"),
	}
	if online != "" {
		args = append(args, "-online", online)
	}
	stderr, err := os.Create(stderrPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close() // the child holds its own descriptor

	c := &child{stderrPath: stderrPath, done: make(chan struct{})}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stderr = stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	started := make(chan error, 1)
	go func() {
		// Pdeathsig fires when the thread that forked the child exits, so
		// the forking goroutine keeps its thread until the child is gone.
		runtime.LockOSThread()
		if err := c.cmd.Start(); err != nil {
			started <- err
			return
		}
		started <- nil
		c.waitErr = c.cmd.Wait()
		live.Lock()
		delete(live.children, c)
		live.Unlock()
		close(c.done)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c.pid = c.cmd.Process.Pid
	live.Lock()
	if live.children == nil {
		live.children = make(map[*child]struct{})
	}
	live.children[c] = struct{}{}
	live.Unlock()

	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte{'\n'}) {
			c.addr = strings.TrimSpace(string(b))
			return c, nil
		}
		select {
		case <-c.done:
			return nil, fmt.Errorf("server exited before listening: %v\n%s", c.waitErr, c.stderrTail())
		case <-ctx.Done():
			c.kill()
			return nil, ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, fmt.Errorf("server did not publish its address within 20s\n%s", c.stderrTail())
		}
	}
}

// kill hard-stops the child and waits for it.
func (c *child) kill() {
	_ = c.cmd.Process.Kill() // an already-exited process is fine
	<-c.done
}

// drain sends SIGTERM and waits for a clean exit: code 0 and the "drained"
// line on stderr. On timeout the child is killed.
func (c *child) drain(timeout time.Duration) error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return fmt.Errorf("SIGTERM: %w", err)
	}
	select {
	case <-c.done:
	case <-time.After(timeout):
		c.kill()
		return fmt.Errorf("server did not drain within %s\n%s", timeout, c.stderrTail())
	}
	if c.waitErr != nil {
		return fmt.Errorf("server exit after SIGTERM: %w\n%s", c.waitErr, c.stderrTail())
	}
	b, err := os.ReadFile(c.stderrPath)
	if err != nil {
		return err
	}
	if !bytes.Contains(b, []byte("logstreamd: drained;")) {
		return errors.New("server exited 0 without printing its drained line\n" + c.stderrTail())
	}
	return nil
}

// stderrTail returns the last lines the server wrote, for failure reports.
func (c *child) stderrTail() string {
	b, err := os.ReadFile(c.stderrPath)
	if err != nil {
		return "(no server stderr: " + err.Error() + ")"
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return "--- server stderr (tail) ---\n" + strings.Join(lines, "\n")
}

// fileDigest runs the file path of the same binary over lines and returns
// the digest it prints: the reference the wire path must equal.
func fileDigest(ctx context.Context, bin, root, online string, lines [][]byte) (string, error) {
	in := filepath.Join(root, "prefix.log")
	if err := os.WriteFile(in, append(bytes.Join(lines, []byte{'\n'}), '\n'), 0o644); err != nil {
		return "", err
	}
	args := []string{"-in", in, "-checkpoint-dir", filepath.Join(root, "ref-ckpt"), "-digest", "-stats=false"}
	if online != "" {
		args = append(args, "-online", online)
	}
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	runtime.LockOSThread() // see startServer: keep the forking thread alive
	out, err := cmd.Output()
	runtime.UnlockOSThread()
	if err != nil {
		return "", fmt.Errorf("logstreamd -in: %w\n%s", err, stderr.String())
	}
	return strings.TrimSpace(string(out)), nil
}
