package main

import (
	"bufio"
	"bytes"
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

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux ABI Go supports).
const clockTick = 10 * time.Millisecond

// cliRun is one finished one-shot CLI job.
type cliRun struct {
	wall   time.Duration
	cpu    time.Duration
	rssKB  int64
	stderr string
}

// runCLI runs the one-shot CLI to completion and reports its wall time,
// CPU time and peak RSS from the child's rusage.
func runCLI(ctx context.Context, bin string, args ...string) (cliRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = diesWithParent()
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	t0 := time.Now()
	err := cmd.Run()
	r := cliRun{wall: time.Since(t0), stderr: errBuf.String()}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = ps.UserTime() + ps.SystemTime()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssKB = ru.Maxrss
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, lastLines(r.stderr, 3))
	}
	return r, nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// server is a long-running `darwin-wga serve` child.
type server struct {
	cmd  *exec.Cmd
	addr string // host:port from the "listening on" line
	log  *syncBuffer
	done chan struct{} // closed once the process has been waited for
}

type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServer launches `darwin-wga serve args...` and returns once the
// child prints its listening address (the port-discovery contract).
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append([]string{"serve"}, args...)...)
	cmd.SysProcAttr = diesWithParent()
	pr, pw := io.Pipe()
	cmd.Stderr = pw
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, log: &syncBuffer{}, done: make(chan struct{})}
	addrCh := make(chan string, 1) // one send at most; never blocks the scanner
	go func() {
		sc := bufio.NewScanner(pr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(s.log, line)
			if i := strings.Index(line, "listening on "); i >= 0 && !sent {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
				sent = true
			}
		}
		io.Copy(io.Discard, pr) //nolint:errcheck // drain after a scanner error so the child never blocks
	}()
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is irrelevant once we stop it
		pw.Close()
		close(s.done)
	}()
	select {
	case s.addr = <-addrCh:
		return s, nil
	case <-s.done:
		return nil, fmt.Errorf("serve %s exited before listening: %s", strings.Join(args, " "), lastLines(s.log.String(), 3))
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("serve %s did not report a listening address", strings.Join(args, " "))
	}
}

func (s *server) url() string { return "http://" + s.addr }

// stop sends SIGTERM, waits for a graceful drain, then kills; it returns
// only after the process has exited.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // the process may already be gone
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // best effort; we wait below
		<-s.done
	}
}

// cpu is the process's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return time.Duration(u+st) * clockTick, nil
}

// peakRSSKB is the process's resident-set high-water mark.
func (s *server) peakRSSKB() (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseInt(f[0], 10, 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// diesWithParent makes the kernel kill a child if the benchmark dies
// without stopping it, so no server outlives a crashed run.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// readAndRemove reads a job's output file and deletes it.
func readAndRemove(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	os.Remove(path)
	return data, err
}
