package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// daemon is one running qoeproxy child process. Its shutdown summary
// (stdout) goes to a file. Its log (stderr) is read only up to the
// metrics address; after that the benchmark just counts the bytes, so
// the per-client log lines cost it no parsing.
type daemon struct {
	cmd        *exec.Cmd
	base       string
	stdoutPath string
	logBytes   atomic.Int64
	logHead    bytes.Buffer // the log up to the metrics address
	logDone    chan struct{}
	exited     chan struct{}
	waitErr    error
	http       *http.Client
}

// readLog reads the log until the metrics address line, sending the
// address (or closing addr at EOF), then counts the rest.
func (d *daemon) readLog(r io.Reader, addr chan<- string) {
	defer close(d.logDone)
	br := bufio.NewReaderSize(r, 1<<20)
	for {
		line, err := br.ReadBytes('\n')
		d.logHead.Write(line)
		d.logBytes.Add(int64(len(line)))
		if bytes.Contains(line, []byte(`"msg":"metrics listening"`)) {
			var e struct{ Addr string }
			json.Unmarshal(line, &e)
			addr <- e.Addr
			break
		}
		if err != nil {
			close(addr)
			return
		}
	}
	buf := make([]byte, 1<<20)
	for {
		n, err := br.Read(buf)
		d.logBytes.Add(int64(n))
		if err != nil {
			return
		}
	}
}

// daemonArgs is the qoeproxy command line for a workload: the file
// source with its default batch sizes, the shared model, an ephemeral
// metrics port and the -out sink.
func daemonArgs(s spec, input, model, sink string) []string {
	args := []string{
		"-source", s.source,
		"-input", input,
		"-model", model,
		"-metrics", "127.0.0.1:0",
		"-out", sink,
		"-classify-every", s.tick.String(),
		"-window", s.window.String(),
		// Eviction would drop clients from the shutdown summary the
		// correctness gate compares against.
		"-client-ttl", "0",
	}
	if s.source == "squid" {
		args = append(args, "-follow=false", "-ingest-epoch", "0", "-ingest-horizon", squidHorizon.String())
	}
	return args
}

// startDaemon execs qoeproxy, with its stdout in a file in dir, and
// returns once its metrics endpoint answers /healthz, with the exec and
// ready instants.
func startDaemon(bin string, args []string, dir string) (*daemon, time.Time, time.Time, error) {
	d := &daemon{
		cmd:        exec.Command(bin, args...),
		stdoutPath: filepath.Join(dir, "daemon.stdout"),
		logDone:    make(chan struct{}),
		exited:     make(chan struct{}),
		http:       &http.Client{Timeout: 30 * time.Second},
	}
	// The daemon dies with the benchmark, even when the benchmark is
	// killed before it can stop the daemon itself.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := os.Create(d.stdoutPath)
	if err != nil {
		return nil, time.Time{}, time.Time{}, err
	}
	defer stdout.Close()
	d.cmd.Stdout = stdout
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, time.Time{}, time.Time{}, err
	}
	addr := make(chan string, 1)
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, time.Time{}, time.Time{}, err
	}
	go d.readLog(stderr, addr)
	go func() {
		<-d.logDone
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()
	var a string
	select {
	case a = <-addr:
	case <-time.After(60 * time.Second):
	}
	if a == "" {
		d.kill()
		return nil, time.Time{}, time.Time{}, fmt.Errorf("qoeproxy did not report its metrics address; log:\n%s", d.logHead.String())
	}
	d.base = "http://" + a
	deadline := time.Now().Add(60 * time.Second)
	for {
		if d.healthy() {
			return d, t0, time.Now(), nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, time.Time{}, time.Time{}, fmt.Errorf("qoeproxy /healthz never answered")
		}
		time.Sleep(time.Millisecond)
	}
}

// healthy reports whether /healthz answers 200.
func (d *daemon) healthy() bool {
	resp, err := d.http.Get(d.base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// kill stops the process and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// stop sends SIGTERM and waits for exit. It returns the drain time,
// measured from when the metrics endpoint stops answering: the daemon
// closes it as it takes the signal, just before draining, so a
// classification pass in flight when the signal lands is not counted.
func (d *daemon) stop(timeout time.Duration) (time.Duration, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, err
	}
	deadline := time.Now().Add(timeout)
	for d.healthy() {
		if time.Now().After(deadline) {
			d.kill()
			return 0, fmt.Errorf("qoeproxy still serving %s after SIGTERM", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	select {
	case <-d.exited:
	case <-time.After(timeout):
		d.kill()
		return 0, fmt.Errorf("qoeproxy did not exit within %s of SIGTERM", timeout)
	}
	tExit := time.Now()
	if d.waitErr != nil {
		return 0, fmt.Errorf("qoeproxy exited with %v", d.waitErr)
	}
	return tExit.Sub(t0), nil
}

// sample is one /metrics scrape: unlabelled series by name, labelled
// series summed into their family name.
type sample map[string]float64

func (d *daemon) scrape() (sample, error) {
	resp, err := d.http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	s := sample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if strings.HasSuffix(name[:i], "_bucket") {
				continue
			}
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s[name] += v
	}
	return s, sc.Err()
}

// procCPU returns the CPU time, user and system, that the process's
// threads have used, in seconds: the sum of the scheduler's
// nanosecond run-time counters in /proc/<pid>/task/*/schedstat.
func procCPU(pid int) (float64, error) {
	dir := filepath.Join("/proc", strconv.Itoa(pid), "task")
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty schedstat for task %s", t.Name())
		}
		v, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat for task %s: %w", t.Name(), err)
		}
		ns += v
	}
	return ns / 1e9, nil
}

// procHWM returns the process's peak resident set size in KiB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
