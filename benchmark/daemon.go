package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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
)

// daemonBinary builds cmd/mvpserve from the checkout's sources, once per
// process, into the run's scratch directory.
func (e *env) daemonBinary() (string, error) {
	if e.daemon != "" {
		return e.daemon, nil
	}
	bin := filepath.Join(e.tmp, "mvpserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/mvpserve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/mvpserve: %v\n%s", err, out)
	}
	e.daemon = bin
	return bin, nil
}

// daemon is one running mvpserve subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	client *http.Client
	exited chan error
	log    *bytes.Buffer
}

const healthTimeout = 30 * time.Second

// startDaemon executes the real mvpserve binary on a free port with a
// fresh snapshot directory and waits for the first 200 on /healthz; the
// returned duration runs from exec to that reply, so it includes the
// index build and the snapshot save.
func startDaemon(e *env, n int, dir string) (*daemon, time.Duration, error) {
	bin, err := e.daemonBinary()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-n", strconv.Itoa(n), "-dim", strconv.Itoa(dim),
		"-shards", strconv.Itoa(procs), "-workers", strconv.Itoa(procs), "-buildworkers", strconv.Itoa(procs),
		"-dir", dir, "-dataseed", strconv.FormatUint(e.seed, 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan error, 1), log: &bytes.Buffer{}}
	d.client = &http.Client{
		Timeout: 5 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs, DisableCompression: true,
		},
	}
	cmd.Stderr = d.log
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	// The daemon prints its bound address; everything it prints is kept
	// for the error message should it fail.
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "mvpserve: listening on "); ok {
				addr <- rest
			}
		}
		d.exited <- cmd.Wait()
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exited:
		return nil, 0, fmt.Errorf("mvpserve exited before listening: %v\n%s", err, d.log)
	case <-time.After(healthTimeout):
		d.stop()
		return nil, 0, fmt.Errorf("mvpserve did not listen within %v\n%s", healthTimeout, d.log)
	}
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Since(start) > healthTimeout {
			d.stop()
			return nil, 0, fmt.Errorf("mvpserve was not healthy within %v\n%s", healthTimeout, d.log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to exit and waits until it has, killing it if it
// has not drained within ten seconds.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
	d.cmd.Process = nil
}

// rssBytes reads the daemon's resident set size from /proc.
func (d *daemon) rssBytes() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb * 1024, err
		}
	}
	return 0, errors.New("no VmRSS line in /proc status")
}

// endpointStats is the part of GET /stats the ledger reads.
type endpointStats struct {
	Rejected  int64 `json:"rejected"`
	Cancelled int64 `json:"cancelled"`
	Batches   int64 `json:"batches"`
	Queries   int64 `json:"queries"`
}

type daemonStats struct {
	Range endpointStats `json:"range"`
	KNN   endpointStats `json:"knn"`
	Obs   struct {
		Distances int64 `json:"distances"`
	} `json:"obs"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := d.client.Get(d.base + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// reply is one HTTP answer as the load generator keeps it.
type reply struct {
	status int
	err    error
	body   []byte // the whole body for kNN; for range only while the sample budget lasts
	bytes  int
	count  int // the "count" field, -1 when absent
}

var countKey = []byte(`"count":`)

// parseCount reads the "count" field without decoding the body: the
// server marshals a map, so keys are sorted and count leads.
func parseCount(body []byte) int {
	i := bytes.Index(body, countKey)
	if i < 0 {
		return -1
	}
	rest := body[i+len(countKey):]
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	n, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return n
}

// post sends one query and reads the whole reply.
func (d *daemon) post(path string, body []byte, keepBody bool) reply {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err, count: -1}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	r := reply{status: resp.StatusCode, err: err, bytes: len(raw), count: parseCount(raw)}
	if keepBody {
		r.body = raw
	}
	return r
}
