package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat;
// Linux has fixed it at 100 on every architecture Go runs on.
const clockTick = 100

// procCPU returns the user+system CPU time a process has used so far, all
// threads, read from /proc/<pid>/stat ("self" reads this process).
func procCPU(pid string) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	fields := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: %d fields", pid, len(fields))
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad utime/stime %q %q", pid, fields[11], fields[12])
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSSMB returns VmHWM, the peak resident set, in MB.
func procPeakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("/proc/%s/status: no VmHWM line", pid)
}

// serverProc is one running csrserver.
type serverProc struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    bytes.Buffer
	exited chan error // receives cmd.Wait's result once
	ended  bool       // stop has already waited for it
}

func (s *serverProc) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// startServer launches csrserver on a free loopback port and returns once
// /healthz answers 200. extra carries the observability flags of the
// traced run; the measured run passes none.
func startServer(in *inputs, graph string, procs, cacheMB int, extra ...string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{"-graph", in.graphFile, "-addr", addr,
		"-procs", strconv.Itoa(procs), "-cache-mb", strconv.Itoa(cacheMB)}
	if graph == "mmap" {
		args = append(args, "-mmap")
	}
	s := &serverProc{
		cmd:    exec.Command(filepath.Join(in.bin, "csrserver"), append(args, extra...)...),
		base:   "http://" + addr,
		exited: make(chan error, 1),
	}
	s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { s.exited <- s.cmd.Wait() }()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			return nil, fmt.Errorf("csrserver exited before it was ready: %v\n%s", err, s.log.String())
		default:
		}
		if resp, err := http.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("csrserver not ready after 60s\n%s", s.log.String())
}

// stop kills the server and waits until the process has ended; a second
// call does nothing. csrserver has no graceful shutdown, so a kill is also
// what an operator would send.
func (s *serverProc) stop() {
	if s.ended {
		return
	}
	s.ended = true
	s.cmd.Process.Kill()
	<-s.exited
}

// newClient returns a keep-alive client holding up to conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// fetch GETs one pooled request into buf and returns the body.
func fetch(c *http.Client, base string, r *request, buf *bytes.Buffer) ([]byte, error) {
	resp, err := c.Get(base + r.url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// The reply rows of the three endpoints.
type (
	existsRow struct {
		U, V   uint32
		Exists bool
	}
	degreeRow struct {
		Node   uint32
		Degree int
	}
	neighborsRow struct {
		Node      uint32
		Neighbors []uint32
	}
)

// verifyBody decodes a reply and compares every row with the oracle:
// present or absent, degree, or the full sorted row.
func verifyBody(r *request, body []byte, o *oracle) error {
	switch r.op {
	case "exists":
		var rows []existsRow
		if err := json.Unmarshal(body, &rows); err != nil {
			return err
		}
		if len(rows) != len(r.edges) {
			return fmt.Errorf("%d rows for %d probes", len(rows), len(r.edges))
		}
		for i, e := range r.edges {
			if want := (existsRow{e.U, e.V, o.exists(e.U, e.V)}); rows[i] != want {
				return fmt.Errorf("probe %d: got %+v, oracle says %+v", i, rows[i], want)
			}
		}
	case "degree":
		var rows []degreeRow
		if err := json.Unmarshal(body, &rows); err != nil {
			return err
		}
		if len(rows) != len(r.nodes) {
			return fmt.Errorf("%d rows for %d nodes", len(rows), len(r.nodes))
		}
		for i, u := range r.nodes {
			if want := (degreeRow{u, o.degree(u)}); rows[i] != want {
				return fmt.Errorf("node %d: got %+v, oracle says %+v", i, rows[i], want)
			}
		}
	case "neighbors":
		var rows []neighborsRow
		if err := json.Unmarshal(body, &rows); err != nil {
			return err
		}
		if len(rows) != len(r.nodes) {
			return fmt.Errorf("%d rows for %d nodes", len(rows), len(r.nodes))
		}
		for i, u := range r.nodes {
			if rows[i].Node != u || !slices.Equal(rows[i].Neighbors, o.row(u)) {
				return fmt.Errorf("node %d (id %d): %d neighbors, oracle has %d, or they differ",
					i, u, len(rows[i].Neighbors), o.degree(u))
			}
		}
	}
	return nil
}

// gate is the correctness gate: every pooled request is sent once, its
// reply checked against the oracle, and its length and FNV-64 recorded for
// the cheap checks of the timed phase. The first mismatch fails the run.
func gate(base string, pool []request, o *oracle, conns int) error {
	c := newClient(conns)
	defer c.CloseIdleConnections()
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := g; i < len(pool) && errs[g] == nil; i += conns {
				r := &pool[i]
				body, err := fetch(c, base, r, &buf)
				if err == nil {
					err = verifyBody(r, body, o)
				}
				if err != nil {
					errs[g] = fmt.Errorf("request %d (%.120s): %w", i, r.url, err)
				}
				r.wantLen, r.wantHash = len(body), fnv64(body)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// loopResult is what a closed or open loop saw.
type loopResult struct {
	samples   []sample
	attempted int64
	failed    int64
	firstErr  error
}

// loopFunc is one stretch of a closed loop: it issues pooled requests from
// index start on until stop is closed and reports what it saw.
type loopFunc func(start int64, stop <-chan struct{}) loopResult

// closedLoop drives the server with conns keep-alive connections, one
// goroutine each, the next request only after the previous reply, until
// stop is closed. Worker g walks the pool from start+g in steps of conns, so
// the request order is a function of the pool and of how far earlier
// stretches got. Every reply is checked for status and length, one in 64 for
// its hash. origin is the clock origin of the samples.
func closedLoop(c *http.Client, base string, pool []request, conns int, origin time.Time) loopFunc {
	return func(start int64, stop <-chan struct{}) loopResult {
		results := make([]loopResult, conns)
		var wg sync.WaitGroup
		for g := 0; g < conns; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res := &results[g]
				var buf bytes.Buffer
				for i := int(start%int64(len(pool))) + g; ; i += conns {
					select {
					case <-stop:
						return
					default:
					}
					r := &pool[i%len(pool)]
					t0 := time.Now()
					body, err := fetch(c, base, r, &buf)
					t1 := time.Now()
					res.attempted++
					switch {
					case err != nil:
					case len(body) != r.wantLen:
						err = fmt.Errorf("body of %d bytes, verified reply had %d", len(body), r.wantLen)
					case res.attempted%64 == 0 && fnv64(body) != r.wantHash:
						err = fmt.Errorf("body hash differs from the verified reply")
					}
					if err != nil {
						res.failed++
						if res.firstErr == nil {
							res.firstErr = fmt.Errorf("request %d (%.120s): %w", i%len(pool), r.url, err)
						}
						continue
					}
					res.samples = append(res.samples, sample{
						doneNS: t1.Sub(origin).Nanoseconds(), latNS: t1.Sub(t0).Nanoseconds(),
						req: int32(i % len(pool)), items: int32(r.items()), bytes: int64(len(body)),
					})
				}
			}()
		}
		wg.Wait()
		var out loopResult
		for i := range results {
			out.merge(&results[i], true)
		}
		return out
	}
}

// merge adds what another stretch saw; its samples only when asked.
func (l *loopResult) merge(r *loopResult, samples bool) {
	if samples {
		l.samples = append(l.samples, r.samples...)
	}
	l.attempted += r.attempted
	l.failed += r.failed
	if l.firstErr == nil {
		l.firstErr = r.firstErr
	}
}

// measured is the result of one warm-up + windows run of a closed loop:
// the windows, every sample inside them, and the counts of the whole run.
type measured struct {
	windows []window
	loopResult
}

// measureLoop runs the loop for the warm-up and then one window at a time,
// reading the CPU time of pid around each, and calls between (if any) after
// every window with the loop at rest. The windows of a run are thereby
// spread over its whole length: this sandbox runs for stretches of ten to
// thirty seconds at one of two speeds a quarter apart (README, "Why the
// bounds are this wide"), and a metric whose samples all fall into one
// stretch reports the stretch, not the program.
func measureLoop(p profile, pid string, loop loopFunc, between func(window int) error) (measured, error) {
	var m measured
	runFor := func(seconds float64) loopResult {
		stop := make(chan struct{})
		timer := time.AfterFunc(time.Duration(seconds*float64(time.Second)), func() { close(stop) })
		defer timer.Stop()
		return loop(m.attempted, stop)
	}
	warm := runFor(p.WarmupS)
	m.merge(&warm, false)
	for i := 0; i < p.Windows; i++ {
		cpu0, err := procCPU(pid)
		if err != nil {
			return m, err
		}
		t0 := time.Now()
		res := runFor(p.WindowS)
		elapsed := time.Since(t0)
		cpu1, err := procCPU(pid)
		if err != nil {
			return m, err
		}
		if len(res.samples) == 0 {
			return m, fmt.Errorf("window %d completed no operation; lengthen the windows", i)
		}
		m.windows = append(m.windows, newWindow(res.samples, elapsed.Seconds(), float64((cpu1-cpu0).Microseconds())))
		m.merge(&res, true)
		if between != nil {
			if err := between(i); err != nil {
				return m, err
			}
		}
	}
	return m, nil
}

// openLoop sends the pool at a fixed rate for the given time whether or
// not earlier replies have arrived, timing each request from when it was
// due. It reports the latency samples and the share of requests the
// generator itself sent more than a millisecond late.
func openLoop(base string, pool []request, rate int, seconds float64) (latMS []float64, lateShare float64, res loopResult) {
	const maxInflight = 512 // beyond this the backlog is the result, not more goroutines
	c := newClient(maxInflight)
	defer c.CloseIdleConnections()
	n := int(float64(rate) * seconds)
	lat := make([]float64, n)
	var late, failed atomic.Int64
	sem := make(chan struct{}, maxInflight)
	bufs := sync.Pool{New: func() any { return new(bytes.Buffer) }}
	var wg sync.WaitGroup
	origin := time.Now()
	for k := 0; k < n; k++ {
		due := origin.Add(time.Duration(k) * time.Second / time.Duration(rate))
		time.Sleep(time.Until(due))
		sem <- struct{}{}
		if time.Since(due) > time.Millisecond {
			late.Add(1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			buf := bufs.Get().(*bytes.Buffer)
			defer bufs.Put(buf)
			r := &pool[k%len(pool)]
			body, err := fetch(c, base, r, buf)
			lat[k] = float64(time.Since(due).Nanoseconds()) / 1e6
			if err != nil || len(body) != r.wantLen {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	return lat, float64(late.Load()) / float64(n), loopResult{attempted: int64(n), failed: failed.Load()}
}

// scrape copies the server's own reports verbatim; an endpoint that is
// absent or not JSON is recorded as such, not interpreted.
func scrape(base string) map[string]any {
	out := make(map[string]any)
	for _, path := range []string{"/stats", "/metrics", "/debug/traces/summary"} {
		resp, err := http.Get(base + path)
		if err != nil {
			out[path] = map[string]string{"error": err.Error()}
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch {
		case resp.StatusCode != http.StatusOK:
			out[path] = map[string]any{"status": resp.StatusCode}
		case json.Valid(body):
			out[path] = json.RawMessage(body)
		default:
			out[path] = string(body)
		}
	}
	return out
}

// cacheHitRatio adds up every "hits" and "misses" pair anywhere in a
// scraped /stats (one cache on the plain server, one per shard replica on
// the sharded one) and returns hits over lookups; 0 when /stats is absent,
// is not JSON or counts no lookup.
func cacheHitRatio(stats any) float64 {
	rawJSON, ok := stats.(json.RawMessage)
	if !ok {
		return 0
	}
	var doc any
	if json.Unmarshal(rawJSON, &doc) != nil {
		return 0
	}
	var hits, misses float64
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			h, okH := v["hits"].(float64)
			m, okM := v["misses"].(float64)
			if okH && okM {
				hits += h
				misses += m
			}
			for _, child := range v {
				walk(child)
			}
		case []any:
			for _, child := range v {
				walk(child)
			}
		}
	}
	walk(doc)
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}
