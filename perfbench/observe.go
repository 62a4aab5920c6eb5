package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// promSnapshot is one scrape of a Prometheus text endpoint: series (the
// metric name plus its label set, as printed) to value.
type promSnapshot map[string]float64

// parseProm reads Prometheus text exposition, keeping the series whose
// name starts with prefix. Comment and blank lines are skipped.
func parseProm(r io.Reader, prefix string) (promSnapshot, error) {
	out := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || !strings.HasPrefix(line, prefix) {
			continue
		}
		// The value follows the last space; label values may hold spaces
		// only inside the braces, which end before it.
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || (strings.IndexByte(line, '}') > i) {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// delta is after−before for one counter series. A series missing from
// the after-scrape reads as absent (ok=false), not as an error: the
// benchmark must keep running when a later change drops a counter. A
// series missing only from the before-scrape was first exported during
// the window, and counts from 0.
func delta(before, after promSnapshot, series string) (float64, bool) {
	a, ok := after[series]
	if !ok {
		return 0, false
	}
	return a - before[series], true
}

// histMeanDelta is the mean of the observations a histogram took between
// two scrapes.
func histMeanDelta(before, after promSnapshot, name string) (float64, bool) {
	sum, ok1 := delta(before, after, name+"_sum")
	cnt, ok2 := delta(before, after, name+"_count")
	if !ok1 || !ok2 || cnt == 0 {
		return 0, false
	}
	return sum / cnt, true
}

// scrape fetches and parses the daemon's pytfhed_* series.
func scrape(addr string) (promSnapshot, error) {
	client := http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape: status %s", resp.Status)
	}
	return parseProm(resp.Body, "pytfhed_")
}

// procSample is what /proc says about a process at one instant.
type procSample struct {
	cpu       time.Duration // utime + stime
	rssMB     float64       // VmRSS
	hwmMB     float64       // VmHWM, the peak resident set
	sampledAt time.Time
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture the toolchain targets.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	s := procSample{sampledAt: time.Now()}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// Fields after the parenthesized command name, which may hold spaces.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("proc: short stat for pid %d", pid)
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("proc: bad cpu times for pid %d", pid)
	}
	s.cpu = time.Duration(ut+st) * time.Second / clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return s, err
	}
	s.rssMB, s.hwmMB = statusKB(string(status), "VmRSS:")/1024, statusKB(string(status), "VmHWM:")/1024
	return s, nil
}

// statusKB reads one "Key:   N kB" line of /proc/<pid>/status.
func statusKB(status, key string) float64 {
	for _, line := range strings.Split(status, "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb
		}
	}
	return 0
}

// relay is a loopback TCP proxy that counts the bytes each direction
// carries, so the traced run can attribute wire volume to each phase
// without touching the client or the daemon.
type relay struct {
	ln     net.Listener
	target string
	up     atomic.Int64 // client -> daemon
	down   atomic.Int64 // daemon -> client
	mu     sync.Mutex
	conns  []net.Conn
	wg     sync.WaitGroup
}

func newRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("relay: %w", err)
	}
	r := &relay{ln: ln, target: target}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

// bytes is the total carried in both directions so far.
func (r *relay) bytes() int64 { return r.up.Load() + r.down.Load() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		d, err := net.Dial("tcp", r.target)
		if err != nil {
			c.Close()
			continue
		}
		r.mu.Lock()
		r.conns = append(r.conns, c, d)
		r.mu.Unlock()
		r.wg.Add(2)
		go r.pipe(d, c, &r.up)
		go r.pipe(c, d, &r.down)
	}
}

// pipe copies src to dst, counting bytes, and closes both ends when
// either side finishes so the opposite pipe ends too.
func (r *relay) pipe(dst, src net.Conn, n *atomic.Int64) {
	defer r.wg.Done()
	_, _ = io.Copy(countWriter{dst, n}, src) // ends on close; the close is the signal
	dst.Close()
	src.Close()
}

// close stops accepting, drops every proxied connection and waits for
// the relay's goroutines to exit.
func (r *relay) close() {
	r.ln.Close()
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

type countWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countWriter) Write(p []byte) (int, error) {
	k, err := c.w.Write(p)
	c.n.Add(int64(k))
	return k, err
}
