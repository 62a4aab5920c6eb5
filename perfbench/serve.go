package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pytfhe/internal/core"
	"pytfhe/internal/params"
	"pytfhe/internal/serve"
	"pytfhe/internal/wire"
)

// tenant is one cloud key with its program and its clients.
type tenant struct {
	role    string // "bulk" or "interactive": names its per-layer metrics
	prog    *program
	clients int
	period  time.Duration // open-loop send period; 0 for closed loop
}

// serveConfig describes one serve workload.
type serveConfig struct {
	params     *params.GateParams
	daemonArgs []string
	tenants    []tenant
	latencyOf  string // role whose requests feed latency_p50_s/_tail_s; "" for all
	setups     int    // set-ups per run; setup_s is their median
}

// conn is one client connection: one session under its tenant's key.
type conn struct {
	t    *tenant
	kp   *core.KeyPair
	c    *serve.Client
	hash string // registered program hash
	id   int    // seeds this connection's request stream
}

// system is a started daemon with its sessions open and programs warm.
type system struct {
	d     *daemon
	rl    *relay // traced runs only
	conns []*conn
	keys  []*core.KeyPair

	setupS                      float64
	sessionBytes, registerBytes float64
	warm                        []reqRecord
	rssAfterSetupMB             float64
	programBoots                int // bootstraps of the programs as the daemon admitted them
}

func (s *system) close() {
	for _, c := range s.conns {
		if c.c != nil {
			_ = c.c.Close() // the daemon is stopped next; nothing to report
		}
	}
	if s.rl != nil {
		s.rl.close()
	}
	s.d.stop()
}

// tenantSeed derives a tenant's key seed from the workload seed.
func tenantSeed(seed int64, i int) []byte {
	return []byte(fmt.Sprintf("perfbench-%d-tenant-%d", seed, i))
}

// setupSystem starts pytfhed and brings it to its first measured request:
// key generation, one session per client, program registration and one
// warm-up evaluation per program. Its wall time is one setup_s sample.
func setupSystem(ctx context.Context, e *env, cfg *serveConfig) (*system, error) {
	start := time.Now()
	d, err := startDaemon(e, cfg.daemonArgs...)
	if err != nil {
		return nil, err
	}
	s := &system{d: d}
	fail := func(err error) (*system, error) {
		s.close()
		return nil, err
	}
	addr := d.addr
	if e.trace {
		if s.rl, err = newRelay(d.addr); err != nil {
			return fail(err)
		}
		addr = s.rl.addr()
	}
	for i := range cfg.tenants {
		_, end := e.tr.begin("core.keygen", 0, 0)
		kp, err := core.GenerateKeysSeeded(cfg.params, tenantSeed(e.seed, i))
		end()
		if err != nil {
			return fail(fmt.Errorf("keygen: %w", err))
		}
		s.keys = append(s.keys, kp)
	}
	var firsts []*conn // each tenant's first connection registers and warms up
	for i := range cfg.tenants {
		t := &cfg.tenants[i]
		var hash string
		for j := 0; j < t.clients; j++ {
			c, err := serve.Dial(addr)
			if err != nil {
				return fail(err)
			}
			cn := &conn{t: t, kp: s.keys[i], c: c, id: len(s.conns)}
			s.conns = append(s.conns, cn)
			b0 := s.relayBytes()
			_, end := e.tr.begin("serve.open_session", 0, 0)
			_, err = c.OpenSession(cn.kp.Cloud)
			end()
			s.sessionBytes += float64(s.relayBytes() - b0)
			if err != nil {
				return fail(fmt.Errorf("open session: %w", err))
			}
			if j == 0 {
				b0 := s.relayBytes()
				_, end := e.tr.begin("serve.register", 0, 0)
				info, err := c.RegisterProgram(t.prog.prog.Binary)
				end()
				s.registerBytes += float64(s.relayBytes() - b0)
				if err != nil {
					return fail(fmt.Errorf("register %s: %w", t.prog.name, err))
				}
				hash = info.Hash
				s.programBoots += info.Bootstrapped
				firsts = append(firsts, cn)
			}
			cn.hash = hash
		}
	}
	for _, cn := range firsts {
		rng := rand.New(rand.NewSource(e.seed*7919 + int64(cn.id)))
		_, end := e.tr.begin("serve.warmup_eval", 0, 0)
		r := doRequest(ctx, e, cn, rng, time.Now())
		end()
		s.warm = append(s.warm, r)
	}
	s.setupS = time.Since(start).Seconds()
	if ps, err := readProc(d.pid()); err == nil {
		s.rssAfterSetupMB = ps.rssMB
	}
	return s, nil
}

func (s *system) relayBytes() int64 {
	if s.rl == nil {
		return 0
	}
	return s.rl.bytes()
}

// reqRecord is one evaluation request as the generator saw it.
type reqRecord struct {
	conn      int
	role      string
	weight    int
	due, sent time.Time
	done      time.Time
	encryptS  float64
	decryptS  float64
	err       error // evaluate error or wrong output
	transport bool  // err came from Evaluate; the client stops
	openLoop  bool  // sent on a schedule, so due may precede sent
}

func (r reqRecord) latency() float64 { return r.done.Sub(r.due).Seconds() }

// reqIDs numbers requests so the spans of one request share an id.
var reqIDs atomic.Int64

// doRequest draws an input, encrypts it, waits until due, evaluates it and
// checks the decrypted output against the plaintext reference.
func doRequest(ctx context.Context, e *env, cn *conn, rng *rand.Rand, due time.Time) reqRecord {
	id := int(reqIDs.Add(1))
	root, endReq := e.tr.begin("client.request", 0, id)
	defer endReq()
	r := reqRecord{conn: cn.id, role: cn.t.role, weight: cn.t.prog.weight, due: due, openLoop: cn.t.period > 0}
	bits, check := cn.t.prog.request(rng)
	_, end := e.tr.begin("core.encrypt", root, id)
	cts := cn.kp.EncryptBits(bits)
	r.encryptS = end().Seconds()
	if wait := time.Until(due); wait > 0 {
		select {
		case <-ctx.Done():
			r.err, r.transport = ctx.Err(), true
			return r
		case <-time.After(wait):
		}
	}
	r.sent = time.Now()
	if !r.openLoop {
		r.due = r.sent // closed loop: timed from send, encryption excluded
	}
	_, end = e.tr.begin("serve.evaluate", root, id)
	outs, err := cn.c.Evaluate(cn.hash, cts)
	end()
	r.done = time.Now()
	if err != nil {
		r.err, r.transport = err, true
		return r
	}
	_, end = e.tr.begin("core.decrypt", root, id)
	got := cn.kp.DecryptBits(outs)
	r.decryptS = end().Seconds()
	r.err = check(got)
	return r
}

// runWindow drives every connection. Closed-loop clients send their next
// request as soon as the previous one returns, until the window closes;
// requests already sent run to completion. Open-loop clients send on
// their tenant's period until the window closes and every closed-loop
// client is done, so the load mix stays the same to the end.
func runWindow(ctx context.Context, e *env, s *system) (start time.Time, recs []reqRecord) {
	start = time.Now()
	deadline := start.Add(e.window)
	var mu sync.Mutex
	var wg, closedWG sync.WaitGroup
	closedDone := make(chan struct{}) // closed once every closed-loop client is done
	for _, cn := range s.conns {
		cn := cn
		open := cn.t.period > 0
		wg.Add(1)
		if !open {
			closedWG.Add(1)
		}
		go func() {
			defer wg.Done()
			if !open {
				defer closedWG.Done()
			}
			rng := rand.New(rand.NewSource(e.seed*104729 + int64(cn.id)))
			for i := 0; ; i++ {
				due := time.Now()
				if open {
					due = start.Add(time.Duration(i) * cn.t.period)
				}
				if !due.Before(deadline) {
					if !open {
						return
					}
					// Past the window the schedule runs on only while a
					// closed-loop client still has a request in flight.
					select {
					case <-closedDone:
						return
					case <-time.After(time.Until(due)):
					}
					select {
					case <-closedDone:
						return
					default:
					}
				}
				r := doRequest(ctx, e, cn, rng, due)
				mu.Lock()
				recs = append(recs, r)
				mu.Unlock()
				if r.transport {
					return // the connection or the run is over; the failure is recorded
				}
			}
		}()
	}
	go func() {
		closedWG.Wait()
		close(closedDone)
	}()
	wg.Wait()
	return start, recs
}

// windowSummary is the end-to-end view of one window.
type windowSummary struct {
	attempted, failed int
	latencies         []float64
	throughput        float64 // Σ weight of correct requests / s
	byConn            map[int]float64
	span              time.Duration
}

// summarize computes the window's metrics. Throughput is summed per
// connection, each over its own whole requests — Σ weight of its correct
// requests ÷ (its last response − window start) — so neither a request
// cut by the window edge nor a client idling while another drains adds
// spread.
func summarize(start time.Time, recs []reqRecord, latencyOf string) windowSummary {
	var w windowSummary
	end := start
	boots := map[int]int{}
	last := map[int]time.Time{}
	for _, r := range recs {
		w.attempted++
		if r.done.After(end) {
			end = r.done
		}
		if r.done.After(last[r.conn]) {
			last[r.conn] = r.done
		}
		if r.err != nil {
			w.failed++
			continue
		}
		boots[r.conn] += r.weight
		if latencyOf == "" || r.role == latencyOf {
			w.latencies = append(w.latencies, r.latency())
		}
	}
	w.span = end.Sub(start)
	w.byConn = map[int]float64{}
	for c, b := range boots {
		w.byConn[c] = float64(b) / last[c].Sub(start).Seconds()
		w.throughput += w.byConn[c]
	}
	return w
}

// runServe is the body both serve workloads share.
func runServe(ctx context.Context, e *env, cfg *serveConfig) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var warm []reqRecord
	var sys *system
	for i := 0; i < cfg.setups; i++ {
		s, err := setupSystem(ctx, e, cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s.setupS)
		warm = append(warm, s.warm...)
		for _, r := range s.warm {
			out.attempted++
			if r.err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "warm-up %s: %v\n", r.role, r.err)
			}
		}
		if i < cfg.setups-1 {
			s.close()
			continue
		}
		sys = s
	}
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()

	var before, after promSnapshot
	var p0, p1 procSample
	var b0 int64
	if e.trace {
		var err error
		if before, err = scrape(sys.d.metricsAddr); err != nil {
			return nil, err
		}
		if p0, err = readProc(sys.d.pid()); err != nil {
			return nil, err
		}
		b0 = sys.relayBytes()
	}
	start, recs := runWindow(ctx, e, sys)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w := summarize(start, recs, cfg.latencyOf)
	ps, err := readProc(sys.d.pid())
	if err != nil {
		return nil, err
	}
	if e.trace {
		if after, err = scrape(sys.d.metricsAddr); err != nil {
			return nil, err
		}
		p1 = ps
	}
	for _, r := range recs {
		if r.err != nil {
			fmt.Fprintf(os.Stderr, "request %s: %v\n", r.role, r.err)
		}
	}
	out.attempted += w.attempted
	out.failed += w.failed

	tailV, tailP, tailN := tail(w.latencies)
	out.e2e["setup_s"] = median(setups)
	out.e2e["latency_p50_s"] = median(w.latencies)
	out.e2e["latency_tail_s"] = tailV
	out.e2e["throughput_boots_per_s"] = w.throughput
	out.e2e["peak_rss_mb"] = ps.hwmMB
	out.e2e["program_bootstraps"] = float64(sys.programBoots)

	out.record["params"] = cfg.params.Name
	out.record["daemon_args"] = cfg.daemonArgs
	out.record["setup_samples_s"] = setups
	out.record["latency_tail"] = map[string]any{"percentile": tailP, "n": tailN}
	out.record["window_s"] = w.span.Seconds()
	out.record["latency_samples_s"] = w.latencies
	out.record["throughput_by_conn"] = w.byConn
	out.record["window_requests"] = w.attempted
	progs := map[string]any{}
	for _, t := range cfg.tenants {
		progs[t.prog.name] = map[string]any{"weight": t.prog.weight, "bootstrapped": t.prog.prog.Stats.Bootstrapped,
			"depth": t.prog.prog.Stats.Depth, "gates": t.prog.prog.Stats.Gates}
	}
	out.record["programs"] = progs

	if !e.trace {
		return out, nil
	}
	labels := map[string]string{}
	for i, t := range cfg.tenants {
		h, err := wire.KeyHash(sys.keys[i].Cloud)
		if err != nil {
			return nil, err
		}
		labels[t.role] = h[:8]
	}
	d := daemonDeltas{before: before, after: after, p0: p0, p1: p1, labels: labels}
	out.layer["wire.session_bytes"] = sys.sessionBytes / float64(len(sys.conns))
	out.layer["wire.register_bytes"] = sys.registerBytes / float64(len(cfg.tenants))
	out.layer["wire.eval_bytes"] = float64(sys.relayBytes()-b0) / float64(max(w.attempted, 1))
	out.layer["serve.daemon_rss_mb_after_setup"] = sys.rssAfterSetupMB
	kp := sys.keys[0]
	sys.close()
	sys = nil

	daemonLayers(out, d, w)
	clientLayers(out, e, warm, recs)
	if err := kernelProbes(out, kp); err != nil {
		return nil, err
	}
	out.layer["exec.kernel_efficiency"] = w.throughput * out.layer["gate.nand_ms"] / 1e3 / float64(runtime.NumCPU())
	if err := compileProbes(out, e.tr, cfg.tenants[0].prog, cfg.params); err != nil {
		return nil, err
	}
	out.traceOverhead()
	return out, nil
}
