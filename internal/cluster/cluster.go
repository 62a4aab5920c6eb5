// Package cluster implements the distributed CPU backend of PyTFHE over
// real TCP sockets — the role Ray plays in the paper. A Coordinator listens
// for Worker connections, broadcasts the public evaluation key once, then
// drives the wavefront schedule of Algorithm 1: every gate of a ready level
// is submitted to a worker together with its input ciphertexts, and the
// result ciphertext travels back, exactly the per-gate communication
// pattern the paper profiles in Fig. 7 (≈2.46 KB per ciphertext).
//
// Messages are framed with encoding/gob. Workers may host multiple slots
// (cores); each slot owns a gate engine over the shared cloud key.
//
// Two execution paths share the connection: the legacy per-gate dispatch
// (Run), and sharded plan replay (RunSharded), where each worker holds a
// content-addressed slice of the compiled plan and only boundary
// ciphertexts travel per run. See DESIGN.md §14.
package cluster

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pytfhe/internal/circuit"
	"pytfhe/internal/exec"
	"pytfhe/internal/logic"
	"pytfhe/internal/shard"
	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/gate"
	"pytfhe/internal/tfhe/lwe"
	"pytfhe/internal/wire"
)

func init() { wire.Register() }

// ProtoVersion is the coordinator↔worker protocol revision. Version 2
// added the Welcome handshake (version + key-hash check) and the sharded
// plan-replay messages; version 3 ships the cloud key in its fixed-width
// coefficient encoding (boot.CloudKey.MarshalBinary). Older peers are
// rejected with a typed error instead of a gob decode failure downstream.
const ProtoVersion = 3

// Typed handshake and transport errors. Callers match with errors.Is.
var (
	// ErrWorkerLost marks a worker that died mid-run (connection error or
	// a missed per-job read deadline). The coordinator drops the worker
	// and requeues its work onto the survivors; the error only surfaces
	// when no workers remain.
	ErrWorkerLost = errors.New("cluster: worker lost")
	// ErrDial marks a worker that exhausted its dial-retry budget without
	// ever reaching the coordinator.
	ErrDial = errors.New("cluster: coordinator unreachable")
	// ErrHandshake marks a malformed join: the peer spoke, but not the
	// Hello/Welcome/Key sequence the protocol requires.
	ErrHandshake = errors.New("cluster: handshake failed")
	// ErrVersionMismatch marks a peer running a different ProtoVersion.
	ErrVersionMismatch = errors.New("cluster: protocol version mismatch")
	// ErrKeyMismatch marks a worker whose received cloud key does not hash
	// to the coordinator's advertised key — evaluating under it would
	// produce garbage ciphertexts, so the worker refuses to serve.
	ErrKeyMismatch = errors.New("cluster: cloud key mismatch")
)

// DefaultJobTimeout is the per-job read deadline when Coordinator.JobTimeout
// is left zero: generous enough for a wide default128 wavefront batch, small
// enough that a hung worker cannot stall a run forever.
const DefaultJobTimeout = 2 * time.Minute

// DefaultDialTimeout bounds a worker's dial-retry loop when
// Worker.DialTimeout is left zero.
const DefaultDialTimeout = 15 * time.Second

// GateTask ships one gate evaluation: the gate kind and its two input
// ciphertexts for a classic gate, or (Arity != 0) a k-input LUT with its
// truth table and up to one extra operand. C travels only at arity 3, so
// classic tasks keep their pre-LUT wire size.
type GateTask struct {
	Kind  uint8
	A, B  *lwe.Sample
	C     *lwe.Sample // third LUT operand (Arity 3 only)
	TT    uint8       // LUT truth table (Arity >= 2 only)
	Arity uint8       // 0: classic gate; 2..3: k-input LUT
}

// Message is the single wire envelope; exactly one field is set.
type Message struct {
	Hello   *Hello
	Welcome *Welcome
	Key     *boot.CloudKey
	Job     *Job
	Result  *JobResult

	// Sharded plan-replay path (protocol v2).
	ShardInit  *ShardInit
	ShardData  *shard.Shard
	ShardReady *ShardReady
	Step       *ShardStep
	StepResult *ShardStepResult
	Replay     *ShardReplay

	Error string
	Bye   bool
}

// Hello announces a worker: its slot (core) count and protocol version.
type Hello struct {
	Slots   int
	Version int
}

// Welcome acknowledges a Hello before the key broadcast. KeyHash lets the
// worker verify the key it is about to receive matches what the
// coordinator's clients encrypted against.
type Welcome struct {
	Version int
	KeyHash string
}

// Job carries a batch of gate tasks for one wavefront.
type Job struct {
	Seq   int
	Tasks []GateTask
}

// JobResult returns the output ciphertexts of a Job, in task order.
type JobResult struct {
	Seq     int
	Outputs []*lwe.Sample
}

// Stats summarizes a distributed run. BytesSent keeps the paper's Fig. 7
// per-ciphertext estimate (3 × params.CiphertextBytes per gate task); the
// WireBytes counters are measured at the socket via wire.Meter, so framing
// and key traffic show up there but not in the estimate.
type Stats struct {
	Workers     int
	Slots       int
	Levels      int
	Gates       int
	Bootstraps  int
	WorkersLost int // workers dropped mid-run (work requeued on survivors)
	Elapsed     time.Duration
	BytesSent   int64 // ciphertext payload shipped to workers (estimate)

	SamplesSent     int64 // ciphertexts shipped to workers this run
	SamplesReceived int64 // ciphertexts returned by workers this run
	WireBytesSent   int64 // measured bytes written to worker sockets
	WireBytesRecv   int64 // measured bytes read from worker sockets

	// Sharded-replay counters (RunSharded only).
	ShardHits         int   // shards already resident on their worker
	ShardMisses       int   // shards shipped because the worker lacked them
	ShardReships      int   // shards re-installed on a survivor after a loss
	ShardBytesShipped int64 // measured bytes of shard program shipment
	BoundaryBytes     int64 // estimated input+boundary ciphertext traffic
}

// Totals aggregates counters across every run of a coordinator's lifetime;
// the serve daemon reports them in its Stats RPC.
type Totals struct {
	GateRuns      int64
	ShardRuns     int64
	ShardHits     int64
	ShardMisses   int64
	ShardReships  int64
	WireBytesSent int64
	WireBytesRecv int64
	BoundaryBytes int64
	WorkersLost   int64
}

// Coordinator owns the listening socket and the connected workers.
type Coordinator struct {
	ck       *boot.CloudKey
	keyHash  string
	ln       net.Listener
	mu       sync.Mutex
	workers  []*workerConn
	pending  []*workerConn // greeted before the key was bound (serve path)
	plans    map[shardKey]*shard.Sharding
	totals   Totals
	LastStat Stats
	// JobTimeout is the per-job read deadline; a worker that does not
	// answer a job within it is declared lost and its batch is requeued on
	// the survivors. Zero means DefaultJobTimeout.
	JobTimeout time.Duration
}

type workerConn struct {
	conn  net.Conn
	meter *wire.Meter
	enc   *gob.Encoder
	dec   *gob.Decoder
	slots int
}

// NewCoordinator starts listening on addr (e.g. "127.0.0.1:0"). The cloud
// key is broadcast to every worker as it joins.
func NewCoordinator(ck *boot.CloudKey, addr string) (*Coordinator, error) {
	c, err := NewPendingCoordinator(addr)
	if err != nil {
		return nil, err
	}
	if err := c.SetKey(ck); err != nil {
		return nil, errors.Join(err, c.ln.Close())
	}
	return c, nil
}

// NewPendingCoordinator starts listening without a cloud key. Workers that
// join before SetKey are parked after their Hello and complete the
// handshake the moment the key binds — the daemon path, where the key
// arrives with the first client session.
func NewPendingCoordinator(addr string) (*Coordinator, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	return &Coordinator{ln: ln}, nil
}

// SetKey binds the cloud key and completes the handshake of every parked
// worker. Binding a second, different key is an error; rebinding the same
// key is a no-op.
func (c *Coordinator) SetKey(ck *boot.CloudKey) error {
	if ck == nil {
		return fmt.Errorf("%w: nil cloud key", ErrHandshake)
	}
	hash, err := wire.KeyHash(ck)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.ck != nil {
		prev := c.keyHash
		c.mu.Unlock()
		if prev != hash {
			return fmt.Errorf("%w: coordinator already bound to a different key", ErrKeyMismatch)
		}
		return nil
	}
	c.ck = ck
	c.keyHash = hash
	parked := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, w := range parked {
		if err := c.finishJoin(w); err != nil {
			// Audited (see DESIGN.md §13): the parked conn failed its own
			// handshake; dropping it cannot hurt the coordinator.
			//lint:ignore discarded-error evicting a peer that failed its handshake
			w.conn.Close()
		}
	}
	return nil
}

// Addr returns the coordinator's listening address.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// greet wraps a fresh connection in a byte meter and validates its Hello.
func greet(conn net.Conn) (*workerConn, error) {
	m := wire.NewMeter(conn)
	w := &workerConn{conn: conn, meter: m, enc: gob.NewEncoder(m), dec: gob.NewDecoder(m)}
	var hello Message
	if err := w.dec.Decode(&hello); err != nil || hello.Hello == nil {
		return nil, fmt.Errorf("%w: bad hello from %s: %v", ErrHandshake, conn.RemoteAddr(), err)
	}
	if v := hello.Hello.Version; v != ProtoVersion {
		// Best-effort courtesy note; the typed error is the real signal.
		//lint:ignore discarded-error the peer is being rejected either way
		w.enc.Encode(Message{Error: fmt.Sprintf("protocol version %d, want %d", v, ProtoVersion)})
		return nil, fmt.Errorf("%w: worker %s speaks v%d, coordinator v%d", ErrVersionMismatch, conn.RemoteAddr(), v, ProtoVersion)
	}
	w.slots = hello.Hello.Slots
	if w.slots < 1 {
		w.slots = 1
	}
	return w, nil
}

// finishJoin completes a greeted worker's handshake: Welcome, then the key
// broadcast, then roster admission.
func (c *Coordinator) finishJoin(w *workerConn) error {
	c.mu.Lock()
	ck, hash := c.ck, c.keyHash
	c.mu.Unlock()
	if err := w.enc.Encode(Message{Welcome: &Welcome{Version: ProtoVersion, KeyHash: hash}}); err != nil {
		return fmt.Errorf("%w: welcome to %s: %v", ErrHandshake, w.conn.RemoteAddr(), err)
	}
	if err := w.enc.Encode(Message{Key: ck}); err != nil {
		return fmt.Errorf("%w: key broadcast to %s: %v", ErrHandshake, w.conn.RemoteAddr(), err)
	}
	c.mu.Lock()
	c.workers = append(c.workers, w)
	c.mu.Unlock()
	return nil
}

// AcceptWorkers blocks until n workers have joined (each already holding
// the broadcast key). It requires the key to be bound.
func (c *Coordinator) AcceptWorkers(n int) error {
	c.mu.Lock()
	keyed := c.ck != nil
	c.mu.Unlock()
	if !keyed {
		return fmt.Errorf("%w: AcceptWorkers before SetKey", ErrHandshake)
	}
	for c.WorkerCount() < n {
		conn, err := c.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: accept: %w", err)
		}
		w, err := greet(conn)
		if err != nil {
			return errors.Join(err, conn.Close())
		}
		if err := c.finishJoin(w); err != nil {
			return errors.Join(err, conn.Close())
		}
	}
	return nil
}

// ServeJoins accepts workers in the background until the listener closes.
// Workers greeted before the key binds are parked; SetKey drains them. Use
// WaitWorkers to block until a quorum is live. Intended for the daemon,
// where joins and key binding race.
func (c *Coordinator) ServeJoins() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed: Coordinator.Close
		}
		go func(conn net.Conn) {
			w, err := greet(conn)
			if err != nil {
				// Audited (see DESIGN.md §13): a peer that failed its hello
				// was never admitted; nothing to report to.
				//lint:ignore discarded-error evicting a peer that failed its handshake
				conn.Close()
				return
			}
			c.mu.Lock()
			if c.ck == nil {
				c.pending = append(c.pending, w)
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
			if err := c.finishJoin(w); err != nil {
				//lint:ignore discarded-error evicting a peer that failed its handshake
				conn.Close()
			}
		}(conn)
	}
}

// WaitWorkers blocks until at least n workers are on the roster or the
// context expires.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		if c.WorkerCount() >= n {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("cluster: %d of %d workers joined: %w", c.WorkerCount(), n, ctx.Err())
		case <-tick.C:
		}
	}
}

// WorkerCount reports the live roster size.
func (c *Coordinator) WorkerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Totals returns lifetime counters aggregated across runs.
func (c *Coordinator) Totals() Totals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals
}

// dropWorker removes a dead worker from the roster and closes its
// connection; subsequent dispatch rounds no longer see it.
func (c *Coordinator) dropWorker(w *workerConn) {
	c.mu.Lock()
	for i, cur := range c.workers {
		if cur == w {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	// Audited (see DESIGN.md §13): dropWorker only runs after the
	// connection already failed, so Close can report nothing the caller
	// doesn't know; Coordinator.Close, by contrast, joins every error.
	//lint:ignore discarded-error evicting a dead worker; the close error carries no information
	w.conn.Close()
}

// Close shuts down the coordinator and asks workers to exit. Teardown
// continues past individual failures; every error is reported, joined.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	for _, w := range c.workers {
		if err := w.enc.Encode(Message{Bye: true}); err != nil {
			errs = append(errs, fmt.Errorf("cluster: bye to %s: %w", w.conn.RemoteAddr(), err))
		}
		if err := w.conn.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: close %s: %w", w.conn.RemoteAddr(), err))
		}
	}
	c.workers = nil
	for _, w := range c.pending {
		if err := w.conn.Close(); err != nil {
			errs = append(errs, fmt.Errorf("cluster: close parked %s: %w", w.conn.RemoteAddr(), err))
		}
	}
	c.pending = nil
	errs = append(errs, c.ln.Close())
	return errors.Join(errs...)
}

// Name identifies the backend in reports.
func (c *Coordinator) Name() string {
	return fmt.Sprintf("cluster(%d workers)", c.WorkerCount())
}

// meterSnap is a per-connection byte-counter snapshot taken at run start;
// the delta at run end (the meter keeps counting even after a drop) is the
// run's measured wire traffic. Workers that join mid-run have no snapshot
// and are skipped.
type meterSnap struct {
	m      *wire.Meter
	r0, w0 int64
}

func (c *Coordinator) snapMeters() []meterSnap {
	c.mu.Lock()
	defer c.mu.Unlock()
	snaps := make([]meterSnap, 0, len(c.workers))
	for _, w := range c.workers {
		snaps = append(snaps, meterSnap{w.meter, w.meter.BytesRead(), w.meter.BytesWritten()})
	}
	return snaps
}

func settleMeters(snaps []meterSnap, st *Stats) {
	for _, s := range snaps {
		st.WireBytesRecv += s.m.BytesRead() - s.r0
		st.WireBytesSent += s.m.BytesWritten() - s.w0
	}
}

// Run executes the netlist over the connected workers using the wavefront
// schedule. It implements the backend.Backend contract.
func (c *Coordinator) Run(nl *circuit.Netlist, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	if c.ck == nil {
		return nil, fmt.Errorf("%w: run before SetKey", ErrHandshake)
	}
	// Inputs are validated before the worker-count check so callers get the
	// typed exec errors (nil input, bad dimension) even on an empty cluster.
	st, err := exec.NewState(nl, inputs, c.ck.Params.LWEDimension)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	workers := append([]*workerConn(nil), c.workers...)
	c.mu.Unlock()
	if len(workers) == 0 {
		return nil, fmt.Errorf("cluster: no workers connected")
	}
	start := time.Now()
	snaps := c.snapMeters()

	totalSlots := 0
	for _, w := range workers {
		totalSlots += w.slots
	}
	values := st.Values

	stats := Stats{Workers: len(workers), Slots: totalSlots, Gates: len(nl.Gates)}
	for _, g := range nl.Gates {
		if g.NeedsBootstrap() {
			stats.Bootstraps++
		}
	}
	ctBytes := int64(c.ck.Params.CiphertextBytes())
	jobTimeout := c.JobTimeout
	if jobTimeout <= 0 {
		jobTimeout = DefaultJobTimeout
	}
	levels := nl.Levels()
	stats.Levels = len(levels)
	seq := 0
	for _, level := range levels {
		// Dispatch the level, requeueing any lost worker's batch onto the
		// survivors until every gate of the wavefront has a result. The
		// run only fails once no workers remain (or a worker reports an
		// application error, which no retry would fix).
		remaining := level
		for len(remaining) > 0 {
			c.mu.Lock()
			workers = append(workers[:0:0], c.workers...)
			c.mu.Unlock()
			if len(workers) == 0 {
				return nil, fmt.Errorf("cluster: no workers left for level batch of %d gates: %w", len(remaining), ErrWorkerLost)
			}
			// Partition the batch across live workers proportionally to
			// their slot counts.
			parts := partition(remaining, workers)
			type reply struct {
				w    *workerConn
				res  *JobResult
				err  error
				lost bool
				part []int
			}
			ch := make(chan reply, len(workers))
			launched := 0
			for wi, part := range parts {
				if len(part) == 0 {
					continue
				}
				launched++
				tasks := make([]GateTask, len(part))
				for ti, gi := range part {
					g := nl.Gates[gi]
					task := GateTask{Kind: uint8(g.Kind), A: values[g.A], B: values[g.B]}
					if g.IsLUT() {
						task.TT = uint8(g.TT)
						task.Arity = g.Arity
						if g.Arity >= 3 {
							task.C = values[g.C]
						}
					}
					tasks[ti] = task
					ops := int64(g.NumOperands())
					stats.BytesSent += (1 + ops) * ctBytes
					stats.SamplesSent += ops
				}
				go func(w *workerConn, wi, seq int, tasks []GateTask, part []int) {
					if err := w.enc.Encode(Message{Job: &Job{Seq: seq, Tasks: tasks}}); err != nil {
						ch <- reply{w: w, lost: true, part: part,
							err: fmt.Errorf("cluster: send to worker %d: %w", wi, err)}
						return
					}
					// The per-job read deadline turns a hung or silently
					// dead worker into a detectable loss instead of a
					// coordinator that blocks forever. A connection that
					// cannot take a deadline is already broken: same loss.
					if err := w.conn.SetReadDeadline(time.Now().Add(jobTimeout)); err != nil {
						ch <- reply{w: w, lost: true, part: part,
							err: fmt.Errorf("cluster: worker %d deadline: %w", wi, err)}
						return
					}
					var msg Message
					err := w.dec.Decode(&msg)
					if cerr := w.conn.SetReadDeadline(time.Time{}); err == nil && cerr != nil {
						err = fmt.Errorf("cluster: worker %d clear deadline: %w", wi, cerr)
					}
					if err != nil {
						ch <- reply{w: w, lost: true, part: part,
							err: fmt.Errorf("cluster: receive from worker %d: %w", wi, err)}
						return
					}
					if msg.Error != "" {
						ch <- reply{w: w, err: fmt.Errorf("cluster: worker %d: %s", wi, msg.Error)}
						return
					}
					if msg.Result == nil || len(msg.Result.Outputs) != len(tasks) {
						ch <- reply{w: w, lost: true, part: part,
							err: fmt.Errorf("cluster: worker %d returned malformed result", wi)}
						return
					}
					ch <- reply{w: w, res: msg.Result, part: part}
				}(workers[wi], wi, seq, tasks, part)
			}
			seq++
			var retry []int
			var appErr error
			for i := 0; i < launched; i++ {
				r := <-ch
				switch {
				case r.lost:
					c.dropWorker(r.w)
					stats.WorkersLost++
					retry = append(retry, r.part...)
				case r.err != nil:
					appErr = r.err
				default:
					stats.SamplesReceived += int64(len(r.res.Outputs))
					for ti, gi := range r.part {
						values[nl.GateID(gi)] = r.res.Outputs[ti]
					}
				}
			}
			if appErr != nil {
				return nil, appErr
			}
			remaining = retry
		}
		// The wavefront is complete: drop drained operands so coordinator
		// memory follows the live frontier. The ciphertexts came from remote
		// workers, so there is no local free list to return them to.
		for _, gi := range level {
			g := &nl.Gates[gi]
			for k := 0; k < g.NumOperands(); k++ {
				st.Release(g.Operand(k), nil)
			}
		}
	}

	outs, err := st.Collect(c.ck.Params.LWEDimension)
	if err != nil {
		return nil, err
	}
	stats.Elapsed = time.Since(start)
	settleMeters(snaps, &stats)
	c.mu.Lock()
	c.LastStat = stats
	c.totals.GateRuns++
	c.totals.WireBytesSent += stats.WireBytesSent
	c.totals.WireBytesRecv += stats.WireBytesRecv
	c.totals.WorkersLost += int64(stats.WorkersLost)
	c.mu.Unlock()
	return outs, nil
}

// partition splits a level's gate indices across workers in proportion to
// slots.
func partition(level []int, workers []*workerConn) [][]int {
	total := 0
	for _, w := range workers {
		total += w.slots
	}
	parts := make([][]int, len(workers))
	off := 0
	for wi, w := range workers {
		share := len(level) * w.slots / total
		if wi == len(workers)-1 {
			share = len(level) - off
		}
		parts[wi] = level[off : off+share]
		off += share
	}
	return parts
}

// Worker joins a coordinator and serves gate jobs and shard steps until
// the connection closes or a Bye message arrives.
type Worker struct {
	slots int
	// DialTimeout bounds the dial-retry loop: the worker keeps redialing
	// with capped exponential backoff until the budget runs out, then
	// fails with ErrDial. Zero means DefaultDialTimeout.
	DialTimeout time.Duration
	// ShardCache caps the cross-run shard cache (least recently
	// initialized shard evicted first). Zero means DefaultShardCache.
	ShardCache int
}

// DefaultShardCache is the worker's shard-cache capacity when
// Worker.ShardCache is left zero.
const DefaultShardCache = 8

// NewWorker returns a worker that will evaluate jobs on `slots` parallel
// engines.
func NewWorker(slots int) *Worker {
	if slots < 1 {
		slots = 1
	}
	return &Worker{slots: slots}
}

// dial connects to the coordinator, retrying with capped exponential
// backoff (50 ms doubling to 2 s) so a worker started moments before its
// coordinator — the common orchestration race — joins instead of dying.
func (w *Worker) dial(addr string) (net.Conn, error) {
	budget := w.DialTimeout
	if budget <= 0 {
		budget = DefaultDialTimeout
	}
	deadline := time.Now().Add(budget)
	backoff := 50 * time.Millisecond
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().Add(backoff).After(deadline) {
			return nil, fmt.Errorf("%w: %s after %s: %v", ErrDial, addr, budget, err)
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// handshake runs the worker side of the join: Hello out, Welcome and
// key in, with version and key-hash checks surfaced as typed errors.
func (w *Worker) handshake(enc *gob.Encoder, dec *gob.Decoder) (*boot.CloudKey, error) {
	if err := enc.Encode(Message{Hello: &Hello{Slots: w.slots, Version: ProtoVersion}}); err != nil {
		return nil, fmt.Errorf("%w: hello: %v", ErrHandshake, err)
	}
	var wel Message
	if err := dec.Decode(&wel); err != nil {
		return nil, fmt.Errorf("%w: no welcome: %v", ErrHandshake, err)
	}
	if wel.Error != "" {
		// A v1 coordinator never sends Welcome; a v2 one rejects a version
		// skew with an Error note before closing.
		return nil, fmt.Errorf("%w: coordinator: %s", ErrVersionMismatch, wel.Error)
	}
	if wel.Welcome == nil {
		return nil, fmt.Errorf("%w: expected welcome, got %+v", ErrHandshake, wel)
	}
	if wel.Welcome.Version != ProtoVersion {
		return nil, fmt.Errorf("%w: coordinator v%d, worker v%d", ErrVersionMismatch, wel.Welcome.Version, ProtoVersion)
	}
	var keyMsg Message
	if err := dec.Decode(&keyMsg); err != nil || keyMsg.Key == nil {
		return nil, fmt.Errorf("%w: expected key broadcast (%v)", ErrHandshake, err)
	}
	hash, err := wire.KeyHash(keyMsg.Key)
	if err != nil {
		return nil, err
	}
	if wel.Welcome.KeyHash != "" && hash != wel.Welcome.KeyHash {
		return nil, fmt.Errorf("%w: received key %.16s…, coordinator advertised %.16s…", ErrKeyMismatch, hash, wel.Welcome.KeyHash)
	}
	return keyMsg.Key, nil
}

// Serve dials the coordinator and processes jobs until shutdown. It blocks.
func (w *Worker) Serve(addr string) error {
	conn, err := w.dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	ck, err := w.handshake(enc, dec)
	if err != nil {
		return err
	}
	engines := make([]*gate.Engine, w.slots)
	for i := range engines {
		engines[i] = gate.NewEngine(ck)
	}
	shards := newShardCache(w.ShardCache)
	dim := ck.Params.LWEDimension

	for {
		var msg Message
		if err := dec.Decode(&msg); err != nil {
			return nil // connection closed: normal shutdown
		}
		var reply Message
		switch {
		case msg.Bye:
			return nil
		case msg.Job != nil:
			outs, err := w.evalJob(engines, ck, msg.Job)
			if err != nil {
				reply = Message{Error: err.Error()}
			} else {
				reply = Message{Result: &JobResult{Seq: msg.Job.Seq, Outputs: outs}}
			}
		case msg.ShardInit != nil:
			reply = w.handleShardInit(shards, msg.ShardInit)
		case msg.ShardData != nil:
			reply = w.handleShardData(shards, msg.ShardData, dim)
		case msg.Step != nil:
			reply = w.handleStep(shards, engines, msg.Step)
		case msg.Replay != nil:
			reply = w.handleReplay(shards, engines, msg.Replay)
		default:
			reply = Message{Error: "unexpected message"}
		}
		if err := enc.Encode(reply); err != nil {
			return err
		}
	}
}

func (w *Worker) evalJob(engines []*gate.Engine, ck *boot.CloudKey, job *Job) ([]*lwe.Sample, error) {
	outs := make([]*lwe.Sample, len(job.Tasks))
	dim := ck.Params.LWEDimension
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	chunk := (len(job.Tasks) + len(engines) - 1) / len(engines)
	for s := 0; s < len(engines) && s*chunk < len(job.Tasks); s++ {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > len(job.Tasks) {
			hi = len(job.Tasks)
		}
		wg.Add(1)
		go func(eng *gate.Engine, lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				t := job.Tasks[i]
				out := lwe.NewSample(dim)
				var err error
				if t.Arity != 0 {
					ins := [3]*lwe.Sample{t.A, t.B, t.C}
					err = eng.LUT(int(t.Arity), logic.TT(t.TT), out, ins[:t.Arity]...)
				} else {
					err = eng.Binary(logic.Kind(t.Kind), out, t.A, t.B)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				outs[i] = out
			}
		}(engines[s], lo, hi)
	}
	wg.Wait()
	return outs, firstErr
}
