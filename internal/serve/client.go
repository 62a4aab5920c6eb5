package serve

import (
	"encoding/gob"
	"fmt"
	"net"
	"sync"
	"time"

	"pytfhe/internal/tfhe/boot"
	"pytfhe/internal/tfhe/lwe"
)

// Client is the pytfhed wire client. One client maps to one server
// connection and therefore one session; it is safe for concurrent use,
// with requests serialized over the connection.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

// Dial connects to a pytfhed daemon.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial %s: %w", addr, err)
	}
	return &Client{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}, nil
}

// roundTrip sends one request and decodes the paired response, converting
// wire errors back into the package's typed sentinels.
func (c *Client) roundTrip(req Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("serve: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("serve: receive: %w", err)
	}
	if resp.Err != nil {
		return nil, resp.Err.Err()
	}
	return &resp, nil
}

// RegisterProgram uploads a PyTFHE binary for admission into the server's
// program registry and returns its content hash plus compile-time stats.
// Registering the same binary twice is a cache hit (Cached=true).
func (c *Client) RegisterProgram(bin []byte) (*ProgramInfo, error) {
	resp, err := c.roundTrip(Request{Register: &RegisterProgram{Binary: bin}})
	if err != nil {
		return nil, err
	}
	if resp.Program == nil {
		return nil, fmt.Errorf("serve: register: malformed response")
	}
	return resp.Program, nil
}

// OpenSession uploads the cloud evaluation key for this connection. Every
// Evaluate call afterwards runs under it.
func (c *Client) OpenSession(ck *boot.CloudKey) (*SessionInfo, error) {
	key, err := ck.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("serve: open session: %w", err)
	}
	resp, err := c.roundTrip(Request{Open: &OpenSession{Key: key}})
	if err != nil {
		return nil, err
	}
	if resp.Session == nil {
		return nil, fmt.Errorf("serve: open session: malformed response")
	}
	return resp.Session, nil
}

// Evaluate runs a registered program over the session's key with the
// server's default timeout.
func (c *Client) Evaluate(programHash string, inputs []*lwe.Sample) ([]*lwe.Sample, error) {
	return c.EvaluateTimeout(programHash, inputs, 0)
}

// EvaluateTimeout is Evaluate with an explicit per-request timeout
// (0 keeps the server default).
func (c *Client) EvaluateTimeout(programHash string, inputs []*lwe.Sample, timeout time.Duration) ([]*lwe.Sample, error) {
	req := &EvalRequest{ProgramHash: programHash, Inputs: inputs}
	if timeout > 0 {
		req.TimeoutMs = timeout.Milliseconds()
		if req.TimeoutMs == 0 {
			req.TimeoutMs = 1 // sub-millisecond timeouts still time out
		}
	}
	resp, err := c.roundTrip(Request{Eval: req})
	if err != nil {
		return nil, err
	}
	if resp.Eval == nil {
		return nil, fmt.Errorf("serve: evaluate: malformed response")
	}
	return resp.Eval.Outputs, nil
}

// Stats fetches a server statistics snapshot.
func (c *Client) Stats() (*StatsReply, error) {
	resp, err := c.roundTrip(Request{Stats: &StatsRequest{}})
	if err != nil {
		return nil, err
	}
	if resp.Stats == nil {
		return nil, fmt.Errorf("serve: stats: malformed response")
	}
	return resp.Stats, nil
}

// Close says goodbye and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	_ = c.enc.Encode(Request{Bye: true}) // best effort; the close is authoritative
	return c.conn.Close()
}
