package netblock

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hpbd/internal/wire"
)

// Client errors.
var (
	ErrClosed     = errors.New("netblock: client closed")
	ErrRejected   = errors.New("netblock: server rejected attach")
	ErrRemote     = errors.New("netblock: remote error")
	ErrOutOfRange = errors.New("netblock: I/O out of range")
	ErrBadSize    = errors.New("netblock: invalid I/O size")
	ErrLostConn   = errors.New("netblock: connection lost")
)

// Client is a remote-memory block device over TCP. ReadAt/WriteAt are
// safe for concurrent use; up to `credits` requests are pipelined on the
// wire (the paper's water-mark flow control).
type Client struct {
	conn    net.Conn
	size    int64
	credits chan struct{}

	// Outgoing frames queue under wmu and are flushed by whichever issuer
	// finds no flush in progress; concurrent issuers' frames coalesce into
	// a single writev (one syscall per burst instead of per frame — the
	// socket analogue of the doorbell batching in the simulated client).
	wmu       sync.Mutex
	wq        net.Buffers
	wqSpare   net.Buffers // the retired queue, reused to avoid churn
	wflushing bool
	wlost     bool
	// wout is the active flusher's shadow of the batch it writes: WriteTo
	// consumes its receiver, and a field keeps that receiver off the heap.
	wout net.Buffers

	// pmu guards the request records and the connection state. recs is
	// indexed by the low 32 bits of a wire handle and only grows; free
	// chains the records no caller holds.
	pmu     sync.Mutex
	recs    []*req
	free    *req
	closed  bool
	lostErr error

	// stages attributes each request's wall-clock latency to the shared
	// critical-path taxonomy (see stages.go).
	stages stageAcc

	wg sync.WaitGroup
}

// req is one request record, owned by the client and recycled. It is
// taken live by issue, settled exactly once — by recvLoop with the reply
// or by fail — and handed back only after its caller has collected the
// completion, so the table grows past the credit count while callers
// hold unreaped WriteAsyncs.
type req struct {
	c *Client
	// The wire handle is gen<<32 | idx. gen is bumped on every take, so a
	// stale reply cannot match the record's reuse.
	idx, gen uint32
	live     bool // on the wire and unclaimed; guarded by pmu
	hdr      [wire.RequestSize]byte
	done     chan struct{} // 1-buffered, signalled by whoever settles the record

	status wire.Status
	err    error
	dst    []byte // where the reply payload lands: the caller's buffer, or stat
	stat   [wire.StatPayloadSize]byte

	// start, credit and send are the issue path's wall-clock stage
	// stamps, consumed when the caller collects the completion.
	start        time.Time
	credit, send time.Duration

	waitFn func() error // wait, bound once for WriteAsync
	next   *req         // free list
}

// Dial attaches to the memory server at addr, reserving size bytes, with
// the given number of flow-control credits (<= 0 means 16).
func Dial(addr string, size int64, credits int) (*Client, error) {
	if size <= 0 {
		return nil, errors.New("netblock: size must be positive")
	}
	if credits <= 0 {
		credits = 16
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	hbuf := make([]byte, wire.HelloSize)
	wire.MarshalHello(hbuf, &wire.Hello{AreaBytes: uint64(size)})
	if _, err := conn.Write(hbuf); err != nil {
		conn.Close()
		return nil, err
	}
	hrbuf := make([]byte, wire.HelloReplySize)
	if _, err := io.ReadFull(conn, hrbuf); err != nil {
		conn.Close()
		return nil, err
	}
	hrep, err := wire.UnmarshalHelloReply(hrbuf)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if hrep.Status != wire.StatusOK {
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrRejected, hrep.Status)
	}
	c := &Client{
		conn:    conn,
		size:    size,
		credits: make(chan struct{}, credits),
	}
	for i := 0; i < credits; i++ {
		c.credits <- struct{}{}
	}
	c.wg.Add(1)
	go c.recvLoop()
	return c, nil
}

// Size returns the attached area size in bytes.
func (c *Client) Size() int64 { return c.size }

// Close tears the connection down; outstanding requests fail with
// ErrLostConn and later ones with ErrClosed.
func (c *Client) Close() error {
	c.pmu.Lock()
	if c.closed {
		c.pmu.Unlock()
		return nil
	}
	c.closed = true
	c.pmu.Unlock()
	err := c.conn.Close()
	c.wg.Wait() // recvLoop fails what is in flight on its way out
	return err
}

// recvLoop is the reply demultiplexer (the event-driven receiver thread
// of the paper's client design). It leaves through fail on every path.
func (c *Client) recvLoop() {
	defer c.wg.Done()
	rbuf := make([]byte, wire.ReplySize)
	for {
		if _, err := io.ReadFull(c.conn, rbuf); err != nil {
			c.fail(ErrLostConn)
			return
		}
		rep, err := wire.UnmarshalReply(rbuf)
		if err != nil {
			c.fail(err)
			return
		}
		r := c.claim(rep.Handle)
		if r == nil {
			c.fail(fmt.Errorf("netblock: reply for unknown handle %d", rep.Handle))
			return
		}
		r.status = rep.Status
		if rep.Status == wire.StatusOK && len(r.dst) > 0 {
			// The payload lands straight in the caller's buffer. fail
			// cannot settle a claimed record, so the caller cannot return
			// while this read is still writing its buffer.
			if _, err := io.ReadFull(c.conn, r.dst); err != nil {
				r.err = ErrLostConn
			}
		}
		lost := r.err != nil
		r.done <- struct{}{}
		// The reply releases the flow-control credit (the paper's
		// receiver thread replenishes the water-mark).
		c.credits <- struct{}{}
		if lost {
			c.fail(ErrLostConn)
			return
		}
	}
}

// claim takes the live record a reply names, or returns nil if none is
// outstanding under that handle: an index past the table, a stale
// generation or a record already settled.
func (c *Client) claim(h uint64) *req {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if idx := h & (1<<32 - 1); idx < uint64(len(c.recs)) {
		if r := c.recs[idx]; r.live && r.gen == uint32(h>>32) {
			r.live = false
			return r
		}
	}
	return nil
}

// fail records the loss and settles every live record with ErrLostConn,
// refunding its credit. A record recvLoop has claimed is not live:
// recvLoop settles it once its payload has landed or failed.
func (c *Client) fail(err error) {
	c.pmu.Lock()
	defer c.pmu.Unlock()
	if c.lostErr == nil {
		c.lostErr = err
	}
	for _, r := range c.recs {
		if r.live {
			r.live, r.err = false, ErrLostConn
			r.done <- struct{}{}
			c.credits <- struct{}{}
		}
	}
}

// checkRange validates an I/O against the attached area.
func (c *Client) checkRange(off int64, n int) error {
	if n <= 0 || n > MaxRequestBytes {
		return ErrBadSize
	}
	if off < 0 || off+int64(n) > c.size {
		return ErrOutOfRange
	}
	return nil
}

// getRec takes a free record, or grows the table by one, and makes it
// live under a new generation. pmu is held.
//
//hpbd:hotpath
func (c *Client) getRec() *req {
	r := c.free
	if r == nil {
		//hpbd:allow hotalloc -- free-list miss: the table grows to the most records callers hold at once
		r = &req{c: c, idx: uint32(len(c.recs)), done: make(chan struct{}, 1)}
		r.waitFn = r.wait // bound once, like the channel
		//hpbd:allow hotalloc -- as above
		c.recs = append(c.recs, r)
	} else {
		c.free, r.next = r.next, nil
	}
	r.gen++
	r.live = true
	return r
}

// putRec hands back a record whose completion its caller has collected.
//
//hpbd:hotpath
func (c *Client) putRec(r *req) {
	r.dst, r.err = nil, nil
	c.pmu.Lock()
	r.next, c.free = c.free, r
	c.pmu.Unlock()
}

// send queues a header frame (plus optional payload) for transmission and
// flushes the queue unless another issuer is already flushing (that
// issuer's next writev picks them up).
//
//hpbd:hotpath
func (c *Client) send(hdr, payload []byte) error {
	c.wmu.Lock()
	if c.wlost {
		c.wmu.Unlock()
		return ErrLostConn
	}
	//hpbd:allow hotalloc -- the queue grows to the deepest burst, then its two arrays alternate
	c.wq = append(c.wq, hdr)
	if payload != nil {
		//hpbd:allow hotalloc -- as above
		c.wq = append(c.wq, payload)
	}
	if c.wflushing {
		c.wmu.Unlock()
		return nil // the active flusher will carry these frames
	}
	c.wflushing = true
	for len(c.wq) > 0 && !c.wlost {
		// Swap in the spare queue so concurrent enqueuers reuse the
		// retired backing array instead of growing a fresh one each burst.
		batch := c.wq
		c.wq, c.wqSpare = c.wqSpare, nil
		c.wmu.Unlock()
		c.wout = batch
		_, err := c.wout.WriteTo(c.conn)
		if err != nil {
			c.fail(ErrLostConn)
		}
		clear(batch)
		c.wmu.Lock()
		c.wlost = c.wlost || err != nil
		c.wqSpare = batch[:0]
	}
	c.wflushing = false
	var err error
	if c.wlost {
		// Frames queued after a failed writev never flush; fail has
		// settled their records.
		c.wq, err = nil, ErrLostConn
	}
	c.wmu.Unlock()
	return err
}

// issue takes a credit and a record and sends one request. data is the
// write payload or the read destination; a stat lands in the record. The
// record comes back live with its credit-stall and send stages stamped.
//
//hpbd:hotpath
func (c *Client) issue(typ wire.ReqType, off int64, data []byte) (*req, error) {
	start := time.Now()
	<-c.credits // water-mark flow control
	creditAt := time.Now()
	c.pmu.Lock()
	err := c.lostErr
	if c.closed {
		err = ErrClosed
	}
	if err != nil {
		c.pmu.Unlock()
		c.credits <- struct{}{}
		return nil, err
	}
	r := c.getRec()
	// Set under pmu, which recvLoop takes to claim the record.
	r.start, r.credit = start, creditAt.Sub(start)
	var payload []byte
	switch typ {
	case wire.ReqWrite:
		payload = data
	case wire.ReqRead:
		r.dst = data
	case wire.ReqStat:
		r.dst = r.stat[:]
	}
	c.pmu.Unlock()

	wire.MarshalRequest(r.hdr[:], &wire.Request{
		Type: typ, Handle: uint64(r.gen)<<32 | uint64(r.idx), Offset: uint64(off), Length: uint32(len(data)),
	})
	if err := c.send(r.hdr[:], payload); err != nil {
		// send fails only once a fail has run after r went live, and
		// every live record is settled by fail or by recvLoop's claim.
		r.collect()
		c.putRec(r)
		return nil, err
	}
	r.send = time.Since(creditAt)
	return r, nil
}

// collect blocks for r's completion (its credit was already returned by
// whoever settled it) and maps the outcome to an error.
//
//hpbd:hotpath
func (r *req) collect() error {
	<-r.done
	if r.err != nil {
		return r.err
	}
	switch r.status {
	case wire.StatusOK:
		return nil
	case wire.StatusOutOfRange:
		return ErrOutOfRange
	}
	//hpbd:allow hotalloc -- error path: the server refused the request
	return fmt.Errorf("%w: %v", ErrRemote, r.status)
}

// wait collects r's completion, attributes its stages and hands the
// record back.
//
//hpbd:hotpath
func (r *req) wait() error {
	err := r.collect()
	c := r.c
	c.stages.record(err != nil, r.credit, r.send, time.Since(r.start))
	c.putRec(r)
	return err
}

// WriteAt stores p at byte offset off (a swap-out). It blocks until the
// server acknowledges.
func (c *Client) WriteAt(p []byte, off int64) (int, error) { return c.syncIO(wire.ReqWrite, p, off) }

// ReadAt fills p from byte offset off (a swap-in). On error the contents
// of p are undefined.
func (c *Client) ReadAt(p []byte, off int64) (int, error) { return c.syncIO(wire.ReqRead, p, off) }

// syncIO issues one data request and blocks for its completion.
func (c *Client) syncIO(typ wire.ReqType, p []byte, off int64) (int, error) {
	if err := c.checkRange(off, len(p)); err != nil {
		return 0, err
	}
	r, err := c.issue(typ, off, p)
	if err != nil {
		return 0, err
	}
	if err := r.wait(); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Stat asks the server for its capacity and current allocation.
func (c *Client) Stat() (capacity, allocated int64, err error) {
	r, err := c.issue(wire.ReqStat, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	defer c.putRec(r)
	if err := r.collect(); err != nil {
		return 0, 0, err
	}
	// r.stat is StatPayloadSize long, so it always decodes.
	st, _ := wire.UnmarshalStat(r.stat[:])
	return int64(st.CapacityBytes), int64(st.AllocatedBytes), nil
}

// WriteAsync begins a pipelined write; the returned function blocks for
// completion and must be called exactly once, since calling it hands the
// request's record back for reuse. Use it to keep several requests on
// the wire at once.
func (c *Client) WriteAsync(p []byte, off int64) (func() error, error) {
	if err := c.checkRange(off, len(p)); err != nil {
		return nil, err
	}
	r, err := c.issue(wire.ReqWrite, off, p)
	if err != nil {
		return nil, err
	}
	return r.waitFn, nil
}
