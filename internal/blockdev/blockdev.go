// Package blockdev models the Linux 2.4 block I/O layer: per-device
// request queues that merge adjacent buffer-head-sized I/Os into larger
// requests (bounded by the 128 KB single-request limit the paper cites),
// plus plug/unplug batching and per-request dispatch statistics.
//
// The VM system submits page-sized I/Os; the merging behaviour of this
// layer is what produces the ~120 KB average swap-out requests the paper
// profiles in Figure 6.
package blockdev

import (
	"errors"
	"fmt"

	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// SectorSize is the unit of block addressing.
const SectorSize = 512

// MaxRequestBytes is the largest single request the layer will build
// (Linux 2.4: 255 sectors ~ 128 KB; we use the even 128 KB the paper cites).
const MaxRequestBytes = 128 * 1024

// ErrOutOfRange is returned for I/O beyond the device end.
var ErrOutOfRange = errors.New("blockdev: I/O beyond end of device")

// ErrInFlight is returned by SubmitIO for a record that was submitted and
// has not completed yet.
var ErrInFlight = errors.New("blockdev: I/O record is still in flight")

// IO is one submitted unit (a buffer head): page-sized in the swap path.
//
// The record and Data belong to the driver from SubmitIO until Complete:
// the submitter must neither read nor write them in between, and the
// driver must not touch them after it has called Complete. Once Wait has
// returned they are the submitter's again, to refill and submit once more.
// A driver moves bytes straight between Data and its own store
// (Request.Gather, Request.ScatterAt), so after a read that completed with
// an error Data is undefined — a request served in several pieces may have
// landed some of them before another failed.
type IO struct {
	Write  bool
	Sector int64
	Data   []byte
	done   sim.Event
	err    error
	req    *Request // the request carrying this I/O; nil unless in flight
	reqID  uint64   // that request's id, kept past completion
	next   *IO      // the I/O after this one in req's chain
	onDone func()   // completion callback armed by OnDone, nil when none
}

// Wait blocks until the I/O completes and returns its error.
func (io *IO) Wait(p *sim.Proc) error {
	io.done.Wait(p)
	return io.err
}

// Done reports whether the I/O has completed.
func (io *IO) Done() bool { return io.done.Triggered() }

// OnDone is Wait for a follower that is not a process — one that never
// sleeps and charges no virtual time. While the I/O is in flight it arms
// fn to run once when the I/O completes and reports true: Complete
// schedules fn as a callback at that instant, not inside itself, behind
// the wakes of the processes in Wait, so a sole follower takes exactly the
// slot a sole waiting process's wake would. An I/O holds one callback at a
// time. On an I/O that is not in flight it arms nothing and reports false.
//
//hpbd:hotpath
func (io *IO) OnDone(fn func()) bool {
	if io.req == nil {
		return false
	}
	io.onDone = fn
	return true
}

// Err returns the completion error (valid after Done).
func (io *IO) Err() error { return io.err }

// Request is a merged run of I/Os, contiguous on the device: a chain
// through IO.next in ascending sector order.
//
// A request a queue dispatched belongs to that queue: Complete zeroes it
// and puts it back on the queue's free list, so the driver must not touch
// it afterwards — a stale use finds an empty chain, not another request's
// I/Os. A standalone request (NewRequest) is its creator's and stays
// readable after completion.
type Request struct {
	Write      bool
	Sector     int64
	head, tail *IO
	nios       int
	nbytes     int
	queued     sim.Time
	id         uint64
	env        *sim.Env
	q          *Queue   // the owning queue, nil for a standalone request
	free       *Request // free-list link
}

// linkBack appends io at the tail of the chain (a back merge).
//
//hpbd:hotpath
func (r *Request) linkBack(io *IO) {
	if r.tail == nil {
		r.head = io
	} else {
		r.tail.next = io
	}
	r.tail = io
	r.take(io)
}

// linkFront puts io at the head of the chain (a front merge): the request
// now starts at io's sector.
//
//hpbd:hotpath
func (r *Request) linkFront(io *IO) {
	io.next = r.head
	r.head = io
	r.Sector = io.Sector
	r.take(io)
}

//hpbd:hotpath
func (r *Request) take(io *IO) {
	io.req, io.reqID = r, r.id
	r.nios++
	r.nbytes += len(io.Data)
}

// ID returns the queue-assigned request id (0 for standalone requests).
// Downstream drivers use it as the causal flow id in traces and flight
// records, tying block-layer, driver, fabric and server events together.
func (r *Request) ID() uint64 { return r.id }

// QueuedAt returns the virtual time the request entered the block layer.
func (r *Request) QueuedAt() sim.Time { return r.queued }

// RequestID returns the id of the request this I/O was merged into on its
// latest submission (0 before the first). The I/O keeps its own copy: the
// request record is recycled at completion.
func (io *IO) RequestID() uint64 { return io.reqID }

// Bytes returns the total request payload size.
func (r *Request) Bytes() int { return r.nbytes }

// End returns the sector just past the request.
func (r *Request) End() int64 { return r.Sector + int64(r.nbytes/SectorSize) }

// NumIOs returns how many buffer heads were merged into this request.
func (r *Request) NumIOs() int { return r.nios }

// Gather copies the len(dst) payload bytes starting at byte off of the
// request out of the constituent I/O buffers into dst.
//
//hpbd:hotpath
func (r *Request) Gather(dst []byte, off int) { r.move(dst, off, false) }

// ScatterAt copies src into the constituent I/O buffers, starting at byte
// off of the request.
//
//hpbd:hotpath
func (r *Request) ScatterAt(off int, src []byte) { r.move(src, off, true) }

// move is the one walk of the I/O chain: it copies between b and request
// bytes [off, off+len(b)), into the I/O buffers when toIO is set.
//
//hpbd:hotpath
func (r *Request) move(b []byte, off int, toIO bool) {
	for io := r.head; io != nil && len(b) > 0; io = io.next {
		if off >= len(io.Data) {
			off -= len(io.Data)
			continue
		}
		var n int
		if toIO {
			n = copy(io.Data[off:], b)
		} else {
			n = copy(b, io.Data[off:])
		}
		b, off = b[n:], 0
	}
}

// Data gathers the request payload (for writes) into one fresh contiguous
// buffer. Drivers on the request path use Gather instead.
func (r *Request) Data() []byte {
	buf := make([]byte, r.nbytes)
	r.Gather(buf, 0)
	return buf
}

// Scatter distributes read data back to the constituent I/O buffers.
func (r *Request) Scatter(data []byte) { r.ScatterAt(0, data) }

// Complete finishes the request, propagating err to every merged I/O. A
// driver that serves a request in pieces calls it once, when the last
// piece has settled: from here on the I/O records are their submitters'
// and a queue's request record is the queue's again.
//
//hpbd:hotpath
func (r *Request) Complete(err error) {
	for io := r.head; io != nil; io = io.next {
		io.err, io.req = err, nil
		io.done.Trigger()
		if fn := io.onDone; fn != nil {
			io.onDone = nil
			r.env.After(0, fn)
		}
	}
	if q := r.q; q != nil {
		*r = Request{free: q.freeReqs}
		q.freeReqs = r
	}
}

// NewRequest builds a standalone request outside a queue, for layered
// drivers (mirroring, striping) that fan one request out to children.
// Completion is observed with Wait.
func NewRequest(env *sim.Env, write bool, sector int64, data []byte) *Request {
	r := &Request{Write: write, Sector: sector, queued: env.Now(), env: env}
	r.linkBack(&IO{Write: write, Sector: sector, Data: data})
	return r
}

// Wait blocks until the request completes and returns its error.
func (r *Request) Wait(p *sim.Proc) error {
	return r.head.Wait(p)
}

// Err returns the first constituent IO's completion error.
func (r *Request) Err() error { return r.head.err }

// Driver is a block device driver: it accepts dispatched requests and
// completes them asynchronously (drivers that can only handle one request
// at a time block inside Submit).
type Driver interface {
	Name() string
	Sectors() int64
	// Submit hands the driver one request. It runs on the queue's
	// dispatch process and may block for admission control; completion is
	// signalled via r.Complete, possibly later. The request's I/O buffers
	// are the driver's until then and not a moment longer (see IO).
	Submit(p *sim.Proc, r *Request)
}

// RequestStat records one dispatched request for profiling (Figure 6)
// and trace capture (traceio).
type RequestStat struct {
	At     sim.Time
	Sector int64
	Bytes  int
	Write  bool
	IOs    int
}

// Stats aggregates queue activity.
type Stats struct {
	IOsSubmitted       int
	RequestsDispatched int
	BytesRead          int64
	BytesWritten       int64
	Merges             int
	Log                []RequestStat
}

// Queue is a per-device request queue.
type Queue struct {
	env      *sim.Env
	host     netmodel.HostModel
	driver   Driver
	pending  []*Request
	freeReqs *Request // completed request records, reused by SubmitIO
	plugged  bool
	work     *sim.WaitQueue
	stats    Stats
	logReqs  bool
	elevator bool
	headPos  int64
	nextID   uint64
	comp     string // trace track name, set with telemetry
	tracer   *telemetry.Tracer
	qwait    *telemetry.Histogram
	merges   *telemetry.Counter
	reqIOs   *telemetry.Histogram
	activity func() // submission hook (health-engine kick); nil when unused
}

// NewQueue creates the request queue for driver and starts its dispatch
// process on env.
func NewQueue(env *sim.Env, host netmodel.HostModel, driver Driver) *Queue {
	q := &Queue{env: env, host: host, driver: driver, work: sim.NewWaitQueue(env)}
	env.Go("blkq-"+driver.Name(), q.dispatch)
	return q
}

// Driver returns the underlying driver.
func (q *Queue) Driver() Driver { return q.driver }

// SetTelemetry attaches the node registry: queue-wait latency feeds the
// blk.queue.wait histogram and, when tracing is on, every dispatch emits a
// span plus a causal flow step under the request id.
func (q *Queue) SetTelemetry(reg *telemetry.Registry) {
	q.comp = "blkq-" + q.driver.Name()
	q.tracer = reg.Tracer()
	q.qwait = reg.Histogram("blk.queue.wait")
}

// EnableLog turns on per-request logging (needed for Figure 6).
func (q *Queue) EnableLog() { q.logReqs = true }

// EnableMergeTelemetry exports the elevator's merge activity into reg:
// blk.merges counts buffer heads absorbed into a pending request
// (front or back), and the blk.req.ios histogram records the merged run
// length of every dispatched request — the upstream counterpart of the
// hpbd client's merge.* series, so client-side WR merging and block-layer
// merging can be compared in one trace. Opt-in so default metric output
// is unchanged.
func (q *Queue) EnableMergeTelemetry(reg *telemetry.Registry) {
	q.merges = reg.Counter("blk.merges")
	q.reqIOs = reg.Histogram("blk.req.ios")
}

// EnableElevator switches dispatch from FIFO to C-LOOK ordering: the
// pending request with the lowest sector at or past the last dispatch
// position goes first, wrapping to the lowest sector when none remain
// ahead. Seek-sensitive devices (the disk) benefit; latency-uniform
// devices (HPBD) do not care.
func (q *Queue) EnableElevator() { q.elevator = true }

// SetActivityHook installs a callback invoked on every Submit. The
// cluster uses it to re-arm a parked health-engine sampler when swap
// traffic resumes; a nil hook (the default) costs one predictable branch.
func (q *Queue) SetActivityHook(fn func()) { q.activity = fn }

// Stats returns a copy of the queue statistics.
func (q *Queue) Stats() Stats { return q.stats }

// Submit queues one I/O on a fresh record: allocate, then SubmitIO.
// Returns the IO handle to wait on.
func (q *Queue) Submit(write bool, sector int64, data []byte) (*IO, error) {
	io := &IO{Write: write, Sector: sector, Data: data}
	if err := q.SubmitIO(io); err != nil {
		return nil, err
	}
	return io, nil
}

// SubmitIO queues the caller's record, merging it with a pending request
// when adjacent. The queue plugs itself on first I/O; callers submit a
// batch and then Unplug. A record whose Wait has returned may be submitted
// again; one still in flight is refused with ErrInFlight.
//
//hpbd:hotpath
func (q *Queue) SubmitIO(io *IO) error {
	write, sector, sectors := io.Write, io.Sector, int64(len(io.Data)/SectorSize)
	if len(io.Data)%SectorSize != 0 || len(io.Data) == 0 {
		//hpbd:allow hotalloc -- formats the refusal of a malformed I/O; no accepted I/O reaches it
		return fmt.Errorf("blockdev: I/O size %d not a positive sector multiple", len(io.Data))
	}
	if sector < 0 || sector+sectors > q.driver.Sectors() {
		return ErrOutOfRange
	}
	if io.req != nil {
		return ErrInFlight
	}
	io.done.Reset()
	io.err, io.next = nil, nil
	q.stats.IOsSubmitted++
	if q.activity != nil {
		q.activity()
	}

	// Try back/front merge against pending requests (2.4 scans the whole
	// queue; ours is short, so a linear scan is faithful and cheap).
	for _, r := range q.pending {
		if r.Write != write || r.nbytes+len(io.Data) > MaxRequestBytes {
			continue
		}
		switch {
		case r.End() == sector:
			r.linkBack(io)
		case sector+sectors == r.Sector:
			r.linkFront(io)
		default:
			continue
		}
		q.stats.Merges++
		q.merges.Inc()
		return nil
	}
	q.nextID++
	r := q.freeReqs
	if r == nil {
		//hpbd:allow hotalloc -- free-list miss: allocates until the list has grown to the peak requests outstanding
		r = &Request{}
	} else {
		q.freeReqs = r.free
	}
	*r = Request{Write: write, Sector: sector, queued: q.env.Now(), id: q.nextID, env: q.env, q: q}
	r.linkBack(io)
	if len(q.pending) == 0 {
		q.plugged = true
	}
	//hpbd:allow hotalloc -- grows to the queue's working depth, then stays: pickNext keeps the capacity
	q.pending = append(q.pending, r)
	return nil
}

// Unplug releases pending requests to the dispatch process.
func (q *Queue) Unplug() {
	if !q.plugged && len(q.pending) == 0 {
		return
	}
	q.plugged = false
	q.work.WakeAll()
}

// dispatch is the per-device kernel thread: it pulls requests off the
// queue (once unplugged) and hands them to the driver.
func (q *Queue) dispatch(p *sim.Proc) {
	for {
		for q.plugged || len(q.pending) == 0 {
			q.work.Wait(p)
		}
		r := q.pickNext()
		q.stats.RequestsDispatched++
		if r.Write {
			q.stats.BytesWritten += int64(r.nbytes)
		} else {
			q.stats.BytesRead += int64(r.nbytes)
		}
		if q.logReqs {
			q.stats.Log = append(q.stats.Log, RequestStat{
				At: p.Now(), Sector: r.Sector, Bytes: r.nbytes, Write: r.Write, IOs: r.nios,
			})
		}
		p.Sleep(q.host.BlockPerRequest + sim.Duration(r.nios)*q.host.BlockPerBH)
		q.qwait.Observe(p.Now().Sub(r.queued))
		// Run length, not a latency: the histogram machinery is
		// unit-agnostic, so the count rides in the Duration slot.
		q.reqIOs.Observe(sim.Duration(r.nios))
		if q.tracer != nil {
			q.tracer.Complete(q.comp, "dispatch", r.queued, p.Now(), map[string]any{
				"req": r.id, "sector": r.Sector, "bytes": r.nbytes, "ios": r.nios, "write": r.Write,
			})
			q.tracer.FlowStep(q.comp, "req", r.id)
		}
		q.headPos = r.End()
		q.driver.Submit(p, r)
	}
}

// pickNext removes and returns the next request to dispatch: the oldest,
// or under the elevator the C-LOOK choice (lowest sector >= headPos, else
// lowest sector overall). The queue is short, so closing the gap in place
// is cheap and, unlike re-slicing from the front, keeps the capacity.
func (q *Queue) pickNext() *Request {
	best := 0
	if q.elevator && len(q.pending) > 1 {
		best = -1
		wrap := 0
		for i, r := range q.pending {
			if r.Sector >= q.headPos && (best < 0 || r.Sector < q.pending[best].Sector) {
				best = i
			}
			if r.Sector < q.pending[wrap].Sector {
				wrap = i
			}
		}
		if best < 0 {
			best = wrap
		}
	}
	r := q.pending[best]
	last := len(q.pending) - 1
	copy(q.pending[best:], q.pending[best+1:])
	q.pending[last] = nil
	q.pending = q.pending[:last]
	return r
}
