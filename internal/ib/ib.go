// Package ib models an InfiniBand fabric with a VAPI-style verbs interface:
// host channel adapters (HCA), reliably connected queue pairs (QP), memory
// regions (MR) with explicit registration, completion queues (CQ) with
// solicited completion events, and SEND/RECV plus RDMA READ/WRITE work
// requests.
//
// The timing model captures what matters to the paper's results:
//
//   - registration cost vs memcpy cost (netmodel.MemModel),
//   - per-WQE host processing,
//   - link serialization at both the sender's egress and the receiver's
//     ingress port (so many-to-one traffic converges on the client link),
//   - a QP-context cache on each HCA: working sets larger than the cache
//     pay a context-fetch penalty per operation, which reproduces the
//     paper's Figure 10 degradation at 16 servers.
//
// Data is carried for real: RDMA operations move actual bytes between
// registered buffers, so the stack on top of this package is a functional
// (if simulated) block store, not just a latency calculator.
package ib

import (
	"errors"
	"fmt"
	"sort"

	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
)

// Opcode identifies the type of a work request or completion.
type Opcode int

const (
	OpSend Opcode = iota
	OpRecv
	OpRDMAWrite
	OpRDMARead
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpRecv:
		return "RECV"
	case OpRDMAWrite:
		return "RDMA_WRITE"
	case OpRDMARead:
		return "RDMA_READ"
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// Status is the completion status of a work request.
type Status int

const (
	StatusSuccess Status = iota
	StatusFlushErr
	StatusRNR // receiver not ready: SEND arrived with no posted receive
	StatusRemoteAccessErr
)

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "OK"
	case StatusFlushErr:
		return "FLUSH_ERR"
	case StatusRNR:
		return "RNR"
	case StatusRemoteAccessErr:
		return "REM_ACCESS_ERR"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Errors returned by verbs calls.
var (
	ErrQPClosed     = errors.New("ib: queue pair closed")
	ErrNotConnected = errors.New("ib: queue pair not connected")
	ErrBadSegment   = errors.New("ib: segment outside memory region")
)

// Config parameterizes a Fabric.
type Config struct {
	Mem  netmodel.MemModel
	Link netmodel.LinkModel
	// QPCacheSize is the number of QP contexts an HCA holds on-chip;
	// operations on QPs outside this working set pay QPCacheMiss.
	QPCacheSize int
	// QPCacheMiss is the context fetch penalty.
	QPCacheMiss sim.Duration
	// PerWQE is host CPU charged to the posting process per work request.
	PerWQE sim.Duration
	// PerDoorbell is the host CPU charged once for a chained PostSendBatch
	// post, regardless of how many WQEs ride the chain (the descriptor
	// writes are amortized; the doorbell write dominates). Zero falls back
	// to PerWQE, so batching never looks cheaper than a single post.
	PerDoorbell sim.Duration
	// EventDelay is the latency from a completion to the completion event
	// handler running (interrupt + handler dispatch).
	EventDelay sim.Duration
	// Telemetry, if non-nil, receives the fabric's metrics (the
	// ib.qp_cache_miss counter) and, when its tracer is enabled,
	// post-to-completion spans for every work request on each HCA's track.
	Telemetry *telemetry.Registry
}

// DefaultConfig returns the calibrated MT23108-era configuration.
func DefaultConfig() Config {
	return Config{
		Mem:         netmodel.DefaultMem(),
		Link:        netmodel.IB4X(),
		QPCacheSize: 8,
		QPCacheMiss: 35 * sim.Microsecond,
		PerWQE:      800 * sim.Nanosecond,
		EventDelay:  4 * sim.Microsecond,
	}
}

// FaultHook lets a fault injector intercept send-side work requests as
// they issue. SendFault is consulted once per WR with the posting HCA's
// name and the opcode; it returns an extra latency to add to the
// operation and a status. A non-success status aborts the operation:
// the peer never sees it and the sender's CQ receives an error CQE
// after EventDelay+extra — modeling a local QP/send failure (NAK,
// retry-exhausted timeout) deterministically in sim-time.
type FaultHook interface {
	SendFault(hca string, op Opcode) (extra sim.Duration, st Status)
}

// Fabric is a switched InfiniBand network.
type Fabric struct {
	env   *sim.Env
	cfg   Config
	hcas  []*HCA
	fault FaultHook

	freeWRs *wrRec // recycled work-request records (see wrRec)

	// odpFaults counts first-touch page faults on ODP regions. Created
	// lazily on the first fault so fabrics that never register an ODP MR
	// expose an unchanged metric set.
	odpFaults *telemetry.Counter
}

// SetFaultHook installs h as the fabric's fault injector (nil removes
// it). With no hook installed the data path is byte-identical to an
// un-instrumented fabric.
func (f *Fabric) SetFaultHook(h FaultHook) { f.fault = h }

// NewFabric creates a fabric on env with the given configuration.
func NewFabric(env *sim.Env, cfg Config) *Fabric {
	return &Fabric{env: env, cfg: cfg}
}

// Env returns the fabric's simulation environment.
func (f *Fabric) Env() *sim.Env { return f.env }

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// NewHCA attaches a new host channel adapter to the fabric.
func (f *Fabric) NewHCA(name string) *HCA {
	h := &HCA{
		fabric:    f,
		name:      name,
		mrs:       make(map[uint32]*MR),
		missCount: f.cfg.Telemetry.Counter("ib.qp_cache_miss"),
	}
	f.hcas = append(f.hcas, h)
	return h
}

// tracer returns the fabric's span tracer, nil when tracing is off.
func (f *Fabric) tracer() *telemetry.Tracer { return f.cfg.Telemetry.Tracer() }

// HCA is a host channel adapter: the node's port onto the fabric.
type HCA struct {
	fabric *Fabric
	name   string

	nextKey uint32
	mrs     map[uint32]*MR
	nextQPN uint32
	qps     []*QP

	egressFree  sim.Time
	ingressFree sim.Time

	// missCount tallies operations that paid a QP-context fetch penalty
	// (nil-safe handle into Config.Telemetry, shared across HCAs).
	missCount *telemetry.Counter
}

// Name returns the HCA's diagnostic name.
func (h *HCA) Name() string { return h.name }

// MR is a registered memory region. Buf is the real backing store; RDMA
// operations move bytes in and out of it.
type MR struct {
	hca   *HCA
	Buf   []byte
	LKey  uint32
	RKey  uint32
	valid bool

	// odp marks an on-demand-paging region: registration pinned nothing,
	// and the first access to each netmodel.ODPWindowBytes window pays a
	// fault serviced by the HCA before the data moves.
	odp bool
	// resident tracks per-window residency for an ODP region. A window is
	// faulted in by the first WR that touches it and stays resident until
	// an invalidation (memory pressure, faultsim's odpinval) clears it.
	resident []bool
}

// Valid reports whether the region is still registered.
func (m *MR) Valid() bool { return m != nil && m.valid }

// IsODP reports whether the region uses on-demand paging.
func (m *MR) IsODP() bool { return m != nil && m.odp }

// InvalidatePages drops all resident windows of an ODP region, forcing
// the next access to each to re-fault (the MR itself stays registered —
// this models the MMU-notifier invalidation path, not deregistration).
// It returns the number of windows that were resident. No-op on pinned
// regions.
func (m *MR) InvalidatePages() int {
	if !m.odp {
		return 0
	}
	n := 0
	for i := range m.resident {
		if m.resident[i] {
			m.resident[i] = false
			n++
		}
	}
	return n
}

// touch marks the windows covering [off, off+n) resident and returns how
// many windows and 4 KB pages were newly faulted in (zero when the range
// was already resident). Allocation-free: called on the data path.
func (m *MR) touch(off, n int) (windows, pages int) {
	if !m.odp || n <= 0 {
		return 0, 0
	}
	lo := off / netmodel.ODPWindowBytes
	hi := (off + n - 1) / netmodel.ODPWindowBytes
	for w := lo; w <= hi && w < len(m.resident); w++ {
		if m.resident[w] {
			continue
		}
		m.resident[w] = true
		windows++
		// Pages resolved by this window's fault (last window may be short).
		wb := netmodel.ODPWindowBytes
		if rem := len(m.Buf) - w*netmodel.ODPWindowBytes; rem < wb {
			wb = rem
		}
		pages += (wb + netmodel.PageSize - 1) / netmodel.PageSize
	}
	return windows, pages
}

// RegisterMR registers buf with the HCA, charging the calling process the
// calibrated registration cost.
func (h *HCA) RegisterMR(p *sim.Proc, buf []byte) *MR {
	p.Sleep(h.fabric.cfg.Mem.Register(len(buf)))
	return h.registerMRFree(buf)
}

// registerMRFree registers without charging time (for setup phases).
func (h *HCA) registerMRFree(buf []byte) *MR {
	h.nextKey++
	mr := &MR{hca: h, Buf: buf, LKey: h.nextKey, RKey: h.nextKey, valid: true}
	h.mrs[mr.RKey] = mr
	return mr
}

// RegisterMRAtSetup registers buf without charging simulated time; use it
// for initialization-time pools (the cost the paper's design avoids paying
// on the critical path).
func (h *HCA) RegisterMRAtSetup(buf []byte) *MR { return h.registerMRFree(buf) }

// RegisterODP registers buf as an on-demand-paging region: the call is
// near-free (nothing is pinned, so the cost does not scale with size),
// but the first WR touching each ODPWindowBytes window pays a fault
// charged by the fabric timing model before the data moves.
func (h *HCA) RegisterODP(p *sim.Proc, buf []byte) *MR {
	p.Sleep(h.fabric.cfg.Mem.ODPRegister())
	mr := h.registerMRFree(buf)
	mr.odp = true
	mr.resident = make([]bool, netmodel.ODPWindows(len(buf)))
	return mr
}

// DeregisterMR invalidates the region, charging the deregistration cost
// (the cheaper ODP teardown for on-demand regions: no unpinning).
func (h *HCA) DeregisterMR(p *sim.Proc, mr *MR) {
	if mr.odp {
		p.Sleep(h.fabric.cfg.Mem.ODPDeregister())
	} else {
		p.Sleep(h.fabric.cfg.Mem.Deregister())
	}
	mr.valid = false
	delete(h.mrs, mr.RKey)
}

// DeregisterMRAtTeardown invalidates the region without charging simulated
// time; use it on failure/teardown paths where no process context exists
// (the counterpart of RegisterMRAtSetup).
func (h *HCA) DeregisterMRAtTeardown(mr *MR) {
	mr.valid = false
	delete(h.mrs, mr.RKey)
}

// lookupMR resolves an RKey for a remote access.
func (h *HCA) lookupMR(rkey uint32) *MR {
	mr := h.mrs[rkey]
	if mr == nil || !mr.valid {
		return nil
	}
	return mr
}

// InvalidateODP drops the resident windows of every ODP region on the
// HCA (the machine-wide MMU-notifier storm a memory-pressure event or
// faultsim's odpinval models), forcing re-faults on next access. Returns
// the number of windows invalidated. Regions are visited in RKey order
// so the (currently side-effect-equal) walk stays deterministic.
func (h *HCA) InvalidateODP() int {
	keys := make([]uint32, 0, len(h.mrs))
	for k := range h.mrs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	n := 0
	for _, k := range keys {
		n += h.mrs[k].InvalidatePages()
	}
	return n
}

// odpDelay returns the fault-service latency for a WR touching
// [off, off+n) of mr, zero for pinned or already-resident ranges. Faults
// are counted on the lazily created odp.faults series so fabrics without
// ODP regions keep their metric set unchanged.
func (f *Fabric) odpDelay(mr *MR, off, n int) sim.Duration {
	if mr == nil || !mr.odp {
		return 0
	}
	windows, pages := mr.touch(off, n)
	if windows == 0 {
		return 0
	}
	if f.odpFaults == nil {
		f.odpFaults = f.cfg.Telemetry.Counter("odp.faults")
	}
	f.odpFaults.Add(int64(windows))
	return f.cfg.Mem.ODPFault(windows, pages)
}

// qpPenalty returns the QP-context-cache cost of an operation on qp. The
// MT23108 holds a limited number of QP contexts on-chip; once the number
// of live QPs exceeds that, context fetches interleave with every
// operation regardless of request locality (send, receive, and RDMA
// engines each touch the context). We charge the expected fetch cost
// under that capacity pressure — the effect behind the paper's Figure 10
// degradation at 16 servers.
func (h *HCA) qpPenalty(qp *QP) sim.Duration {
	size := h.fabric.cfg.QPCacheSize
	n := len(h.qps)
	if size <= 0 || n <= size {
		return 0
	}
	_ = qp
	h.missCount.Inc()
	missFrac := 1 - float64(size)/float64(n)
	return sim.Duration(float64(h.fabric.cfg.QPCacheMiss) * missFrac)
}
