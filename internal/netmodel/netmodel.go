// Package netmodel holds the calibrated cost models that drive the whole
// simulation: memcpy, InfiniBand memory registration, and the wire/latency
// models for IB 4X RDMA, IPoIB, and Gigabit Ethernet.
//
// Parameters are calibrated against the paper's own microbenchmarks
// (CLUSTER'05, Figures 1 and 3) for the evaluation platform: dual Xeon
// 2.66 GHz, PCI-X 133, Mellanox MT23108 HCA, Linux 2.4. They are exported
// so experiments can run sensitivity sweeps, but the zero-value defaults
// returned by the constructors reproduce the paper.
package netmodel

import "hpbd/internal/sim"

// PageSize is the VM page size of the evaluation platform (IA-32).
const PageSize = 4096

// bw converts a bandwidth in MB/s to bytes per sim.Second.
// (1 MB = 1e6 bytes here; bandwidth figures, not memory sizes.)
type Bandwidth float64 // bytes per second

// MBps constructs a Bandwidth from megabytes per second.
func MBps(mb float64) Bandwidth { return Bandwidth(mb * 1e6) }

// Over returns the time to move n bytes at bandwidth b.
func (b Bandwidth) Over(n int) sim.Duration {
	if b <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / float64(b) * float64(sim.Second))
}

// MemModel is the host memory system: copy and registration costs.
type MemModel struct {
	// CopyBase is the fixed overhead of a memcpy call.
	CopyBase sim.Duration
	// CopyBW is the sustained copy bandwidth.
	CopyBW Bandwidth
	// RegBase is the fixed cost of registering a memory region with the
	// HCA (kernel trap, pinning setup, HCA table update).
	RegBase sim.Duration
	// RegPerPage is the incremental cost per 4 KB page pinned.
	RegPerPage sim.Duration
	// DeregBase is the fixed cost of deregistration.
	DeregBase sim.Duration

	// ODPRegBase is the fixed cost of an on-demand-paging registration:
	// no pages are pinned and no HCA translation entries are populated up
	// front, so only the kernel trap and the MR bookkeeping remain (the
	// NP-RDMA observation: registration becomes ~free, first access pays).
	ODPRegBase sim.Duration
	// ODPDeregBase is the fixed cost of tearing an ODP region down
	// (nothing to unpin).
	ODPDeregBase sim.Duration
	// ODPFaultBase is the per-fault-event cost of faulting one
	// ODPWindowBytes window in on first access: the HCA's page-fault
	// doorbell, the kernel's ODP handler, and the translation-table
	// update for the window.
	ODPFaultBase sim.Duration
	// ODPFaultPerPage is the incremental cost per 4 KB page resolved
	// within a faulted window.
	ODPFaultPerPage sim.Duration
}

// DefaultMem returns the memory model calibrated to the paper's platform.
// memcpy of 128 KB lands near 90 us; registration starts near 95 us and
// stays above memcpy throughout the 4 K-127 K swap-request range (Fig. 3),
// which is the paper's argument for the copy-into-preregistered-pool design.
func DefaultMem() MemModel {
	return MemModel{
		CopyBase:   40 * sim.Nanosecond,
		CopyBW:     MBps(1450),
		RegBase:    95 * sim.Microsecond,
		RegPerPage: 1200 * sim.Nanosecond,
		DeregBase:  25 * sim.Microsecond,

		ODPRegBase:      3 * sim.Microsecond,
		ODPDeregBase:    2 * sim.Microsecond,
		ODPFaultBase:    18 * sim.Microsecond,
		ODPFaultPerPage: 450 * sim.Nanosecond,
	}
}

// Memcpy returns the time to copy n bytes.
func (m MemModel) Memcpy(n int) sim.Duration {
	return m.CopyBase + m.CopyBW.Over(n)
}

// Register returns the time to register an n-byte buffer.
func (m MemModel) Register(n int) sim.Duration {
	pages := (n + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	return m.RegBase + sim.Duration(pages)*m.RegPerPage
}

// Deregister returns the time to deregister a region.
func (m MemModel) Deregister() sim.Duration { return m.DeregBase }

// Fig3CrossoverBytes is the request size at which the paper's Figure 3
// shows per-request registration starting to pay off against copying into
// the pre-registered pool: just past the 4 K-127 K swap-request range.
// It is the default threshold for the client's hybrid copy/register data
// path.
const Fig3CrossoverBytes = 127 * 1024

// CopyRegisterCrossover returns the smallest page-multiple transfer size
// at which registering the payload buffer — amortized over `reuse`
// transfers through an MR reuse cache — costs no more than copying it.
// With reuse = 1 this is the raw Figure 3 crossover (above the 128 KB
// request bound); modest reuse pulls it into the swap-request range,
// which is what makes the hybrid data path viable.
func (m MemModel) CopyRegisterCrossover(reuse int) int {
	if reuse < 1 {
		reuse = 1
	}
	const limit = 1 << 30
	for n := PageSize; n <= limit; n += PageSize {
		if m.Register(n)/sim.Duration(reuse) <= m.Memcpy(n) {
			return n
		}
	}
	return limit
}

// ODPWindowBytes is the granularity of on-demand-paging faults: a first
// touch inside a window resolves the whole window, so an N-byte transfer
// through a cold ODP region takes ceil(N/ODPWindowBytes) faults.
const ODPWindowBytes = 64 * 1024

// ODPWindows returns the number of fault windows n bytes span when
// touched from a window boundary.
func ODPWindows(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + ODPWindowBytes - 1) / ODPWindowBytes
}

// ODPRegister returns the time to create an on-demand-paging region
// (size-independent: nothing is pinned).
func (m MemModel) ODPRegister() sim.Duration { return m.ODPRegBase }

// ODPDeregister returns the time to destroy an on-demand-paging region.
func (m MemModel) ODPDeregister() sim.Duration { return m.ODPDeregBase }

// ODPFault returns the time to service first-touch faults covering
// `windows` fault windows and `pages` 4 KB pages in total.
func (m MemModel) ODPFault(windows, pages int) sim.Duration {
	if windows <= 0 {
		return 0
	}
	return sim.Duration(windows)*m.ODPFaultBase + sim.Duration(pages)*m.ODPFaultPerPage
}

// odpFirstTouch is the cost of registering an n-byte ODP region and
// faulting all of it in once.
func (m MemModel) odpFirstTouch(n int) sim.Duration {
	pages := (n + PageSize - 1) / PageSize
	return m.ODPRegister() + m.ODPFault(ODPWindows(n), pages)
}

// ODPRegisterCrossover is the on-demand-paging analog of
// CopyRegisterCrossover: the smallest page-multiple transfer size at
// which an ODP registration plus a full first-touch fault — amortized
// over `reuse` transfers through an MR reuse cache — costs no more than
// copying the payload. Because nothing is pinned, the cold crossover sits
// far below the pinned Figure 3 one, which is what lets the adaptive
// controller push the hybrid threshold down into the swap-request range.
func (m MemModel) ODPRegisterCrossover(reuse int) int {
	if reuse < 1 {
		reuse = 1
	}
	const limit = 1 << 30
	for n := PageSize; n <= limit; n += PageSize {
		if m.odpFirstTouch(n)/sim.Duration(reuse) <= m.Memcpy(n) {
			return n
		}
	}
	return limit
}

// LinkModel describes a network path at message granularity: a one-way
// propagation/launch latency, a serialization bandwidth, and per-message
// and per-segment host CPU costs (the TCP/IP stack burden for IP networks,
// the WQE processing cost for verbs).
type LinkModel struct {
	Name string
	// Prop is the one-way zero-byte latency (NIC + switch + wire).
	Prop sim.Duration
	// BW is the effective serialization bandwidth.
	BW Bandwidth
	// MTU is the segment size for per-segment costs (0 = no segmentation).
	MTU int
	// PerMsgCPU is host processing charged once per message on each side.
	PerMsgCPU sim.Duration
	// PerSegCPU is host processing charged per MTU segment on each side
	// (interrupts, checksums, skb handling for the IP paths).
	PerSegCPU sim.Duration
	// CopyAtHost indicates the stack copies data between user/kernel
	// buffers on each side (true for the TCP paths, false for RDMA).
	CopyAtHost bool
}

// Segments returns the number of MTU segments n bytes occupy.
func (l LinkModel) Segments(n int) int {
	if l.MTU <= 0 || n == 0 {
		if n == 0 {
			return 1
		}
		return 1
	}
	return (n + l.MTU - 1) / l.MTU
}

// SegTime returns the host processing time for one MTU segment.
func (l LinkModel) SegTime(mem MemModel) sim.Duration {
	d := l.PerSegCPU
	if l.CopyAtHost {
		d += mem.Memcpy(l.MTU)
	}
	return d
}

// EffectiveBW returns the streaming bandwidth after accounting for
// per-segment host processing, which pipelines with transmission: the
// stream moves at the slower of the wire and the per-segment CPU rate.
func (l LinkModel) EffectiveBW(mem MemModel) Bandwidth {
	if l.MTU <= 0 {
		return l.BW
	}
	wirePerSeg := l.BW.Over(l.MTU)
	cpuPerSeg := l.SegTime(mem)
	slower := wirePerSeg
	if cpuPerSeg > slower {
		slower = cpuPerSeg
	}
	if slower <= 0 {
		return l.BW
	}
	return Bandwidth(float64(l.MTU) / (float64(slower) / float64(sim.Second)))
}

// Latency returns the end-to-end one-way latency for an n-byte message:
// propagation, per-message host costs on both sides, the pipelined
// streaming time, and one segment's processing to fill the pipeline.
// This is the quantity the paper's Figure 1 plots.
func (l LinkModel) Latency(n int, mem MemModel) sim.Duration {
	return l.Prop + 2*l.PerMsgCPU + l.EffectiveBW(mem).Over(n) + l.SegTime(mem)
}

// IB4X returns the native InfiniBand 4X RC model (RDMA path). The 5 us
// small-message latency and ~840 MB/s large-message bandwidth match the
// MT23108/PCI-X generation; host cost per WQE is small and there are no
// host-side data copies (zero-copy RDMA).
func IB4X() LinkModel {
	return LinkModel{
		Name:      "ib-rdma",
		Prop:      4 * sim.Microsecond,
		BW:        MBps(840),
		MTU:       2048,
		PerMsgCPU: 500 * sim.Nanosecond,
		PerSegCPU: 0, // segmentation handled by the HCA
	}
}

// IPoIB returns the IP-emulation-over-InfiniBand model: same fabric, but
// every message pays the TCP/IP stack (per-segment processing and a
// kernel/user copy on each side), which caps effective bandwidth near
// 220 MB/s on this platform.
func IPoIB() LinkModel {
	return LinkModel{
		Name:       "ipoib",
		Prop:       18 * sim.Microsecond,
		BW:         MBps(420),
		MTU:        2044,
		PerMsgCPU:  9 * sim.Microsecond,
		PerSegCPU:  10500 * sim.Nanosecond,
		CopyAtHost: true,
	}
}

// GigE returns the Gigabit Ethernet TCP model (~112 MB/s wire rate,
// 1500-byte MTU, higher interrupt/stack cost per segment).
func GigE() LinkModel {
	return LinkModel{
		Name:       "gige",
		Prop:       30 * sim.Microsecond,
		BW:         MBps(112),
		MTU:        1500,
		PerMsgCPU:  12 * sim.Microsecond,
		PerSegCPU:  2200 * sim.Nanosecond,
		CopyAtHost: true,
	}
}

// HostModel bundles OS-path costs shared across the simulation.
type HostModel struct {
	// PageFaultCPU is the kernel cost to take and service a page fault
	// (trap, VM lookup, page table update), excluding any I/O.
	PageFaultCPU sim.Duration
	// BlockPerRequest is the block layer's per-request overhead
	// (make_request, queueing, completion).
	BlockPerRequest sim.Duration
	// BlockPerBH is the per-buffer-head cost (submission bookkeeping and
	// end_buffer_io completion handling for each merged 4 KB unit).
	BlockPerBH sim.Duration
	// Wakeup is the cost/latency of waking a sleeping thread.
	Wakeup sim.Duration
	// ReclaimPerPage is kswapd's CPU cost to unmap and queue one page.
	ReclaimPerPage sim.Duration
	// FillPerPage is the application-level cost charged by workloads per
	// page of fresh data touched (cache misses on first touch).
	FillPerPage sim.Duration
}

// DefaultHost returns host-path costs for the dual-Xeon 2.66 GHz platform.
func DefaultHost() HostModel {
	return HostModel{
		PageFaultCPU:    1800 * sim.Nanosecond,
		BlockPerRequest: 2 * sim.Microsecond,
		BlockPerBH:      4 * sim.Microsecond,
		Wakeup:          1500 * sim.Nanosecond,
		ReclaimPerPage:  900 * sim.Nanosecond,
		FillPerPage:     21 * sim.Microsecond,
	}
}
