// Package cluster assembles complete simulated nodes — VM, swap device
// (HPBD over InfiniBand, NBD over GigE or IPoIB, local disk, or none) and
// the remote servers behind it — matching the paper's experiment setups.
package cluster

import (
	"fmt"

	"hpbd/internal/blockdev"
	"hpbd/internal/disk"
	"hpbd/internal/faultsim"
	"hpbd/internal/health"
	"hpbd/internal/hpbd"
	"hpbd/internal/ib"
	"hpbd/internal/mirror"
	"hpbd/internal/nbd"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/tcpip"
	"hpbd/internal/telemetry"
	"hpbd/internal/tenant"
	"hpbd/internal/vm"
)

// SwapKind selects the swap backing for a node.
type SwapKind int

const (
	// SwapNone runs with local memory only (the paper's baseline).
	SwapNone SwapKind = iota
	// SwapDisk swaps to the local ATA disk model.
	SwapDisk
	// SwapHPBD swaps to remote memory over simulated InfiniBand.
	SwapHPBD
	// SwapNBDGigE swaps to an NBD server over Gigabit Ethernet.
	SwapNBDGigE
	// SwapNBDIPoIB swaps to an NBD server over IPoIB.
	SwapNBDIPoIB
)

func (k SwapKind) String() string {
	switch k {
	case SwapNone:
		return "local-memory"
	case SwapDisk:
		return "disk"
	case SwapHPBD:
		return "hpbd"
	case SwapNBDGigE:
		return "nbd-gige"
	case SwapNBDIPoIB:
		return "nbd-ipoib"
	}
	return "?"
}

// Config describes one node and its swap backing.
type Config struct {
	// MemBytes is local memory available to applications. Zero builds no
	// VM: the node is its block devices behind their queues, driven
	// directly (data-path rigs, per-tenant fleets). HPBD only.
	MemBytes int64
	// Swap selects the backing store kind.
	Swap SwapKind
	// SwapBytes is the total swap area (split evenly across Servers for
	// HPBD).
	SwapBytes int64
	// Servers is the number of HPBD memory servers (default 1).
	Servers int
	// Client overrides the HPBD client configuration (zero: defaults).
	Client *hpbd.ClientConfig
	// ServerCfg overrides the per-server configuration (nil: defaults).
	ServerCfg func(storeBytes int64) hpbd.ServerConfig
	// IB overrides the fabric configuration (nil: defaults).
	IB *ib.Config
	// Disk overrides the disk model (nil: defaults).
	Disk *disk.Params
	// VMConfig, if non-nil, mutates the VM configuration before the
	// system is built (readahead window, watermarks, ...).
	VMConfig func(*vm.Config)
	// Elevator enables C-LOOK dispatch on the swap queue (off = FIFO,
	// which is what the calibration assumes; the elevator is studied as
	// an extension).
	Elevator bool
	// LogRequests enables per-request logging on the swap queue (Fig. 6).
	LogRequests bool
	// Mirror builds two HPBD devices over disjoint server sets and swaps
	// to a RAID-1 mirror over them, so one server crash loses no pages.
	// Each side gets Servers servers; SwapBytes is the size of each
	// replica, not the sum. HPBD only.
	Mirror bool
	// Faults, if non-nil, replays a deterministic fault schedule against
	// the node's servers, devices and fabric. HPBD only.
	Faults *faultsim.Schedule
	// FallbackDisk gives each HPBD device a local-disk fallback driver,
	// the last-resort degraded mode when every server is lost. HPBD only.
	FallbackDisk bool
	// Telemetry, if non-nil, is the node-wide metrics registry shared by
	// the VM, the fabric, the HPBD client and every server. Nil creates
	// one per node (metrics are always on; tracing stays opt-in via
	// Registry.EnableTracing). Layer-specific overrides (Client.Telemetry,
	// IB.Telemetry, ...) win over this when set.
	Telemetry *telemetry.Registry
	// Trace enables span tracing on the node registry before anything is
	// built on it (components pick the tracer up at construction).
	Trace bool
	// Health, if non-nil, runs the fleet health engine over the node's
	// registry: a sim-time sampler, SLO burn-rate tracking and anomaly
	// rules (see internal/health). The zero Config selects the documented
	// defaults. Nil (the default) runs no health code at all and keeps
	// every output surface byte-identical.
	Health *health.Config
	// Tenancy, if non-nil, provisions every HPBD server — founders and
	// the ones GrowFleet spawns — with the multi-tenant QoS spec:
	// per-tenant credit partitioning of the receive window, weighted fair
	// scheduling of RDMA issue, and per-tenant memory quotas (see
	// internal/tenant and hpbd/tenancy.go). Nil (the default) keeps every
	// output surface byte-identical to a single-tenant node. HPBD only.
	Tenancy *tenant.Spec
	// TenantID is the identity the node's device presents when Tenancy is
	// set. Empty means the spec's first tenant on a node with a VM (which
	// swaps through one device) and every tenant on a VM-less one: a
	// per-tenant fleet, one device per tenant over one shared server set
	// (Node.Tenants), each server's store holding one area per tenant and
	// SwapBytes being the size of each tenant's device.
	TenantID string
	// Membership is the node's fleet-membership schedule: one process
	// plays the ops in order once the node is ready and records each on
	// Node.Ops (see MemberOp). HPBD only.
	Membership []MemberOp
}

// diskParams is the disk model of the swap disk and the fallback disks.
func (c Config) diskParams() disk.Params {
	if c.Disk != nil {
		return *c.Disk
	}
	return disk.DefaultParams()
}

// Node is an assembled machine.
type Node struct {
	Env   *sim.Env
	VM    *vm.System
	Queue *blockdev.Queue
	Swap  SwapKind
	// Tel is the node-wide telemetry registry (never nil after Build).
	Tel *telemetry.Registry

	HPBD        *hpbd.Device
	HPBDServers []*hpbd.Server
	NBDServer   *nbd.Server
	Disk        *disk.Disk

	// HPBD2 and Mirror are set for mirrored configurations: HPBD/HPBD2
	// are the two replicas and Mirror is the RAID-1 device the swap
	// queue runs over.
	HPBD2  *hpbd.Device
	Mirror *mirror.Device
	// Tenants is the per-tenant fleet's client stacks, in spec order;
	// such a node has no single swap queue, so Queue is nil.
	Tenants []*TenantNode
	// Faults is the fault injector when Config.Faults was given.
	Faults *faultsim.Injector
	// Health is the fleet health monitor when Config.Health was given.
	Health *health.Monitor
	// Ops records every membership op played so far, in completion order.
	Ops []OpRecord

	// Ready triggers when the swap device is attached (the NBD dial
	// happens in simulated time); workloads should wait on it.
	Ready   *sim.Event
	readyAt sim.Time
	played  bool // Config.Membership has been played to its end (or its first failure)

	// Fleet state behind spawn and the membership ops (see fleet.go).
	fabric   *ib.Fabric
	sets     [][]*hpbd.Device // devices by the server set they share
	scfg     func(storeBytes int64) hpbd.ServerConfig
	tenancy  *tenant.Spec
	srvBatch int // doorbell batch inherited by spawned servers (0: default)
}

// Build assembles a node on env.
func Build(env *sim.Env, cfg Config) (*Node, error) {
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	hpbdOnly := cfg.Mirror || cfg.Faults != nil || cfg.FallbackDisk || cfg.Tenancy != nil ||
		len(cfg.Membership) > 0 || cfg.MemBytes == 0
	if hpbdOnly && cfg.Swap != SwapHPBD {
		return nil, fmt.Errorf("cluster: Mirror, Faults, FallbackDisk, Tenancy, Membership and VM-less nodes require SwapHPBD, got %s", cfg.Swap)
	}
	if cfg.Tenancy != nil {
		if err := cfg.Tenancy.Validate(); err != nil {
			return nil, err
		}
		if cfg.TenantID == "" && cfg.MemBytes > 0 {
			cfg.TenantID = cfg.Tenancy.Tenants[0].ID
		}
		if cfg.TenantID != "" && cfg.Tenancy.Find(cfg.TenantID) == nil {
			return nil, fmt.Errorf("cluster: TenantID %q not in the QoS spec", cfg.TenantID)
		}
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(env)
	}
	if cfg.Trace {
		tel.EnableTracing()
	}
	n := &Node{Env: env, Swap: cfg.Swap, Tel: tel, Ready: sim.NewEvent(env)}
	host := netmodel.DefaultHost()
	if cfg.MemBytes > 0 {
		vmcfg := vm.DefaultConfig(cfg.MemBytes)
		if cfg.VMConfig != nil {
			cfg.VMConfig(&vmcfg)
		}
		if vmcfg.Telemetry == nil {
			vmcfg.Telemetry = tel
		}
		n.VM = vm.NewSystem(env, vmcfg)
		host = vmcfg.Host
	}

	switch cfg.Swap {
	case SwapNone:
		n.finish(cfg)

	case SwapDisk:
		n.Disk = disk.New(env, "hda-swap", cfg.SwapBytes, cfg.diskParams())
		n.Queue = blockdev.NewQueue(env, host, n.Disk)
		n.finish(cfg)

	case SwapHPBD:
		if err := n.buildFleet(cfg, host); err != nil {
			return nil, err
		}
		n.finish(cfg)

	case SwapNBDGigE, SwapNBDIPoIB:
		link := netmodel.GigE()
		if cfg.Swap == SwapNBDIPoIB {
			link = netmodel.IPoIB()
		}
		mem := netmodel.DefaultMem()
		net := tcpip.NewNetwork(env, link, mem)
		ch, sh := net.NewHost("client"), net.NewHost("nbd-server")
		srv, err := nbd.NewServer(env, sh, cfg.SwapBytes, mem)
		if err != nil {
			return nil, err
		}
		srv.SetTelemetry(tel)
		n.NBDServer = srv
		size := cfg.SwapBytes
		env.Go("nbd-setup", func(p *sim.Proc) {
			dev, derr := nbd.NewDevice(p, "nbd0", ch, sh, size)
			if derr != nil {
				return // Ready never triggers; workloads report the hang
			}
			dev.SetTelemetry(tel)
			n.Queue = blockdev.NewQueue(env, host, dev)
			n.finish(cfg)
		})

	default:
		return nil, fmt.Errorf("cluster: unknown swap kind %d", cfg.Swap)
	}
	return n, nil
}

// finish registers the swap queue with the VM, starts the membership
// schedule and signals readiness.
func (n *Node) finish(cfg Config) {
	if n.Queue != nil {
		n.Queue.SetTelemetry(n.Tel)
		if cfg.LogRequests {
			n.Queue.EnableLog()
		}
		if cfg.Elevator {
			n.Queue.EnableElevator()
		}
		if cfg.Health != nil {
			n.Health = health.NewMonitor(n.Env, n.Tel, *cfg.Health)
			n.Queue.SetActivityHook(n.Health.Kick)
			n.Health.Start()
		}
		if n.VM != nil {
			n.VM.AddSwap(n.Queue, 0)
		}
	}
	n.played = len(cfg.Membership) == 0
	if !n.played {
		n.Env.Go("membership", func(p *sim.Proc) {
			_ = n.Play(p, cfg.Membership) // a failed op is on n.Ops
			n.played = true
		})
	}
	n.readyAt = n.Env.Now()
	n.Ready.Trigger()
}
