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
	// MemBytes is local memory available to applications.
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
	// Health, if non-nil, runs the fleet health engine over the node's
	// registry: a sim-time sampler, SLO burn-rate tracking and anomaly
	// rules (see internal/health). The zero Config selects the documented
	// defaults. Nil (the default) runs no health code at all and keeps
	// every output surface byte-identical.
	Health *health.Config
	// Tenancy, if non-nil, provisions every HPBD server with the
	// multi-tenant QoS spec: per-tenant credit partitioning of the
	// receive window, weighted fair scheduling of RDMA issue, and
	// per-tenant memory quotas (see internal/tenant and hpbd/tenancy.go).
	// The node's own device attaches as TenantID. Nil (the default) keeps
	// every output surface byte-identical to a single-tenant node. HPBD
	// only. Multi-device fleets are built with NewTenantFleet.
	Tenancy *tenant.Spec
	// TenantID is the identity the node's device presents when Tenancy is
	// set (default: the spec's first tenant).
	TenantID string
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
	// Faults is the fault injector when Config.Faults was given.
	Faults *faultsim.Injector
	// Health is the fleet health monitor when Config.Health was given.
	Health *health.Monitor

	// Ready triggers when the swap device is attached (the NBD dial
	// happens in simulated time); workloads should wait on it.
	Ready *sim.Event

	// Membership-controller state (HPBD nodes; see membership.go).
	fabric   *ib.Fabric
	scfg     func(storeBytes int64) hpbd.ServerConfig
	srvBatch int // doorbell batch inherited by spawned servers (0: default)
	nextSrv  int // next memN server name
}

// Build assembles a node on env.
func Build(env *sim.Env, cfg Config) (*Node, error) {
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if (cfg.Mirror || cfg.Faults != nil || cfg.FallbackDisk) && cfg.Swap != SwapHPBD {
		return nil, fmt.Errorf("cluster: Mirror/Faults/FallbackDisk require SwapHPBD, got %s", cfg.Swap)
	}
	if cfg.Tenancy != nil {
		if cfg.Swap != SwapHPBD {
			return nil, fmt.Errorf("cluster: Tenancy requires SwapHPBD, got %s", cfg.Swap)
		}
		if err := cfg.Tenancy.Validate(); err != nil {
			return nil, err
		}
		if cfg.TenantID == "" {
			cfg.TenantID = cfg.Tenancy.Tenants[0].ID
		}
		if cfg.Tenancy.Find(cfg.TenantID) == nil {
			return nil, fmt.Errorf("cluster: TenantID %q not in the QoS spec", cfg.TenantID)
		}
	}
	tel := cfg.Telemetry
	if tel == nil {
		tel = telemetry.New(env)
	}
	vmcfg := vm.DefaultConfig(cfg.MemBytes)
	if cfg.VMConfig != nil {
		cfg.VMConfig(&vmcfg)
	}
	if vmcfg.Telemetry == nil {
		vmcfg.Telemetry = tel
	}
	n := &Node{
		Env:   env,
		VM:    vm.NewSystem(env, vmcfg),
		Swap:  cfg.Swap,
		Tel:   tel,
		Ready: sim.NewEvent(env),
	}
	host := vmcfg.Host

	switch cfg.Swap {
	case SwapNone:
		n.Ready.Trigger()

	case SwapDisk:
		params := disk.DefaultParams()
		if cfg.Disk != nil {
			params = *cfg.Disk
		}
		n.Disk = disk.New(env, "hda-swap", cfg.SwapBytes, params)
		n.Queue = blockdev.NewQueue(env, host, n.Disk)
		n.finish(cfg)

	case SwapHPBD:
		ibcfg := ib.DefaultConfig()
		if cfg.IB != nil {
			ibcfg = *cfg.IB
		}
		if ibcfg.Telemetry == nil {
			ibcfg.Telemetry = tel
		}
		fabric := ib.NewFabric(env, ibcfg)
		ccfg := hpbd.DefaultClientConfig()
		if cfg.Client != nil {
			ccfg = *cfg.Client
		}
		if ccfg.Telemetry == nil {
			ccfg.Telemetry = tel
		}
		// Fault-aware configurations get request recovery by default
		// unless the caller pinned an explicit client config. The
		// watchdog timeout matters after a crash: requests already
		// delivered to the dead server hold credits and would stall the
		// sender forever without cancel-and-retry.
		if cfg.Client == nil && (cfg.Mirror || cfg.Faults != nil) {
			ccfg.MaxRetries = 2
			ccfg.RequestTimeout = 5 * sim.Millisecond
		}
		if cfg.Tenancy != nil {
			ccfg.Tenant = cfg.TenantID
			// Credit partitioning surfaces as RNR/quota pushback; the
			// retry path must be armed for the device to ride it out.
			if ccfg.MaxRetries == 0 {
				ccfg.MaxRetries = 8
			}
		}
		area := cfg.SwapBytes / int64(cfg.Servers)
		area -= area % blockdev.SectorSize
		if area <= 0 {
			return nil, fmt.Errorf("cluster: swap area %d too small for %d servers", cfg.SwapBytes, cfg.Servers)
		}
		scfg := hpbd.DefaultServerConfig
		if cfg.ServerCfg != nil {
			scfg = cfg.ServerCfg
		}
		sides := 1
		if cfg.Mirror {
			sides = 2
		}
		// Server names continue across sides (mem0..memS-1 on the
		// primary, memS.. on the secondary) so the single-device layout
		// and its telemetry are byte-identical to earlier revisions.
		var devs []*hpbd.Device
		serverIdx := 0
		for side := 0; side < sides; side++ {
			sideCfg := ccfg
			if cfg.FallbackDisk {
				params := disk.DefaultParams()
				if cfg.Disk != nil {
					params = *cfg.Disk
				}
				sideCfg.Fallback = disk.New(env, fmt.Sprintf("hda-fb%d", side), area*int64(cfg.Servers), params)
			}
			dev := hpbd.NewDevice(fabric, fmt.Sprintf("hpbd%d", side), sideCfg)
			for i := 0; i < cfg.Servers; i++ {
				sc := scfg(area)
				if sc.Telemetry == nil {
					sc.Telemetry = tel
				}
				if cfg.Tenancy != nil && sc.Tenancy == nil {
					sc.Tenancy = cfg.Tenancy
				}
				// A doorbell-batching client implies batching servers unless an
				// explicit server config already decided.
				if cfg.ServerCfg == nil && ccfg.DoorbellBatch > 1 {
					sc.DoorbellBatch = ccfg.DoorbellBatch
				}
				srv := hpbd.NewServer(fabric, fmt.Sprintf("mem%d", serverIdx), sc)
				serverIdx++
				if err := dev.ConnectServer(srv, area); err != nil {
					return nil, err
				}
				n.HPBDServers = append(n.HPBDServers, srv)
			}
			devs = append(devs, dev)
		}
		if cfg.Faults != nil {
			inj := faultsim.New(env, *cfg.Faults, tel)
			for _, s := range n.HPBDServers {
				inj.AddServer(s)
			}
			for _, d := range devs {
				inj.AddClient(d)
			}
			fabric.SetFaultHook(inj)
			inj.Start()
			n.Faults = inj
		}
		n.fabric = fabric
		n.scfg = scfg
		if cfg.ServerCfg == nil && ccfg.DoorbellBatch > 1 {
			n.srvBatch = ccfg.DoorbellBatch
		}
		n.nextSrv = serverIdx
		n.HPBD = devs[0]
		if cfg.Mirror {
			n.HPBD2 = devs[1]
			md, err := mirror.New(env, "md0", devs[0], devs[1])
			if err != nil {
				return nil, err
			}
			md.SetTelemetry(tel)
			n.Mirror = md
			n.Queue = blockdev.NewQueue(env, host, md)
		} else {
			n.Queue = blockdev.NewQueue(env, host, devs[0])
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

// finish registers the swap queue with the VM and signals readiness.
func (n *Node) finish(cfg Config) {
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
	n.VM.AddSwap(n.Queue, 0)
	n.Ready.Trigger()
}
