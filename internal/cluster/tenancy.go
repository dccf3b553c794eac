package cluster

import (
	"fmt"

	"hpbd/internal/blockdev"
	"hpbd/internal/disk"
	"hpbd/internal/faultsim"
	"hpbd/internal/hpbd"
	"hpbd/internal/ib"
	"hpbd/internal/netmodel"
	"hpbd/internal/sim"
	"hpbd/internal/telemetry"
	"hpbd/internal/tenant"
)

// TenantFleetConfig describes a shared HPBD server fleet serving one
// block device per tenant of a QoS spec — the multi-tenant topology the
// isolation suite, the sweep-tenant experiment and `hpbdctl tenants`
// all build.
type TenantFleetConfig struct {
	// Spec is the QoS contract (validated; every tenant in it gets a
	// device). Quotas are enforced per server.
	Spec *tenant.Spec
	// Servers is the shared fleet size (default 1).
	Servers int
	// SwapBytesPer is each tenant's device size, split evenly across the
	// fleet; every server's store holds one area per tenant.
	SwapBytesPer int64
	// FIFO selects the strict-FIFO control scheduler instead of WFQ.
	FIFO bool
	// Fallback gives each tenant device a local fallback disk — the
	// reclaim target for quota evictions and the overflow path when
	// admission pushback outlasts the retry budget.
	Fallback bool
	// Client overrides the per-tenant device configuration (nil:
	// defaults plus MaxRetries=8, the pushback retry budget).
	Client *hpbd.ClientConfig
	// ServerCfg overrides the per-server configuration (nil: defaults).
	ServerCfg func(storeBytes int64) hpbd.ServerConfig
	// IB overrides the fabric configuration (nil: defaults).
	IB *ib.Config
	// Faults, if non-nil, replays a deterministic fault schedule against
	// the fleet's servers and every tenant device.
	Faults *faultsim.Schedule
	// Disk overrides the fallback disk model (nil: defaults).
	Disk *disk.Params
}

// TenantNode is one tenant's client stack. Each node reports into its
// own registry so per-tenant latency distributions never mix.
type TenantNode struct {
	ID    string
	Dev   *hpbd.Device
	Queue *blockdev.Queue
	Tel   *telemetry.Registry
}

// TenantFleet is an assembled multi-tenant cluster: a shared server
// fleet (one registry) and one client node per tenant.
type TenantFleet struct {
	Env     *sim.Env
	Tel     *telemetry.Registry // the servers' shared registry
	Servers []*hpbd.Server
	Nodes   []*TenantNode // spec order
	Faults  *faultsim.Injector
}

// Node returns tenant id's client stack (nil if unknown).
func (f *TenantFleet) Node(id string) *TenantNode {
	for _, n := range f.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// NewTenantFleet assembles the fleet. Devices attach in spec order, each
// across the whole fleet, so the layout — like everything else in the
// simulation — is deterministic.
func NewTenantFleet(env *sim.Env, cfg TenantFleetConfig) (*TenantFleet, error) {
	if cfg.Spec == nil {
		return nil, fmt.Errorf("cluster: tenant fleet needs a QoS spec")
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	area := cfg.SwapBytesPer / int64(cfg.Servers)
	area -= area % blockdev.SectorSize
	if area <= 0 {
		return nil, fmt.Errorf("cluster: swap area %d too small for %d servers", cfg.SwapBytesPer, cfg.Servers)
	}
	ibcfg := ib.DefaultConfig()
	if cfg.IB != nil {
		ibcfg = *cfg.IB
	}
	tel := ibcfg.Telemetry
	if tel == nil {
		tel = telemetry.New(env)
		ibcfg.Telemetry = tel
	}
	fabric := ib.NewFabric(env, ibcfg)
	scfg := hpbd.DefaultServerConfig
	if cfg.ServerCfg != nil {
		scfg = cfg.ServerCfg
	}
	fleet := &TenantFleet{Env: env, Tel: tel}
	storeBytes := area * int64(len(cfg.Spec.Tenants))
	for i := 0; i < cfg.Servers; i++ {
		sc := scfg(storeBytes)
		if sc.Telemetry == nil {
			sc.Telemetry = tel
		}
		sc.Tenancy = cfg.Spec
		sc.TenantFIFO = cfg.FIFO
		fleet.Servers = append(fleet.Servers, hpbd.NewServer(fabric, fmt.Sprintf("mem%d", i), sc))
	}
	host := netmodel.DefaultHost()
	for i := range cfg.Spec.Tenants {
		id := cfg.Spec.Tenants[i].ID
		ccfg := hpbd.DefaultClientConfig()
		if cfg.Client != nil {
			ccfg = *cfg.Client
		}
		ccfg.Tenant = id
		if ccfg.MaxRetries == 0 {
			ccfg.MaxRetries = 8
		}
		if ccfg.Telemetry == nil {
			ccfg.Telemetry = telemetry.New(env)
		}
		if cfg.Fallback {
			params := disk.DefaultParams()
			if cfg.Disk != nil {
				params = *cfg.Disk
			}
			ccfg.Fallback = disk.New(env, "fb-"+id, cfg.SwapBytesPer, params)
		}
		dev := hpbd.NewDevice(fabric, "hpbd-"+id, ccfg)
		for _, srv := range fleet.Servers {
			if err := dev.ConnectServer(srv, area); err != nil {
				return nil, err
			}
		}
		fleet.Nodes = append(fleet.Nodes, &TenantNode{
			ID:    id,
			Dev:   dev,
			Queue: blockdev.NewQueue(env, host, dev),
			Tel:   ccfg.Telemetry,
		})
	}
	if cfg.Faults != nil {
		inj := faultsim.New(env, *cfg.Faults, tel)
		for _, s := range fleet.Servers {
			inj.AddServer(s)
		}
		for _, n := range fleet.Nodes {
			inj.AddClient(n.Dev)
		}
		fabric.SetFaultHook(inj)
		inj.Start()
		fleet.Faults = inj
	}
	return fleet, nil
}
