// Package tenant is the multi-tenancy layer for the simulated HPBD
// stack: many client devices (tenants) share one memory-server fleet
// with enforceable isolation. It provides the three mechanisms the
// server composes:
//
//   - a Spec describing each tenant's QoS contract — scheduling weight,
//     guaranteed credit reservation and memory quota — with a
//     human-writable text form for CLI flags ("pool=8,A:w4:r8:q1M");
//   - a CreditBank (credits.go) partitioning the server's receive
//     window into per-tenant reservations plus a weighted borrowable
//     common pool, so a greedy tenant stalls on its own window and
//     never on a victim's;
//   - a Sched (wfq.go), the deterministic byte-weighted fair queue
//     that replaces FIFO issue of server work when tenancy is on.
//
// The package depends only on internal/sim so the hpbd client and
// server can both import it.
package tenant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Tenant is one tenant's QoS contract.
type Tenant struct {
	// ID names the tenant; clients present it at attach time.
	ID string
	// Weight is the tenant's fair-queueing weight (>= 1): scheduler
	// bandwidth and pool-borrowing priority scale with it.
	Weight int
	// Reserved is the tenant's guaranteed credit reservation: that many
	// request slots at each server are always available to it, whatever
	// the other tenants do.
	Reserved int
	// Quota bounds the tenant's resident bytes per server (0: no limit).
	// Writes that would exceed it are admission-controlled with
	// RNR-style pushback, and cold pages are reclaimed to the tenant's
	// fallback disk.
	Quota int64
}

// Spec is a full multi-tenancy contract: the shared credit pool plus
// every tenant's entry, normalized to ID order.
type Spec struct {
	// Pool is the number of borrowable credits shared by all tenants on
	// top of their reservations.
	Pool int
	// Tenants holds one entry per tenant, sorted by ID.
	Tenants []Tenant
}

// Limits keep fuzzed and hand-built specs inside sane bounds.
const (
	maxTenants  = 256
	maxIDLen    = 64
	maxWeight   = 1 << 20
	maxReserved = 1 << 20
	maxPool     = 1 << 20
)

// Find returns the tenant entry for id, or nil.
func (s *Spec) Find(id string) *Tenant {
	for i := range s.Tenants {
		if s.Tenants[i].ID == id {
			return &s.Tenants[i]
		}
	}
	return nil
}

// Provisioned is the total credit supply: the pool plus every
// reservation.
func (s *Spec) Provisioned() int {
	n := s.Pool
	for i := range s.Tenants {
		n += s.Tenants[i].Reserved
	}
	return n
}

// TotalWeight sums the tenant weights.
func (s *Spec) TotalWeight() int {
	w := 0
	for i := range s.Tenants {
		w += s.Tenants[i].Weight
	}
	return w
}

// normalize sorts tenants by ID (the canonical order used for grant
// tie-breaks, metric registration and rendering).
func (s *Spec) normalize() {
	sort.Slice(s.Tenants, func(i, j int) bool { return s.Tenants[i].ID < s.Tenants[j].ID })
}

// Validate checks the spec's invariants: at least one tenant, unique
// well-formed IDs, positive weights, non-negative reservations/quotas
// and at least one provisioned credit.
func (s *Spec) Validate() error {
	if len(s.Tenants) == 0 {
		return fmt.Errorf("tenant: spec has no tenants")
	}
	if len(s.Tenants) > maxTenants {
		return fmt.Errorf("tenant: %d tenants exceeds limit %d", len(s.Tenants), maxTenants)
	}
	if s.Pool < 0 || s.Pool > maxPool {
		return fmt.Errorf("tenant: pool %d out of range", s.Pool)
	}
	seen := make(map[string]bool, len(s.Tenants))
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if err := checkID(t.ID); err != nil {
			return err
		}
		if seen[t.ID] {
			return fmt.Errorf("tenant: duplicate tenant %q", t.ID)
		}
		seen[t.ID] = true
		if t.Weight < 1 || t.Weight > maxWeight {
			return fmt.Errorf("tenant: %s weight %d out of range", t.ID, t.Weight)
		}
		if t.Reserved < 0 || t.Reserved > maxReserved {
			return fmt.Errorf("tenant: %s reservation %d out of range", t.ID, t.Reserved)
		}
		if t.Quota < 0 {
			return fmt.Errorf("tenant: %s quota %d negative", t.ID, t.Quota)
		}
	}
	if s.Provisioned() < 1 {
		return fmt.Errorf("tenant: spec provisions no credits")
	}
	return nil
}

// checkID enforces the tenant-ID charset (the IDs appear in metric
// names and the text spec, so separators are excluded).
func checkID(id string) error {
	if id == "" || len(id) > maxIDLen {
		return fmt.Errorf("tenant: bad tenant id %q", id)
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return fmt.Errorf("tenant: bad character %q in tenant id %q", c, id)
		}
	}
	return nil
}

// ParseSpec parses the comma-separated text form. The first entries may
// set the shared pool ("pool=N"); each remaining entry is one tenant:
//
//	id[:wW][:rR][:qBYTES]
//
// where W is the fair-queueing weight (default 1), R the reserved
// credits (default 0) and BYTES the memory quota with an optional
// K/M/G suffix (default 0 = unlimited). Example:
//
//	pool=8,A:w4:r8:q2M,B:w1:r4
func ParseSpec(spec string) (*Spec, error) {
	var s Spec
	sawPool := false
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "pool="); ok {
			if sawPool {
				return nil, fmt.Errorf("tenant: duplicate pool entry in %q", spec)
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("tenant: bad pool %q: %v", v, err)
			}
			s.Pool = n
			sawPool = true
			continue
		}
		t, err := parseTenant(part)
		if err != nil {
			return nil, err
		}
		s.Tenants = append(s.Tenants, t)
	}
	s.normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

func parseTenant(tok string) (Tenant, error) {
	t := Tenant{Weight: 1}
	fields := strings.Split(tok, ":")
	t.ID = fields[0]
	for _, f := range fields[1:] {
		if len(f) < 2 {
			return t, fmt.Errorf("tenant: bad field %q in %q", f, tok)
		}
		switch f[0] {
		case 'w':
			n, err := strconv.Atoi(f[1:])
			if err != nil {
				return t, fmt.Errorf("tenant: bad weight in %q: %v", tok, err)
			}
			t.Weight = n
		case 'r':
			n, err := strconv.Atoi(f[1:])
			if err != nil {
				return t, fmt.Errorf("tenant: bad reservation in %q: %v", tok, err)
			}
			t.Reserved = n
		case 'q':
			n, err := parseBytes(f[1:])
			if err != nil {
				return t, fmt.Errorf("tenant: bad quota in %q: %v", tok, err)
			}
			t.Quota = n
		default:
			return t, fmt.Errorf("tenant: unknown field %q in %q", f, tok)
		}
	}
	return t, nil
}

// parseBytes reads a byte count with an optional K/M/G suffix
// (powers of 1024).
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, err
	}
	if n < 0 || n > (1<<62)/mult {
		return 0, fmt.Errorf("byte count %q out of range", s)
	}
	return n * mult, nil
}

// formatBytes renders n with the largest exact K/M/G suffix so
// Spec round-trips through the text form.
func formatBytes(n int64) string {
	switch {
	case n > 0 && n%(1<<30) == 0:
		return strconv.FormatInt(n>>30, 10) + "G"
	case n > 0 && n%(1<<20) == 0:
		return strconv.FormatInt(n>>20, 10) + "M"
	case n > 0 && n%(1<<10) == 0:
		return strconv.FormatInt(n>>10, 10) + "K"
	}
	return strconv.FormatInt(n, 10)
}

// String renders the spec back into the canonical text form ParseSpec
// accepts: the pool first, then the tenants in ID order.
func (s *Spec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pool=%d", s.Pool)
	for i := range s.Tenants {
		t := &s.Tenants[i]
		fmt.Fprintf(&b, ",%s:w%d:r%d", t.ID, t.Weight, t.Reserved)
		if t.Quota > 0 {
			b.WriteString(":q")
			b.WriteString(formatBytes(t.Quota))
		}
	}
	return b.String()
}
