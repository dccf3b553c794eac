package workload

import (
	"fmt"
	"math"
	"math/rand"

	"hpbd/internal/sim"
	"hpbd/internal/vm"
)

// BarnesCPUPerAccess calibrates compute per instrumented access for the
// N-body code (force kernels do real floating-point work per visit).
const BarnesCPUPerAccess = 35 * sim.Nanosecond

// bodyBytes is the footprint of one body (pos, vel, acc, mass as in the
// SPLASH-2 body record).
const bodyBytes = 80

// nodeBytes is the footprint of one octree cell.
const nodeBytes = 96

// theta is the Barnes-Hut opening angle.
const theta = 0.6

// eps2 is the softening length squared.
const eps2 = 1e-4

// node is one octree cell: an internal cell with children, or a leaf
// holding a single body.
type node struct {
	cx, cy, cz float64 // cell center
	half       float64 // half edge length
	mx, my, mz float64 // center of mass
	mass       float64
	body       int32 // leaf body index, or -1
	children   [8]int32
	leaf       bool
}

// Barnes is the paper's third benchmark: a Barnes-Hut simulation of
// gravitational interaction (the SPLASH-2 "Barnes" application). The
// octree and the physics are real; body and cell accesses are paged.
type Barnes struct {
	px, py, pz []float64
	vx, vy, vz []float64
	ax, ay, az []float64
	mass       []float64

	bodies *PagedArray
	cells  *PagedArray

	arena    []node
	maxCells int
	steps    int
	dt       float64
}

// NewBarnes creates an n-body system with the given number of simulation
// steps. Bodies start in a uniform sphere with small random velocities.
func NewBarnes(sys *vm.System, name string, n, steps int, rnd *rand.Rand) *Barnes {
	b := &Barnes{
		px: make([]float64, n), py: make([]float64, n), pz: make([]float64, n),
		vx: make([]float64, n), vy: make([]float64, n), vz: make([]float64, n),
		ax: make([]float64, n), ay: make([]float64, n), az: make([]float64, n),
		mass:  make([]float64, n),
		steps: steps,
		dt:    0.025,
	}
	// The SPLASH configuration's memory grows to just past the body
	// array: cells are roughly one per body at equilibrium.
	b.maxCells = 2*n + 64
	b.bodies = NewPagedArray(sys, name+"-bodies", n, bodyBytes, BarnesCPUPerAccess)
	b.cells = NewPagedArray(sys, name+"-cells", b.maxCells, nodeBytes, BarnesCPUPerAccess)
	for i := 0; i < n; i++ {
		for {
			x, y, z := rnd.Float64()*2-1, rnd.Float64()*2-1, rnd.Float64()*2-1
			if x*x+y*y+z*z <= 1 {
				b.px[i], b.py[i], b.pz[i] = x, y, z
				break
			}
		}
		b.vx[i] = (rnd.Float64() - 0.5) * 0.1
		b.vy[i] = (rnd.Float64() - 0.5) * 0.1
		b.vz[i] = (rnd.Float64() - 0.5) * 0.1
		b.mass[i] = 1.0 / float64(n)
	}
	return b
}

// N returns the body count.
func (b *Barnes) N() int { return len(b.px) }

// TotalMomentum returns the system momentum (a conservation check for
// tests; leapfrog with symmetric forces conserves it up to roundoff).
func (b *Barnes) TotalMomentum() (mx, my, mz float64) {
	for i := range b.px {
		mx += b.vx[i] * b.mass[i]
		my += b.vy[i] * b.mass[i]
		mz += b.vz[i] * b.mass[i]
	}
	return
}

// Run executes the configured number of steps.
func (b *Barnes) Run(p *sim.Proc) error {
	for s := 0; s < b.steps; s++ {
		root, err := b.buildTree(p)
		if err != nil {
			return err
		}
		if err := b.computeForces(p, root); err != nil {
			return err
		}
		if err := b.integrate(p); err != nil {
			return err
		}
	}
	b.bodies.Flush(p)
	b.cells.Flush(p)
	return nil
}

// newCell allocates a cell from the arena (paged write access).
func (b *Barnes) newCell(p *sim.Proc, cx, cy, cz, half float64) (int32, error) {
	if len(b.arena) >= b.maxCells {
		return -1, fmt.Errorf("barnes: cell arena exhausted (%d)", b.maxCells)
	}
	idx := int32(len(b.arena))
	b.arena = append(b.arena, node{cx: cx, cy: cy, cz: cz, half: half, body: -1, leaf: true})
	for i := range b.arena[idx].children {
		b.arena[idx].children[i] = -1
	}
	if err := b.cells.Access(p, int(idx), true); err != nil {
		return -1, err
	}
	return idx, nil
}

// buildTree constructs the octree over all bodies.
func (b *Barnes) buildTree(p *sim.Proc) (int32, error) {
	b.arena = b.arena[:0]
	// Bounding cube.
	max := 1.0
	for i := range b.px {
		if err := b.bodies.Access(p, i, false); err != nil {
			return -1, err
		}
		for _, v := range [3]float64{b.px[i], b.py[i], b.pz[i]} {
			if a := math.Abs(v); a > max {
				max = a
			}
		}
	}
	root, err := b.newCell(p, 0, 0, 0, max*1.001)
	if err != nil {
		return -1, err
	}
	for i := range b.px {
		if err := b.insert(p, root, int32(i)); err != nil {
			return -1, err
		}
	}
	if err := b.summarize(p, root); err != nil {
		return -1, err
	}
	return root, nil
}

// octant returns which child of cell idx the body at (x,y,z) belongs in.
func octant(n *node, x, y, z float64) int {
	o := 0
	if x >= n.cx {
		o |= 1
	}
	if y >= n.cy {
		o |= 2
	}
	if z >= n.cz {
		o |= 4
	}
	return o
}

func childCenter(n *node, o int) (float64, float64, float64, float64) {
	h := n.half / 2
	cx, cy, cz := n.cx-h, n.cy-h, n.cz-h
	if o&1 != 0 {
		cx = n.cx + h
	}
	if o&2 != 0 {
		cy = n.cy + h
	}
	if o&4 != 0 {
		cz = n.cz + h
	}
	return cx, cy, cz, h
}

// insert places body bi into the subtree at ci.
func (b *Barnes) insert(p *sim.Proc, ci, bi int32) error {
	for depth := 0; depth < 512; depth++ {
		if err := b.cells.Access(p, int(ci), true); err != nil {
			return err
		}
		n := &b.arena[ci]
		if n.leaf && n.body < 0 {
			n.body = bi
			return nil
		}
		if n.leaf {
			// Split: push the resident body down.
			old := n.body
			n.body = -1
			n.leaf = false
			if err := b.pushDown(p, ci, old); err != nil {
				return err
			}
			n = &b.arena[ci] // arena may have grown
		}
		if err := b.bodies.Access(p, int(bi), false); err != nil {
			return err
		}
		o := octant(n, b.px[bi], b.py[bi], b.pz[bi])
		if n.children[o] < 0 {
			cx, cy, cz, h := childCenter(n, o)
			child, err := b.newCell(p, cx, cy, cz, h)
			if err != nil {
				return err
			}
			b.arena[ci].children[o] = child
		}
		ci = b.arena[ci].children[o]
	}
	return fmt.Errorf("barnes: insertion depth exceeded (coincident bodies?)")
}

func (b *Barnes) pushDown(p *sim.Proc, ci, bi int32) error {
	if err := b.bodies.Access(p, int(bi), false); err != nil {
		return err
	}
	n := &b.arena[ci]
	o := octant(n, b.px[bi], b.py[bi], b.pz[bi])
	if n.children[o] < 0 {
		cx, cy, cz, h := childCenter(n, o)
		child, err := b.newCell(p, cx, cy, cz, h)
		if err != nil {
			return err
		}
		b.arena[ci].children[o] = child
	}
	child := b.arena[ci].children[o]
	if err := b.cells.Access(p, int(child), true); err != nil {
		return err
	}
	cn := &b.arena[child]
	if cn.leaf && cn.body < 0 {
		cn.body = bi
		return nil
	}
	return b.insert(p, child, bi)
}

// summarize computes centers of mass bottom-up.
func (b *Barnes) summarize(p *sim.Proc, ci int32) error {
	if err := b.cells.Access(p, int(ci), true); err != nil {
		return err
	}
	n := &b.arena[ci]
	if n.leaf {
		if n.body >= 0 {
			bi := n.body
			if err := b.bodies.Access(p, int(bi), false); err != nil {
				return err
			}
			n = &b.arena[ci]
			n.mass = b.mass[bi]
			n.mx, n.my, n.mz = b.px[bi], b.py[bi], b.pz[bi]
		}
		return nil
	}
	var m, mx, my, mz float64
	for _, ch := range n.children {
		if ch < 0 {
			continue
		}
		if err := b.summarize(p, ch); err != nil {
			return err
		}
		c := &b.arena[ch]
		m += c.mass
		mx += c.mx * c.mass
		my += c.my * c.mass
		mz += c.mz * c.mass
	}
	n = &b.arena[ci]
	n.mass = m
	if m > 0 {
		n.mx, n.my, n.mz = mx/m, my/m, mz/m
	}
	return nil
}

// computeForces runs the theta-criterion traversal for every body.
func (b *Barnes) computeForces(p *sim.Proc, root int32) error {
	stack := make([]int32, 0, 128)
	for i := range b.px {
		if err := b.bodies.Access(p, i, true); err != nil {
			return err
		}
		b.ax[i], b.ay[i], b.az[i] = 0, 0, 0
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			ci := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if err := b.cells.Access(p, int(ci), false); err != nil {
				return err
			}
			n := &b.arena[ci]
			if n.mass == 0 {
				continue
			}
			dx, dy, dz := n.mx-b.px[i], n.my-b.py[i], n.mz-b.pz[i]
			d2 := dx*dx + dy*dy + dz*dz + eps2
			if n.leaf || (n.half*2)*(n.half*2) < theta*theta*d2 {
				if n.leaf && n.body == int32(i) {
					continue
				}
				inv := 1 / math.Sqrt(d2)
				f := n.mass * inv * inv * inv
				b.ax[i] += f * dx
				b.ay[i] += f * dy
				b.az[i] += f * dz
				continue
			}
			for _, ch := range n.children {
				if ch >= 0 {
					stack = append(stack, ch)
				}
			}
		}
	}
	return nil
}

// integrate advances positions and velocities (leapfrog).
func (b *Barnes) integrate(p *sim.Proc) error {
	for i := range b.px {
		if err := b.bodies.Access(p, i, true); err != nil {
			return err
		}
		b.vx[i] += b.ax[i] * b.dt
		b.vy[i] += b.ay[i] * b.dt
		b.vz[i] += b.az[i] * b.dt
		b.px[i] += b.vx[i] * b.dt
		b.py[i] += b.vy[i] * b.dt
		b.pz[i] += b.vz[i] * b.dt
	}
	return nil
}

// Release frees the workload's memory.
func (b *Barnes) Release() {
	b.bodies.Release()
	b.cells.Release()
}

// CellsUsed returns the number of octree cells allocated in the last
// built tree (footprint sizing for experiments).
func (b *Barnes) CellsUsed() int { return len(b.arena) }
