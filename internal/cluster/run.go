package cluster

import (
	"fmt"

	"hpbd/internal/sim"
)

// Proc is one process of a Run.
type Proc struct {
	Name string
	Run  func(p *sim.Proc) error
}

// Run is the whole life of one simulated run: a fresh environment, the
// node cfg describes, the processes setup derives from it (workloads are
// constructed against the built node before any of them starts), each
// started once the node is ready and timed from there to its return, the
// event queue run dry, the environment closed. It returns the node, each
// process's elapsed virtual time in setup's order, and the first failure:
// a process's error in setup's order, else a membership op's, else a
// process (or membership schedule) that had not returned when the queue
// drained — a run that stalls is an error, not an elapsed time of zero.
func Run(cfg Config, setup func(*Node) []Proc) (*Node, []sim.Duration, error) {
	env := sim.NewEnv()
	defer env.Close()
	node, err := Build(env, cfg)
	if err != nil {
		return nil, nil, err
	}
	procs := setup(node)
	elapsed := make([]sim.Duration, len(procs))
	errs := make([]error, len(procs))
	done := make([]bool, len(procs))
	for i, pr := range procs {
		i, pr := i, pr
		env.Go(pr.Name, func(p *sim.Proc) {
			node.Ready.Wait(p)
			t0 := p.Now()
			errs[i] = pr.Run(p)
			elapsed[i] = p.Now().Sub(t0)
			done[i] = true
		})
	}
	end := env.Run()
	for i, pr := range procs {
		if errs[i] != nil {
			return node, elapsed, fmt.Errorf("%s: %w", pr.Name, errs[i])
		}
	}
	for i, rec := range node.Ops {
		if rec.Err != nil {
			return node, elapsed, fmt.Errorf("membership op %d: %w", i, rec.Err)
		}
	}
	for i, pr := range procs {
		if !done[i] {
			return node, elapsed, fmt.Errorf("cluster: %s had not returned when the event queue drained at %v", pr.Name, end)
		}
	}
	if !node.played {
		return node, elapsed, fmt.Errorf("cluster: membership had not returned when the event queue drained at %v", end)
	}
	return node, elapsed, nil
}
