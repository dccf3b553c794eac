package netblock

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"hpbd/internal/telemetry"
)

// stageAcc is the live-path analogue of the simulator's critical-path
// analyzer: mutex-guarded wall-clock sums per telemetry.Stage, so a real
// TCP run reports the same breakdown taxonomy as the simulated HPBD and
// NBD datapaths. Stages the socket client cannot observe (block-layer
// queue, staging-pool wait, RDMA, server copy) stay zero, and so does
// drain: a read's payload lands in the caller's buffer straight off the
// socket, inside the reply. Per the shared convention, unattributed
// server + wire time lands in the reply stage. The recorded stages
// partition each request's end-to-end wall time exactly, as in the
// simulator.
type stageAcc struct {
	mu    sync.Mutex
	count int64
	errs  int64
	sums  [telemetry.NumStages]time.Duration
	e2e   time.Duration
}

// record ingests one completed request. credit and send come from the
// issue path, total is end-to-end; whatever is left over is the reply
// stage (server + wire + payload).
func (a *stageAcc) record(err bool, credit, send, total time.Duration) {
	reply := total - credit - send
	if reply < 0 {
		reply = 0
	}
	a.mu.Lock()
	a.count++
	if err {
		a.errs++
	}
	a.sums[telemetry.StageCreditStall] += credit
	a.sums[telemetry.StageSend] += send
	a.sums[telemetry.StageReply] += reply
	a.e2e += total
	a.mu.Unlock()
}

// StageSum returns the accumulated wall-clock time in one stage.
func (c *Client) StageSum(s telemetry.Stage) time.Duration {
	if s < 0 || s >= telemetry.NumStages {
		return 0
	}
	c.stages.mu.Lock()
	defer c.stages.mu.Unlock()
	return c.stages.sums[s]
}

// Requests returns how many I/Os the breakdown has ingested.
func (c *Client) Requests() int64 {
	c.stages.mu.Lock()
	defer c.stages.mu.Unlock()
	return c.stages.count
}

// Breakdown renders the client's critical-path attribution in the same
// fixed stage order and format family as the simulator's BreakdownTable,
// so live and simulated runs read side by side.
func (c *Client) Breakdown() string {
	a := &c.stages
	a.mu.Lock()
	defer a.mu.Unlock()
	var b strings.Builder
	if a.count == 0 {
		fmt.Fprintf(&b, "critical-path breakdown: no completed requests\n")
		return b.String()
	}
	fmt.Fprintf(&b, "critical-path breakdown (%d requests, %d errors, mean end-to-end %.3fus, wall clock):\n",
		a.count, a.errs, float64(a.e2e.Nanoseconds())/float64(a.count)/1e3)
	fmt.Fprintf(&b, "  %-14s %14s %12s %8s\n", "stage", "total(ms)", "mean(us)", "share")
	for s := telemetry.Stage(0); s < telemetry.NumStages; s++ {
		tot := float64(a.sums[s].Nanoseconds())
		share := 0.0
		if a.e2e > 0 {
			share = tot / float64(a.e2e.Nanoseconds())
		}
		fmt.Fprintf(&b, "  %-14s %14.6f %12.3f %7.2f%%\n",
			s.String(), tot/1e6, tot/float64(a.count)/1e3, share*100)
	}
	fmt.Fprintf(&b, "  %-14s %14.6f %12.3f %7.2f%%\n",
		"end-to-end", float64(a.e2e.Nanoseconds())/1e6,
		float64(a.e2e.Nanoseconds())/float64(a.count)/1e3, 100.0)
	return b.String()
}
