package main

import "time"

// Every wall-clock read of the benchmark goes through this file, so the
// repository's walltime analyzer has exactly one place to allow. Nothing
// here may reach a simulated component: virt_* metrics come from
// sim.Proc.Now only.

// hostNow reads the host's monotonic clock.
func hostNow() time.Time {
	return time.Now() //hpbd:allow walltime -- benchmark host clock
}

// hostSince returns the host time elapsed since t0.
func hostSince(t0 time.Time) time.Duration {
	return time.Since(t0) //hpbd:allow walltime -- benchmark host clock
}
