// Package hpbd reproduces "Swapping to Remote Memory over InfiniBand: An
// Approach using a High Performance Network Block Device" (Liang, Noronha,
// Panda; IEEE Cluster 2005) as a complete Go system.
//
// The paper's artifact was a Linux 2.4 kernel block driver that served
// swap I/O from remote memory servers over Mellanox InfiniBand verbs.
// This repository rebuilds the full stack twice:
//
//   - A deterministic simulation (internal/sim, internal/ib, internal/vm,
//     internal/blockdev, internal/hpbd, internal/nbd, ...) calibrated to
//     the paper's microbenchmarks, which regenerates every figure of the
//     evaluation (internal/experiments, cmd/hpbd-bench); bench/ measures it.
//
//   - A real user-space remote-memory block device over TCP
//     (internal/netblock, cmd/hpbd-server, cmd/hpbdctl) speaking the same
//     wire protocol (internal/wire), runnable on any two machines.
//
// Start with the README, DESIGN.md for the architecture and experiment
// index, and examples/quickstart for a first run.
package hpbd
