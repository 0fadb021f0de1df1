// Package flit is a Go reproduction of "FliT: A Library for Simple and
// Efficient Persistent Algorithms" (Wei, Ben-David, Friedman, Blelloch,
// Petrank — PPoPP 2022).
//
// FliT ("Flush if Tagged") instruments loads and stores so that any
// linearizable data structure becomes durably linearizable on non-volatile
// memory, while skipping almost all redundant flush instructions. The key
// idea is a flit-counter per memory location: a persisted store increments
// the counter, writes, flushes, fences, then decrements; a persisted load
// flushes the location only if its counter is non-zero.
//
// Because Go cannot issue clwb/sfence and its GC forbids per-word tracking
// of native pointers, this reproduction runs on a simulated persistent
// memory (internal/pmem): a word-addressable volatile layer with a
// persistent shadow, explicit PWB/PFence instructions, crash-image
// generation and flush-cost modeling. Data structures allocate nodes from
// a persistent heap (internal/pheap) and reference them by offset, exactly
// as PMDK-based C++ code does.
//
// The packages under internal implement, per the paper:
//
//   - internal/pmem:   the NVRAM substrate (volatile + persistent layers,
//     PWB/PFence, crash modes, instruction-level crash injection, stats)
//   - internal/pheap:  persistent heap with offset pointers and root slots
//   - internal/core:   the P-V Interface policies — FliT (Algorithm 4) with
//     pluggable flit-counter placement, link-and-persist, plain, no-persist
//   - internal/dstruct: Harris linked list, hash table, skiplist and
//     Natarajan–Mittal BST, each supporting automatic / NVtraverse / manual
//     durability methods and post-crash recovery; plus the Friedman-style
//     durable queue (§4's volatile head/tail example) and a lock-based map
//     demonstrating §7's private-instruction optimization
//   - internal/hist:   a durable-linearizability checker for set histories
//   - internal/dlcheck, internal/crashtest: crash-recovery validation of
//     single structures and whole stores at every persist boundary of a
//     recorded execution, and at the service boundary under faults
//   - internal/bench: the one experiment runner — every figure and
//     ablation of the paper's evaluation section is a preset of its
//     matrix, rendered from the same machine-readable report
//
// Above the paper's scope, the service layer exercises FliT at
// production shape:
//
//   - internal/store:  FliT-Store, a sharded durable key-value store —
//     string keys hashed into the instrumented keyspace, one hashtable
//     shard per persistent root, a self-describing superblock, and
//     shard-parallel post-crash recovery
//   - internal/workload: a YCSB-style workload subsystem (mixes A-G,
//     uniform/zipfian/latest distributions, the closed-loop driver of
//     the network load generator, and the one Executor interface over
//     windows of store ops)
//   - internal/server, internal/client: the network front-end — a
//     pipelined binary protocol whose per-connection batches execute
//     with persistence deferred and commit under one shared fence
//     before any response (group-commit durability batching), served
//     by cmd/flitstored and driven by the cmd/flitload generator
//
// See DESIGN.md for the package inventory and EXPERIMENTS.md for how to
// regenerate the paper's figures and time the store (benchmark/).
// Start with examples/quickstart.
package flit
