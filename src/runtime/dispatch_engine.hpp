// dispatch_engine.hpp — the shared-stack engine with per-worker queues and
// a pluggable placement policy.
//
// A LockingEngine's shared queue gives no placement control; this
// configuration adds a software dispatcher (mirroring the paper's
// scheduling layer): the submitting thread routes each frame to a worker
// per DispatchPolicy —
//
//   kRoundRobin  — no affinity (the FCFS baseline),
//   kMruWorker   — the most-recently-*dispatched-to* worker whose queue has
//                  room (concentrates work to keep caches warm),
//   kStreamHash  — stream -> worker (the Wired-Streams analogue).
//
// Workers share one ProtocolStack under Engine::stack_mu_ (the Locking
// paradigm), so the policies differ only in cache placement — on real
// multicore hardware kStreamHash keeps each stream's session state in one
// core's cache.
//
// Two front-end extensions ride on top of the software policy:
//
//  * EngineOptions::nic_mode — a NIC hardware classifier (RSS, Flow
//    Director, or the transport-friendly consumer-feedback mode) that
//    overrides the software route: the NIC picked the queue before the
//    scheduler ever saw the frame. kTransportFriendly defers every pin move
//    until the old queue's in-flight prefix for the stream has drained, so
//    the steal repins that reorder under Flow Director stay in-order by
//    construction (arXiv:1106.0445).
//  * EngineOptions::steal — affinity-aware work stealing: per-worker queues
//    become MPMC, and an idle worker takes a bounded batch from the head of
//    the longest peer queue (order preserved within the batch). Under Flow
//    Director the stolen stream's pin follows the thief, which makes new
//    arrivals chase it while old frames drain at the victim — the Wu et al.
//    reordering pathology, reproduced by tests/ordering_test.cpp.
#pragma once

#include "runtime/engine.hpp"

namespace affinity {

/// Shared stack, per-worker queues, software placement by `policy`.
class DispatchEngine final : public Engine {
 public:
  DispatchEngine(unsigned workers, DispatchPolicy policy, HostConfig host,
                 std::size_t ring_capacity = 1024)
      : DispatchEngine(workers, policy, host, optionsWithCapacity(ring_capacity)) {}
  DispatchEngine(unsigned workers, DispatchPolicy policy, HostConfig host,
                 const EngineOptions& options)
      : Engine(workers, EngineShape{false, true, policy, "dispatch"}, host, options) {}

  using Engine::policy;
  using Engine::repinStream;
  using Engine::route;
};

}  // namespace affinity
