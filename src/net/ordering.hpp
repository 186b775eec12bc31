// ordering.hpp — per-stream delivery-order checker.
//
// Streams carry monotonically increasing sequence numbers stamped at submit
// time; a consumer-side OrderingChecker records each delivery and counts
// regressions (a sequence number at or below the stream's last one). Any
// in-order transport keeps every stream's sequence strictly increasing at
// the delivery point; FlowDirector-with-migration provably does not
// (Wu et al., arXiv:1106.0443), and tests/ordering_test.cpp uses this
// checker to pin both facts.
//
// Beyond the aggregate counts, the checker captures each stream's *first*
// offending delivery (the sequence that arrived behind the watermark, and
// the watermark it arrived behind) so an A-B test failure prints the exact
// stranded prefix instead of a bare count.
//
// Thread-safe: engines deliver from many worker threads at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace affinity::net {

/// The first out-of-order (or duplicate) delivery observed on one stream.
struct OrderingFault {
  std::uint32_t stream = 0;
  std::uint64_t seq = 0;        ///< the offending sequence number
  std::uint64_t watermark = 0;  ///< highest seq the stream had already shown
};

struct OrderingReport {
  std::uint64_t observed = 0;    ///< record() calls
  std::uint64_t reordered = 0;   ///< seq strictly below the stream's last
  std::uint64_t duplicated = 0;  ///< seq equal to the stream's last
  std::uint64_t streams = 0;     ///< distinct streams seen
  /// First offense per faulted stream, in discovery order; capped at
  /// kMaxFaults entries so the report stays bounded under a pathology.
  std::vector<OrderingFault> faults;

  static constexpr std::size_t kMaxFaults = 16;

  [[nodiscard]] bool inOrder() const noexcept { return reordered == 0 && duplicated == 0; }

  /// Human-readable fault lines ("stream 3: seq 0 arrived behind watermark
  /// 4") for test-failure messages; empty string when in order.
  [[nodiscard]] std::string describeFaults() const;
};

class OrderingChecker {
 public:
  /// Records delivery of `seq` on `stream`. Sequence numbers are per-stream,
  /// start anywhere, and must strictly increase for an in-order verdict.
  void record(std::uint32_t stream, std::uint64_t seq) AFF_EXCLUDES(mu_);

  [[nodiscard]] OrderingReport report() const AFF_EXCLUDES(mu_);

 private:
  // Taken inside the engine's delivered-observer callback, i.e. while a
  // shared engine stack's mutex is held — the one real cross-class nesting
  // in the tree, so the order is declared from both sides (the AFTER here
  // is the redundant mirror of the engine's BEFORE; flipping that one is
  // the lint mutation demo in tests/lint_test.cpp).
  mutable Mutex mu_{"OrderingChecker::mu_"} AFF_ACQUIRED_AFTER(Engine::stack_mu_);
  // last_[stream] = last seq + 1 (0 = stream unseen); dense small ids.
  std::vector<std::uint64_t> last_ AFF_GUARDED_BY(mu_);
  // faulted_[stream] = 1 once the stream's first offense is captured.
  std::vector<std::uint8_t> faulted_ AFF_GUARDED_BY(mu_);
  OrderingReport report_ AFF_GUARDED_BY(mu_);
};

}  // namespace affinity::net
