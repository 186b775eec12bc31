// lockdep_test.cpp — unit tests for the dynamic lock-order tracker
// (util/lockdep.hpp) plus the dynamic-vs-static cross-check that ties the
// two halves of the lock-discipline layer together: every acquisition edge
// lockdep observes while a real engine runs must lie inside the transitive
// closure of the static acquisition graph afflint extracts from the sources
// (lexical nestings + AFF_ACQUIRED_BEFORE/AFTER declarations).
//
// The unit tests drive onAcquire/onRelease directly with fake addresses, so
// they run in every tree — the cycle detector is compiled unconditionally.
// Only the cross-check needs the mutex hooks live (-DAFF_LOCKDEP=ON) and
// GTEST_SKIPs elsewhere.
#include "util/lockdep.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "net/ordering.hpp"
#include "proto/stack.hpp"
#include "runtime/engine.hpp"

namespace affinity {
namespace {

// Drains a writeJson/writeDot-style writer into a string via a temp stream.
std::string capture(void (*writer)(std::FILE*)) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  writer(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string joined(const std::vector<std::string>& reports) {
  std::ostringstream out;
  for (const auto& r : reports) out << "  " << r << "\n";
  return out.str();
}

TEST(Lockdep, ObservedNestingMakesOneEdgeWithBothSites) {
  lockdep::reset();
  int a = 0, b = 0;
  lockdep::onAcquire(&a, "Test::outer", "outer.cpp", 10);
  lockdep::onAcquire(&b, "Test::inner", "inner.cpp", 20);
  lockdep::onRelease(&b);
  lockdep::onRelease(&a);
  const auto es = lockdep::edges();
  ASSERT_EQ(es.size(), 1u);
  EXPECT_EQ(es[0].from, "Test::outer");
  EXPECT_EQ(es[0].to, "Test::inner");
  EXPECT_EQ(es[0].from_site, "outer.cpp:10");
  EXPECT_EQ(es[0].to_site, "inner.cpp:20");
  EXPECT_EQ(lockdep::cycleCount(), 0u) << joined(lockdep::reports());
  lockdep::reset();
}

TEST(Lockdep, AbThenBaClosesACycleWithAFirstWitnessReport) {
  lockdep::reset();
  int a = 0, b = 0;
  lockdep::onAcquire(&a, "Test::a", "ab.cpp", 1);
  lockdep::onAcquire(&b, "Test::b", "ab.cpp", 2);
  lockdep::onRelease(&b);
  lockdep::onRelease(&a);
  lockdep::onAcquire(&b, "Test::b", "ba.cpp", 3);
  lockdep::onAcquire(&a, "Test::a", "ba.cpp", 4);  // closes Test::a -> Test::b -> Test::a
  lockdep::onRelease(&a);
  lockdep::onRelease(&b);
  ASSERT_EQ(lockdep::cycleCount(), 1u);
  const auto reports = lockdep::reports();
  ASSERT_EQ(reports.size(), 1u);
  // The first witness carries both sites of the closing edge and the path
  // that already ordered the locks the other way.
  EXPECT_NE(reports[0].find("lock-order cycle"), std::string::npos) << reports[0];
  EXPECT_NE(reports[0].find("ba.cpp:4"), std::string::npos) << reports[0];
  EXPECT_NE(reports[0].find("ba.cpp:3"), std::string::npos) << reports[0];
  EXPECT_NE(reports[0].find("Test::a -> Test::b"), std::string::npos) << reports[0];

  // First witness only: exercising the same inverted order again is not a
  // new violation — the edge is already in the graph.
  lockdep::onAcquire(&b, "Test::b", "ba.cpp", 3);
  lockdep::onAcquire(&a, "Test::a", "ba.cpp", 4);
  lockdep::onRelease(&a);
  lockdep::onRelease(&b);
  EXPECT_EQ(lockdep::cycleCount(), 1u);
  lockdep::reset();
}

TEST(Lockdep, ReacquiringAHeldObjectIsASelfDeadlock) {
  lockdep::reset();
  int a = 0;
  // Identity-based, so it works for unnamed (e.g. test-local) mutexes too.
  lockdep::onAcquire(&a, nullptr, "self.cpp", 5);
  lockdep::onAcquire(&a, nullptr, "self.cpp", 9);
  lockdep::onRelease(&a);
  lockdep::onRelease(&a);
  ASSERT_EQ(lockdep::cycleCount(), 1u);
  const auto reports = lockdep::reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_NE(reports[0].find("self-deadlock"), std::string::npos) << reports[0];
  EXPECT_NE(reports[0].find("self.cpp:5"), std::string::npos) << reports[0];
  EXPECT_NE(reports[0].find("self.cpp:9"), std::string::npos) << reports[0];
  lockdep::reset();
}

TEST(Lockdep, UnnamedMutexesStayInTheHeldSetButAddNoEdges) {
  lockdep::reset();
  int named = 0, anon = 0;
  lockdep::onAcquire(&anon, nullptr, "anon.cpp", 1);
  lockdep::onAcquire(&named, "Test::named", "anon.cpp", 2);  // held lock unnamed: no edge
  lockdep::onRelease(&named);
  lockdep::onRelease(&anon);
  lockdep::onAcquire(&named, "Test::named", "anon.cpp", 3);
  lockdep::onAcquire(&anon, nullptr, "anon.cpp", 4);  // acquired lock unnamed: no edge
  lockdep::onRelease(&anon);
  lockdep::onRelease(&named);
  EXPECT_TRUE(lockdep::edges().empty());
  EXPECT_EQ(lockdep::cycleCount(), 0u);
  lockdep::reset();
}

TEST(Lockdep, ResetClearsEdgesAndReports) {
  lockdep::reset();
  int a = 0, b = 0;
  lockdep::onAcquire(&a, "Test::a", "r.cpp", 1);
  lockdep::onAcquire(&b, "Test::b", "r.cpp", 2);
  lockdep::onRelease(&b);
  lockdep::onRelease(&a);
  lockdep::onAcquire(&b, "Test::b", "r.cpp", 3);
  lockdep::onAcquire(&a, "Test::a", "r.cpp", 4);
  lockdep::onRelease(&a);
  lockdep::onRelease(&b);
  ASSERT_FALSE(lockdep::edges().empty());
  ASSERT_NE(lockdep::cycleCount(), 0u);
  lockdep::reset();
  EXPECT_TRUE(lockdep::edges().empty());
  EXPECT_TRUE(lockdep::reports().empty());
  EXPECT_EQ(lockdep::cycleCount(), 0u);
}

TEST(Lockdep, JsonAndDotExportsCarryTheGraphAndTheViolations) {
  lockdep::reset();
  int a = 0, b = 0;
  lockdep::onAcquire(&a, "Test::a", "x.cpp", 1);
  lockdep::onAcquire(&b, "Test::b", "x.cpp", 2);
  lockdep::onRelease(&b);
  lockdep::onRelease(&a);
  lockdep::onAcquire(&b, "Test::b", "y.cpp", 3);
  lockdep::onAcquire(&a, "Test::a", "y.cpp", 4);
  lockdep::onRelease(&a);
  lockdep::onRelease(&b);

  const std::string json = capture(&lockdep::writeJson);
  EXPECT_NE(json.find("\"edges\""), std::string::npos) << json;
  EXPECT_NE(json.find("{\"from\": \"Test::a\", \"to\": \"Test::b\", "
                      "\"from_site\": \"x.cpp:1\", \"to_site\": \"x.cpp:2\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"cycle_count\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("lock-order cycle"), std::string::npos) << json;

  const std::string dot = capture(&lockdep::writeDot);
  EXPECT_NE(dot.find("digraph lock_order"), std::string::npos) << dot;
  EXPECT_NE(dot.find("\"Test::a\" -> \"Test::b\""), std::string::npos) << dot;
  EXPECT_NE(dot.find("\"Test::b\" -> \"Test::a\""), std::string::npos) << dot;
  lockdep::reset();
}

// ---------------------------------------------------------------------------
// Dynamic vs static cross-check.
// ---------------------------------------------------------------------------

// Is `to` reachable from `from` in the static acquisition graph? Declared
// edges count: a callback-mediated nesting (engine stack lock held around a
// delivered_observer that locks the OrderingChecker) is invisible to the
// lexical scanner, so the declaration on the member IS how it becomes
// statically known — exactly what the declarations are for.
bool staticallyOrdered(const lint::LockGraph& g, const std::string& from,
                       const std::string& to) {
  std::set<std::string> seen{from};
  std::vector<std::string> stack{from};
  while (!stack.empty()) {
    const std::string cur = stack.back();
    stack.pop_back();
    if (cur == to) return true;
    for (const auto& e : g.edges)
      if (e.from == cur && seen.insert(e.to).second) stack.push_back(e.to);
  }
  return false;
}

constexpr std::uint16_t kPort = 7000;
constexpr std::uint32_t kStreams = 4;
constexpr std::uint64_t kFramesPerStream = 50;

std::vector<std::uint8_t> frameFor(std::uint32_t stream) {
  FrameSpec spec;
  spec.dst_port = kPort;
  spec.src_port = static_cast<std::uint16_t>(1000 + stream);
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  return buildUdpFrame(spec, payload);
}

TEST(LockdepLiveTree, DynamicEdgesLieWithinTheStaticAcquisitionGraph) {
  if (!lockdep::enabled())
    GTEST_SKIP() << "tree configured without -DAFF_LOCKDEP=ON; hooks are compiled out";
  lockdep::reset();

  // Run a real LockingEngine workload with a delivered_observer that locks
  // an OrderingChecker — the one genuine cross-class nesting in the engine
  // paths (stack_mu_ held around the callback).
  net::OrderingChecker checker;
  EngineOptions options;
  options.queue_capacity = 1024;
  options.delivered_observer = [&checker](const WorkItem& item) {
    checker.record(item.stream, item.seq);
  };
  LockingEngine engine(2, HostConfig{}, options);
  engine.openPort(kPort, 1024);
  engine.start();
  for (std::uint64_t seq = 0; seq < kFramesPerStream; ++seq)
    for (std::uint32_t s = 0; s < kStreams; ++s)
      ASSERT_TRUE(engine.submit(WorkItem{frameFor(s), s, {}, seq}));
  engine.stop();
  ASSERT_EQ(checker.report().observed, kStreams * kFramesPerStream);

  // The run itself must be violation-free...
  EXPECT_EQ(lockdep::cycleCount(), 0u) << joined(lockdep::reports());

  // ...must have actually observed the observer nesting (the check below is
  // vacuous on an empty edge set)...
  const auto dyn = lockdep::edges();
  bool saw_observer_edge = false;
  for (const auto& e : dyn)
    saw_observer_edge = saw_observer_edge ||
                        (e.from == "Engine::stack_mu_" && e.to == "OrderingChecker::mu_");
  EXPECT_TRUE(saw_observer_edge)
      << "expected the delivered-observer nesting in the observed graph; got "
      << dyn.size() << " edge(s)";

  // ...and every observed edge must be within the static graph's closure:
  // dynamic behavior never exercises an order the static pass doesn't know.
  const lint::LockGraph static_graph =
      lint::buildLockGraph(AFF_SOURCE_ROOT, {"src", "tools", "bench"});
  ASSERT_FALSE(static_graph.edges.empty());
  for (const auto& e : dyn) {
    EXPECT_TRUE(staticallyOrdered(static_graph, e.from, e.to))
        << e.from << " -> " << e.to << " (observed at " << e.to_site
        << ") is not in the static acquisition graph's transitive closure — "
           "add or fix an AFF_ACQUIRED_BEFORE/AFTER declaration";
  }
  lockdep::reset();
}

}  // namespace
}  // namespace affinity
