// `RoutingState::resolve` is a pure read of the converged state, so one
// state may be resolved from many threads at once.  Labelled `tsan` (it
// rides in parallel_test): under ThreadSanitizer a write inside resolve
// would be reported as a race between the readers.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "anycast/config.h"
#include "anycast/world.h"
#include "bgp/simulator.h"

namespace anyopt::bgp {
namespace {

TEST(ResolveConcurrency, ConcurrentResolvesMatchSerial) {
  const std::unique_ptr<anycast::World> world =
      anycast::World::create(anycast::WorldParams::test_scale(29));
  const auto& targets = world->targets();
  const auto cfg = anycast::AnycastConfig::all_sites(world->deployment());
  const RoutingState state =
      world->simulator().run(cfg.schedule(world->deployment()), 0x7EAD);

  const auto resolve_all = [&](std::vector<ResolvedPath>& out) {
    out.resize(targets.size());
    for (std::uint32_t t = 0; t < targets.size(); ++t) {
      const anycast::Target& target = targets.target(TargetId{t});
      out[t] = state.resolve(target.as, target.where, t);
    }
  };
  std::vector<ResolvedPath> serial;
  resolve_all(serial);

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<ResolvedPath>> concurrent(kThreads);
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (std::size_t r = 0; r < kThreads; ++r) {
    readers.emplace_back([&, r] { resolve_all(concurrent[r]); });
  }
  for (std::thread& reader : readers) reader.join();

  for (std::size_t r = 0; r < kThreads; ++r) {
    SCOPED_TRACE("reader " + std::to_string(r));
    for (std::size_t t = 0; t < targets.size(); ++t) {
      const ResolvedPath& want = serial[t];
      const ResolvedPath& got = concurrent[r][t];
      ASSERT_EQ(got.reachable, want.reachable) << "target " << t;
      EXPECT_EQ(got.site, want.site) << "target " << t;
      EXPECT_EQ(got.attachment, want.attachment) << "target " << t;
      EXPECT_EQ(got.as_path, want.as_path) << "target " << t;
      // operator== on doubles deliberately: bit-identical, not "close".
      ASSERT_EQ(got.one_way_ms, want.one_way_ms) << "target " << t;
    }
  }
  std::size_t reachable = 0;
  for (const ResolvedPath& path : serial) reachable += path.reachable;
  EXPECT_GT(reachable, targets.size() / 2);
}

}  // namespace
}  // namespace anyopt::bgp
