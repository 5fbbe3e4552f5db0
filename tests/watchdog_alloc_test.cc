// Heap traffic of the SLO watchdog's scan over a service whose sessions
// hold thousands of rounds. The binary replaces the global operator new
// with a counting one (counting_new.cc) and bounds what one
// SloWatchdog::Check allocates: a few blocks per running session, and
// bytes that do not grow with the rounds the sessions hold or with the
// finished sessions the service still remembers.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "counting_new.h"
#include "core/aggregate.h"
#include "lbs/server.h"
#include "service/service.h"
#include "service/watchdog.h"
#include "workload/scenarios.h"

namespace lbsagg {
namespace service {
namespace {

TEST(WatchdogAllocations, ScanAllocatesPerRunningSessionNotPerRound) {
  const UsaScenario usa = BuildUsaScenario({.num_pois = 1200});
  const LbsServer server(usa.dataset.get(), {.max_k = 5});
  ServiceOptions options;
  options.admission.max_active = 4;
  options.slice_rounds = 64;
  EstimationService svc({{.meta = &server}}, options);
  SloWatchdog watchdog(&svc);

  SessionSpec spec;
  spec.family = EstimatorFamily::kNno;
  spec.aggregates = {AggregateSpec::Count(),
                     AggregateSpec::Sum(usa.columns.rating, "SUM(rating)")};
  // Eight finished sessions the service still remembers...
  spec.budget = 400;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    spec.seed = seed;
    svc.Submit(spec);
  }
  svc.RunUntilIdle();
  // ...and four that keep running past two thousand rounds each.
  spec.budget = uint64_t{1} << 40;
  std::vector<SessionId> running;
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    spec.seed = seed;
    running.push_back(svc.Submit(spec));
  }
  for (int slice = 0; slice < 4 * 32; ++slice) ASSERT_TRUE(svc.RunSlice());
  for (const SessionId id : running) {
    const SessionStatus status = svc.Poll(id);
    ASSERT_EQ(status.state, SessionState::kRunning);
    ASSERT_GE(status.rounds, 2000u);
  }

  watchdog.Check();  // primes the slope baselines
  ASSERT_EQ(watchdog.tracked_sessions(), running.size());
  const uint64_t allocations = testing_alloc::g_allocations.load();
  const uint64_t bytes = testing_alloc::g_bytes.load();
  watchdog.Check();
  const uint64_t scan_allocations =
      testing_alloc::g_allocations.load() - allocations;
  const uint64_t scan_bytes = testing_alloc::g_bytes.load() - bytes;

  // The rows and the baselines once per scan; per running session its
  // result vector and one single-point trace per aggregate.
  EXPECT_LE(scan_allocations, 2 + running.size() * (1 + spec.aggregates.size()));
  EXPECT_LE(scan_bytes, 4096u);
  RecordProperty("scan_allocations", std::to_string(scan_allocations));
  RecordProperty("scan_bytes", std::to_string(scan_bytes));
}

}  // namespace
}  // namespace service
}  // namespace lbsagg
