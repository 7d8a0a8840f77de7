// Tests of the benchmark's own statistics (src/stats.h). Plain checks, no
// framework: the benchmark build needs nothing beyond the library.
//
//   cmake --build .bench_build --target perfbench_stats_test
//   .bench_build/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (ok) return;
  std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  ++failures;
}
#define CHECK(expr) check((expr), #expr, __LINE__)

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

void nearest_rank_percentiles() {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  CHECK(perfbench::percentile(v, 50) == 3);
  CHECK(perfbench::percentile(v, 100) == 5);
  CHECK(perfbench::percentile(v, 1) == 1);
  CHECK(perfbench::percentile(one_to(1000), 99) == 990);
  CHECK(perfbench::percentile(one_to(200), 95) == 190);
  CHECK(perfbench::median(one_to(4)) == 2);
  CHECK(std::isnan(perfbench::percentile({}, 50)));
}

void ten_beyond_rule() {
  // p99 needs 1000 samples to leave ten above it; 999 leave nine.
  CHECK(perfbench::beyond(1000, 99) == 10);
  CHECK(perfbench::tail_supported(1000, 99));
  CHECK(!perfbench::tail_supported(999, 99));
  // p95 needs 200, the fleet workload's floor.
  CHECK(perfbench::tail_supported(200, 95));
  CHECK(!perfbench::tail_supported(199, 95));
  // p75 needs 40, the batch workload's floor.
  CHECK(perfbench::tail_supported(40, 75));
  CHECK(!perfbench::tail_supported(39, 75));
  CHECK(!perfbench::tail_supported(0, 50));
}

void unsupported_tail_is_not_reported() {
  // 200 deliveries leave ten above p95, so p95 is reported; 199 leave
  // nine, so it is NaN (printed as null), whatever the samples are.
  CHECK(perfbench::tail_percentile(one_to(200), 95) == 190);
  CHECK(std::isnan(perfbench::tail_percentile(one_to(199), 95)));
  CHECK(perfbench::tail_percentile(one_to(1000), 99) == 990);
  CHECK(std::isnan(perfbench::tail_percentile(one_to(999), 99)));
  CHECK(std::isnan(perfbench::tail_percentile({}, 75)));
}

void open_loop_times_from_due() {
  // 1000/s: request i is due at i ms.
  perfbench::OpenLoop loop(0, 1000.0);
  CHECK(loop.due_ns(3) == 3'000'000);
  // The sender stalls: requests 0..2 all leave at 2.5 ms.
  for (std::uint64_t i = 0; i < 3; ++i) loop.sent(i, 2'500'000, true);
  CHECK(std::fabs(loop.max_late_ms() - 2.5) < 1e-9);
  // All three complete at 2.6 ms: latency counts the sender's stall.
  loop.completed(3, 2'600'000);
  const auto& lat = loop.latencies_us();
  CHECK(lat.size() == 3);
  CHECK(std::fabs(lat[0] - 2600.0) < 1e-9);
  CHECK(std::fabs(lat[1] - 1600.0) < 1e-9);
  CHECK(std::fabs(lat[2] - 600.0) < 1e-9);
}

void open_loop_fifo_and_refusals() {
  perfbench::OpenLoop loop(1'000, 1e6);  // 1 us period
  loop.sent(0, 1'000, true);
  loop.sent(1, 2'000, false);  // refused: never completes
  loop.sent(2, 3'000, true);
  CHECK(loop.accepted() == 2);
  CHECK(loop.refused() == 1);
  loop.completed(1, 1'500);
  loop.completed(1, 9'000);  // no new completions: nothing recorded
  CHECK(loop.latencies_us().size() == 1);
  loop.completed(5, 4'000);  // clamps to the accepted count
  CHECK(loop.done() == 2);
  CHECK(std::fabs(loop.latencies_us()[1] - 1.0) < 1e-9);  // due 3 us, done 4 us
  CHECK(loop.max_late_ms() == 0.0);
}

}  // namespace

int main() {
  nearest_rank_percentiles();
  ten_beyond_rule();
  unsupported_tail_is_not_reported();
  open_loop_times_from_due();
  open_loop_fifo_and_refusals();
  if (failures == 0) std::puts("perfbench stats tests: all passed");
  return failures == 0 ? 0 : 1;
}
