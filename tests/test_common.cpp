#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/log.h"
#include "common/parallel.h"

namespace mfa {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  }, /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, HandlesEmptyAndTinyRanges) {
  int calls = 0;
  parallel_for(0, [&](std::int64_t, std::int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::int64_t seen_b = -1, seen_e = -1;
  parallel_for(1, [&](std::int64_t b, std::int64_t e) {
    seen_b = b;
    seen_e = e;
  });
  EXPECT_EQ(seen_b, 0);
  EXPECT_EQ(seen_e, 1);
}

TEST(ParallelFor, ChunksAreDisjointAndOrderedWithinChunk) {
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  std::mutex m;
  parallel_for(100, [&](std::int64_t b, std::int64_t e) {
    const std::lock_guard<std::mutex> lock(m);
    ranges.emplace_back(b, e);
  }, /*grain=*/10);
  std::int64_t total = 0;
  for (const auto& [b, e] : ranges) {
    EXPECT_LT(b, e);
    total += e - b;
  }
  EXPECT_EQ(total, 100);
}

TEST(ParallelFor, SumMatchesSequential) {
  std::vector<double> data(4096);
  std::iota(data.begin(), data.end(), 0.0);
  std::atomic<long long> sum{0};
  parallel_for(static_cast<std::int64_t>(data.size()),
               [&](std::int64_t b, std::int64_t e) {
                 long long local = 0;
                 for (std::int64_t i = b; i < e; ++i)
                   local += static_cast<long long>(data[static_cast<size_t>(i)]);
                 sum += local;
               }, 64);
  EXPECT_EQ(sum.load(), 4096LL * 4095 / 2);
}

// The four on/off knobs share env::parse_flag. Each knob is read once per
// process, so the table calls the parser directly with each knob's default.
TEST(EnvFlag, OnOffKnobsShareOneSpellingSet) {
  struct Case {
    const char* knob;
    const char* value;
    bool fallback;
    bool expect;
  };
  const Case cases[] = {
      {"MFA_POOL", "0", true, false},
      {"MFA_POOL", "off", true, false},
      {"MFA_POOL", "false", true, false},
      {"MFA_POOL", "1", true, true},
      {"MFA_OBS", "off", true, false},
      {"MFA_OBS", "on", true, true},
      {"MFA_SANITIZE_STORAGE", "1", false, true},
      {"MFA_SANITIZE_STORAGE", "on", false, true},
      {"MFA_SANITIZE_STORAGE", "true", false, true},
      {"MFA_SANITIZE_STORAGE", "0", false, false},
      {"MFA_CHECK_FINITE_GRADS", "on", false, true},
      {"MFA_CHECK_FINITE_GRADS", "0", false, false},
      // Used to arm the scan: any value but "0" counted as on.
      {"MFA_CHECK_FINITE_GRADS", "off", false, false},
      {"MFA_CHECK_FINITE_GRADS", "false", false, false},
      // Unset or empty keeps the default.
      {"MFA_POOL", nullptr, true, true},
      {"MFA_CHECK_FINITE_GRADS", nullptr, false, false},
      {"MFA_OBS", "", true, true},
      // Anything else warns and keeps the default.
      {"MFA_POOL", "no", true, true},
      {"MFA_OBS", "OFF", true, true},
      {"MFA_SANITIZE_STORAGE", "yes", false, false},
      {"MFA_CHECK_FINITE_GRADS", "2", false, false},
  };
  for (const Case& c : cases)
    EXPECT_EQ(env::parse_flag(c.knob, c.value, c.fallback), c.expect)
        << c.knob << "=" << (c.value ? c.value : "(unset)")
        << " default=" << c.fallback;
}

TEST(Log, FormatProducesPrintfOutput) {
  EXPECT_EQ(log::format("x=%d y=%.1f s=%s", 3, 2.5, "hi"), "x=3 y=2.5 s=hi");
  EXPECT_EQ(log::format("empty"), "empty");
}

TEST(Log, LevelRoundTrips) {
  const auto prev = log::level();
  log::set_level(log::Level::Error);
  EXPECT_EQ(log::level(), log::Level::Error);
  log::set_level(log::Level::Off);
  EXPECT_EQ(log::level(), log::Level::Off);
  // Emitting below the threshold must be a no-op (just exercise the path).
  log::debug("suppressed %d", 1);
  log::info("suppressed %d", 2);
  log::set_level(prev);
}

// Regression for the PR 3-era line shearing: the sink used three separate
// stdio calls per message ("[tag] ", body, '\n'), so messages emitted from
// parallel_for workers could interleave mid-line. The sink now formats the
// whole line into one buffer and emits it with a single write(2) append, so
// every line in the captured stream must be intact. The test redirects
// stderr (fd 2) to a file, hammers the logger from many threads, and checks
// each captured line against the exact set of expected lines.
TEST(Log, ConcurrentLoggersDoNotShearLines) {
  const std::string path = ::testing::TempDir() + "log_shear_capture.txt";
  const int kThreads = 8;
  const int kLines = 200;

  const int saved_fd = dup(STDERR_FILENO);
  ASSERT_GE(saved_fd, 0);
  FILE* capture = std::fopen(path.c_str(), "wb");
  ASSERT_NE(capture, nullptr);
  ASSERT_GE(dup2(fileno(capture), STDERR_FILENO), 0);

  const auto prev = log::level();
  log::set_level(log::Level::Info);
  {
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([t] {
        for (int i = 0; i < kLines; ++i)
          log::info("shear-check thread=%d line=%d payload=%s", t, i,
                    "abcdefghijklmnopqrstuvwxyz0123456789");
      });
    }
    for (auto& th : threads) th.join();
  }
  log::set_level(prev);

  // Restore stderr before asserting, so gtest failure output is visible.
  fflush(nullptr);
  dup2(saved_fd, STDERR_FILENO);
  close(saved_fd);
  std::fclose(capture);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<int> seen(static_cast<size_t>(kThreads) * kLines, 0);
  std::string line;
  std::int64_t total = 0;
  while (std::getline(in, line)) {
    ++total;
    int t = -1, i = -1;
    char payload[64] = {0};
    const int matched =
        std::sscanf(line.c_str(),
                    "[info] shear-check thread=%d line=%d payload=%63s", &t,
                    &i, payload);
    ASSERT_EQ(matched, 3) << "sheared or malformed line: \"" << line << "\"";
    ASSERT_STREQ(payload, "abcdefghijklmnopqrstuvwxyz0123456789")
        << "sheared payload in line: \"" << line << "\"";
    ASSERT_TRUE(t >= 0 && t < kThreads && i >= 0 && i < kLines);
    ++seen[static_cast<size_t>(t) * kLines + i];
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(total, static_cast<std::int64_t>(kThreads) * kLines);
  for (int v : seen) EXPECT_EQ(v, 1);
}

}  // namespace
}  // namespace mfa
