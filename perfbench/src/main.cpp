// perfbench: end-to-end benchmark for the routability-driven macro
// placement flow, its predictor training and its serving front end.
//
//   perfbench --workload flow_ml|flow_route|train|serve --seed N
//             --seconds S --trace 0|1
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 it carries the per-module ledger instead. See perfbench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "bench.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "tensor/storage.h"

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t workload_seed, const std::string& tag) {
  mfa::Rng rng(workload_seed ^ mfa::Rng::hash(tag));
  return rng.next_u64();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
volatile std::uint64_t g_probe_sink = 0;
}  // namespace

DriftProbe DriftProbe::measure() {
  DriftProbe probe;
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(r);
    std::uint64_t acc = 0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += x & 0xff;
    }
    g_probe_sink = g_probe_sink + acc;
    reps.push_back(ms_since(t0));
  }
  probe.cpu_ms = median(reps);

  // One random cycle through 2 Mi slots (Sattolo's shuffle), then a chase.
  constexpr std::uint32_t kSlots = 1u << 21;
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  mfa::Rng rng(7);
  for (std::uint32_t i = kSlots - 1; i > 0; --i) {
    const auto j = rng.uniform_int(0, static_cast<std::int64_t>(i) - 1);
    std::swap(next[i], next[static_cast<std::uint32_t>(j)]);
  }
  std::uint32_t at = 0;
  const auto t0 = Clock::now();
  for (std::uint32_t i = 0; i < kSlots; ++i) at = next[at];
  probe.mem_ms = ms_since(t0);
  g_probe_sink = g_probe_sink + at;
  return probe;
}

Counters Counters::read() {
  Counters c;
  const auto pool = mfa::tensor::StoragePool::instance().stats();
  c.pool_hits = static_cast<double>(pool.hits);
  c.pool_misses = static_cast<double>(pool.misses);
  if (mfa::common::ThreadPool::initialized()) {
    const auto& tp = mfa::common::ThreadPool::instance();
    c.pool_jobs = static_cast<double>(tp.jobs_run());
    c.pool_inline = static_cast<double>(tp.inline_runs());
  }
  static mfa::obs::Counter gemm = mfa::obs::counter("gemm.calls");
  static mfa::obs::Counter ripups = mfa::obs::counter("router.ripups");
  c.gemm_calls = static_cast<double>(gemm.value());
  c.ripups = static_cast<double>(ripups.value());
  return c;
}

Counters Counters::operator-(const Counters& base) const {
  Counters d;
  d.pool_hits = pool_hits - base.pool_hits;
  d.pool_misses = pool_misses - base.pool_misses;
  d.pool_jobs = pool_jobs - base.pool_jobs;
  d.pool_inline = pool_inline - base.pool_inline;
  d.gemm_calls = gemm_calls - base.gemm_calls;
  d.ripups = ripups - base.ripups;
  return d;
}

Counters& Counters::operator+=(const Counters& delta) {
  pool_hits += delta.pool_hits;
  pool_misses += delta.pool_misses;
  pool_jobs += delta.pool_jobs;
  pool_inline += delta.pool_inline;
  gemm_calls += delta.gemm_calls;
  ripups += delta.ripups;
  return *this;
}

Ledger::Span::Span(Ledger* ledger, const char* name)
    : ledger_(ledger), name_(name) {
  if (ledger_) start_ = Clock::now();
}

Ledger::Span::~Span() {
  if (!ledger_) return;
  const auto end = Clock::now();
  const double ms =
      std::chrono::duration<double, std::milli>(end - start_).count();
  ledger_->current_[name_] += ms;
  ledger_->events_.push_back(
      {name_,
       std::chrono::duration<double, std::micro>(start_ - ledger_->epoch_)
           .count(),
       ms * 1000.0, static_cast<std::int64_t>(ledger_->op_ms_.size())});
}

void Ledger::begin_op() {
  current_.clear();
  counts_.clear();
  op_start_ = Clock::now();
}

double Ledger::end_op() {
  const double ms = ms_since(op_start_);
  if (enabled_) {
    events_.push_back(
        {"op",
         std::chrono::duration<double, std::micro>(op_start_ - epoch_).count(),
         ms * 1000.0, static_cast<std::int64_t>(op_ms_.size())});
    ops_.push_back(current_);
    op_counts_.push_back(counts_);
    op_ms_.push_back(ms);
  }
  return ms;
}

void Ledger::count(const std::string& name, double v) {
  if (enabled_) counts_[name] += v;
}

std::vector<double> Ledger::per_op(const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < ops_.size(); ++i) {
    const auto s = ops_[i].find(name);
    const auto c = op_counts_[i].find(name);
    out.push_back(s != ops_[i].end()            ? s->second
                  : c != op_counts_[i].end()    ? c->second
                                                : 0.0);
  }
  return out;
}

std::vector<double> Ledger::unaccounted_ms() const {
  std::vector<double> out;
  for (size_t i = 0; i < ops_.size(); ++i) {
    double covered = 0.0;
    for (const auto& [name, ms] : ops_[i]) covered += ms;
    out.push_back(op_ms_[i] - covered);
  }
  return out;
}

double Ledger::min_coverage() const {
  double lowest = 1.0;
  const auto gaps = unaccounted_ms();
  for (size_t i = 0; i < gaps.size(); ++i)
    lowest = std::min(lowest, 1.0 - gaps[i] / op_ms_[i]);
  return lowest;
}

void Ledger::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < events_.size(); ++i) {
    const auto& e = events_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%lld}}",
                  i ? "," : "", e.name, e.start_us, e.dur_us,
                  static_cast<long long>(e.op));
    out << buf;
  }
  out << "]}\n";
}

void Result::op(const std::string& problem) {
  ++attempted;
  if (!problem.empty()) {
    ++failed;
    invalid(problem);
  }
}

void Result::invalid(const std::string& problem) {
  correct = false;
  if (problems.size() < 20) problems.push_back(problem);
}

void Result::set_counters(const Counters& sum, double ops) {
  set("tensor.gemm_calls", sum.gemm_calls / ops, "count");
  const double acquisitions = sum.pool_hits + sum.pool_misses;
  if (acquisitions > 0)
    set("tensor.pool_hit_rate", sum.pool_hits / acquisitions, "1");
  const double regions = sum.pool_jobs + sum.pool_inline;
  if (regions > 0)
    set("common.pool_inline_frac", sum.pool_inline / regions, "1");
}

void Result::set_coverage(const std::string& prefix, const Ledger& ledger,
                          const std::vector<double>& untraced_ms) {
  const double untraced = median(untraced_ms);
  const double coverage = ledger.min_coverage();
  set(prefix + ".unaccounted_ms", median(ledger.unaccounted_ms()), "ms");
  set(prefix + ".span_coverage_pct", 100.0 * coverage, "%");
  set(prefix + ".trace_overhead_pct",
      100.0 * (median(ledger.op_ms()) - untraced) / untraced, "%");
  if (coverage < 0.95)
    invalid(mfa::log::format("spans cover only %.1f%% of a traced op",
                             100.0 * coverage));
}

std::int64_t op_count(int seconds, double nominal_op_s, std::int64_t min_ops) {
  return std::max<std::int64_t>(
      min_ops, std::llround(static_cast<double>(seconds) / nominal_op_s));
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "flow_ml|flow_route|train|serve --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // Half of a 4-core host, fixed so results never follow the host default.
  // Must be set before anything constructs the thread pool.
  setenv("MFA_THREADS", "2", 1);
  mfa::log::set_level(mfa::log::Level::Warn);

  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::atoi(val);
    } else if (key == "--trace") {
      args.trace = std::atoi(val) != 0;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (args.seconds < 1) return usage("--seconds must be >= 1");
  const std::map<std::string, void (*)(const Args&, Result&)> workloads = {
      {"flow_ml", run_flow_ml},
      {"flow_route", run_flow_route},
      {"train", run_train},
      {"serve", run_serve}};
  const auto workload = workloads.find(args.workload);
  if (workload == workloads.end())
    return usage(("unknown workload '" + args.workload + "'").c_str());

  const DriftProbe probe_before = DriftProbe::measure();
  Result result;
  try {
    workload->second(args, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!args.trace) result.set("peak_rss_mb", peak_rss_mb(), "MB");
  const DriftProbe probe_after = DriftProbe::measure();
  if (mfa::common::ThreadPool::instance().size() != 2)
    result.invalid("thread pool is not 2 wide (MFA_THREADS ignored?)");
  for (auto it = result.metrics.begin(); it != result.metrics.end();) {
    if (std::isfinite(it->second.value)) {
      ++it;
      continue;
    }
    result.invalid(it->first + " is not finite");
    it = result.metrics.erase(it);
  }

  for (const auto& p : result.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  for (const auto& [name, m] : result.metrics)
    std::printf("%-28s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  // Host-drift probe, beside the metrics: compare it across runs before
  // blaming the code for a shift.
  std::printf("{\"drift_probe_ms\": {\"cpu_before\": %.4f, "
              "\"cpu_after\": %.4f, \"mem_before\": %.4f, "
              "\"mem_after\": %.4f}",
              probe_before.cpu_ms, probe_after.cpu_ms, probe_before.mem_ms,
              probe_after.mem_ms);
  if (!result.notes.empty()) {
    std::printf(", \"notes\": {");
    const char* sep = "";
    for (const auto& [name, v] : result.notes) {
      std::printf("%s\"%s\": %.17g", sep, name.c_str(), v);
      sep = ", ";
    }
    std::printf("}");
  }
  std::printf("}\n");
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), m.value, m.unit.c_str());
    line += buf;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
