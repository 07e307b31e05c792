// serve: a closed loop of four client threads, each sending a real 64^2
// feature map to one serve::Server (default ServerOptions) and waiting for
// the reply before sending the next, as the flow's predictor hook does. The
// server holds a predictor trained in set-up with flow_ml's recipe; the
// served maps are the held-out half of a Design_116 dataset built the way
// the train workload builds its own.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/log.h"
#include "common/rng.h"
#include "serve/server.h"
#include "tensor/ops.h"
#include "train/dataset.h"
#include "train/trainer.h"

namespace perfbench {
namespace {

using namespace mfa;

constexpr std::int64_t kGrid = 64;
constexpr int kClients = 4;
// Placements of the served design; the held-out half (x4 rotations) are the
// served maps. The dataset and the predictor are a fixed instance, so the
// served quality is the same in every run; the workload seed drives only
// the request order.
const std::vector<std::string> kDesigns = {"Design_116"};
constexpr std::int64_t kPlacements = 2;
constexpr std::int64_t kMaps = 4;
constexpr double kNominalRps = 40.0;
// p90 needs at least ten requests beyond it.
constexpr std::int64_t kMinRequests = 200;

struct Reply {
  double latency_ms = 0.0;  // submit -> reply, as the client sees it
  double queue_ms = 0.0;
  double total_ms = 0.0;
  std::int64_t batch_size = 0;
  std::string problem;
};

Tensor as_batch(const std::vector<Tensor>& maps) {
  std::vector<Tensor> parts;
  for (const auto& m : maps)
    parts.push_back(ops::reshape(m, {1, m.size(0), m.size(1), m.size(2)}));
  return parts.size() == 1 ? parts[0] : ops::concat(parts, 0);
}

/// A served reply passes if the model answered with the [64, 64] level map
/// a direct predict_levels call gives for the same input.
std::string check_reply(const serve::Response& r,
                        const std::vector<float>& expected) {
  if (r.status != serve::Status::kOk)
    return std::string("status ") + serve::to_string(r.status) + ": " +
           r.reason;
  if (r.levels.dim() != 2 || r.levels.size(0) != kGrid ||
      r.levels.size(1) != kGrid)
    return "level map is not 64 x 64";
  if (std::memcmp(r.levels.data(), expected.data(),
                  expected.size() * sizeof(float)) != 0)
    return "level map differs from direct predict_levels";
  return "";
}

}  // namespace

void run_serve(const Args& args, Result& result) {
  const auto device = fpga::DeviceGrid::make_xcvu3p_like(60, 40);
  std::vector<train::Sample> train_set, eval_set;
  std::vector<Tensor> maps;
  std::vector<std::vector<float>> expected;
  train::EvalResult served_eval;
  // Traced runs: median predict_levels time of the trained model per batch
  // size the clients can form.
  std::map<std::int64_t, double> predict_ms_at;
  std::unique_ptr<serve::Server> server;
  Ledger setup_ledger(args.trace);

  const auto setup = [&] {
    setup_ledger.begin_op();
    server.reset();
    maps.clear();
    expected.clear();
    {
      auto s = setup_ledger.span("train.dataset");
      build_split(kDesigns, kPlacements, device, train_set, eval_set);
    }
    std::unique_ptr<models::CongestionModel> model;
    {
      auto s = setup_ledger.span("train.fit");
      model = train_predictor(train_set, result);
    }
    {
      // The served answers must match the trained model's own
      // predict_levels bit for bit; the server gets the model afterwards
      // (a copy would lack the batch-norm running statistics).
      auto s = setup_ledger.span("models.predict");
      for (const auto& sample : eval_set) {
        maps.push_back(sample.features);
        const Tensor levels = model->predict_levels(as_batch({maps.back()}));
        expected.emplace_back(levels.data(), levels.data() + levels.numel());
      }
    }
    if (static_cast<std::int64_t>(maps.size()) != kMaps)
      throw std::runtime_error(log::format(
          "%zu held-out maps, expected %lld", maps.size(),
          static_cast<long long>(kMaps)));
    {
      auto s = setup_ledger.span("train.evaluate");
      served_eval = train::Trainer::evaluate(*model, eval_set);
    }
    if (args.trace)
      for (std::int64_t b = 1; b <= kClients; ++b) {
        std::vector<Tensor> parts(maps.begin(), maps.begin() + b);
        std::vector<double> reps;
        for (int r = 0; r < 3; ++r) {
          const auto t = Clock::now();
          model->predict_levels(as_batch(parts));
          reps.push_back(ms_since(t));
        }
        predict_ms_at[b] = median(reps);
      }
    server = std::make_unique<serve::Server>(std::move(model),
                                             serve::ServerOptions{});
    // Warm-up op: one batch of every size the four clients can form, so no
    // batch shape is first seen inside the timed loop.
    std::string warm_problem;
    for (std::int64_t b = 1; b <= kClients; ++b) {
      server->pause_worker_for_testing(true);
      std::vector<std::future<serve::Response>> pending;
      for (std::int64_t i = 0; i < b; ++i)
        pending.push_back(server->submit({maps[static_cast<size_t>(i)]}));
      server->pause_worker_for_testing(false);
      for (std::int64_t i = 0; i < b; ++i) {
        const auto problem = check_reply(pending[static_cast<size_t>(i)].get(),
                                         expected[static_cast<size_t>(i)]);
        if (!problem.empty()) warm_problem += problem + "; ";
      }
    }
    result.op(warm_problem);
    setup_ledger.end_op();
  };

  // One op is a closed-loop segment on the current round's server: every
  // client sends its share of the fixed request sequence.
  const std::int64_t per_client = std::max<std::int64_t>(
      kMinRequests / kClients,
      std::llround(args.seconds * kNominalRps / kClients));
  const int rounds = args.trace ? 1 : kRounds;
  Rng order_rng(derive_seed(args.seed, "serve-order"));
  std::vector<std::vector<size_t>> order(kClients);
  for (auto& seq : order)
    for (std::int64_t j = 0; j < per_client; ++j)
      seq.push_back(static_cast<size_t>(order_rng.uniform_int(0, kMaps - 1)));

  std::vector<std::vector<Reply>> replies(kClients);
  double wall_s = 0.0;
  Counters counts;
  const auto op = [&](std::int64_t round) {
    const auto first = static_cast<size_t>(per_client * round / rounds);
    const auto last = static_cast<size_t>(per_client * (round + 1) / rounds);
    std::atomic<bool> go{false};
    std::vector<std::thread> clients;
    const Counters before = Counters::read();
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto& seq = order[static_cast<size_t>(c)];
        for (size_t j = first; j < last; ++j) {
          const auto t0 = Clock::now();
          const serve::Response r = server->predict({maps[seq[j]]});
          Reply reply;
          reply.latency_ms = ms_since(t0);
          reply.queue_ms = r.queue_seconds * 1000.0;
          reply.total_ms = r.total_seconds * 1000.0;
          reply.batch_size = r.batch_size;
          reply.problem = check_reply(r, expected[seq[j]]);
          replies[static_cast<size_t>(c)].push_back(std::move(reply));
        }
      });
    }
    const auto t0 = Clock::now();
    go.store(true, std::memory_order_release);
    for (auto& t : clients) t.join();
    wall_s += ms_since(t0) / 1000.0;
    counts += Counters::read() - before;
    const auto stats = server->stats();
    server->shutdown();
    if (stats.submitted !=
        stats.ok + stats.fallbacks + stats.shed + stats.shutdown_rejected)
      result.invalid("ServerStats: submitted != ok + fallbacks + shed + "
                     "shutdown_rejected");
  };
  const double setup_s = run_rounds(rounds, rounds, setup, op);

  std::vector<double> latency, queue, total;
  std::map<std::int64_t, std::int64_t> by_batch;  // batch size -> requests
  std::int64_t failed = 0;
  for (const auto& per : replies)
    for (const auto& r : per) {
      result.op(r.problem);
      failed += !r.problem.empty();
      latency.push_back(r.latency_ms);
      queue.push_back(r.queue_ms);
      total.push_back(r.total_ms);
      ++by_batch[r.batch_size];
    }
  const auto requests = static_cast<double>(latency.size());

  if (!args.trace) {
    // The served maps equal the model's own predictions (checked per
    // request), so its evaluation is the quality of what was served.
    result.set("setup_s", setup_s, "s");
    result.set("op_ms", quantile(latency, 0.5), "ms");
    result.set("items_per_s", requests / wall_s, "1/s");
    result.set("quality_cost", served_eval.nrms, "1");
    result.note("p90_ms", quantile(latency, 0.9));
    result.note("eval_acc", served_eval.acc);
    return;
  }
  if (!result.correct) {
    result.metrics.clear();
    return;
  }
  // models.predict at the served batch sizes: the trained model timed in
  // set-up on each batch size, weighted by how many such batches ran.
  double predict_ms = 0.0, batches = 0.0, batch_sum = 0.0;
  for (const auto& [b, n] : by_batch) {
    const double count = static_cast<double>(n) / static_cast<double>(b);
    predict_ms += count * predict_ms_at.at(b);
    batches += count;
    batch_sum += static_cast<double>(n);
  }
  const double batch_mean = batch_sum / batches;
  result.set("train.dataset_ms", median(setup_ledger.per_op("train.dataset")),
             "ms");
  result.set("train.evaluate_ms",
             median(setup_ledger.per_op("train.evaluate")), "ms");
  result.set("models.predict_ms", predict_ms / batches, "ms");
  result.set("serve.queue_ms", median(queue), "ms");
  result.set("serve.total_ms", median(total), "ms");
  result.set("serve.batch_mean", batch_mean, "count");
  result.set("serve.occupancy",
             batch_mean / static_cast<double>(serve::ServerOptions{}.max_batch),
             "1");
  result.set("serve.failed", static_cast<double>(failed), "count");
  result.set_counters(counts, requests);
}

}  // namespace perfbench
