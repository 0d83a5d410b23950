// Loopback end-to-end tests for the attack server (ctest label: serve,
// not tier1 — they fork worker processes and bind AF_UNIX sockets).
//
// The model pool is untrained (init + calibrate + compile): every
// property under test — cross-process bit-determinism, verdict
// consistency, failure paths — is independent of model accuracy, and
// an untrained pool keeps the suite seconds-fast.
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "models/factory.h"
#include "nn/init.h"
#include "quant/qat.h"
#include "serve/client.h"
#include "serve/server.h"
#include "telemetry/telemetry.h"
#include "tensor/tensor_ops.h"
#include "test_helpers.h"

namespace diva::serve {
namespace {

using scenario::AdaptedKind;
using scenario::OriginalKind;

class ServeE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_ = make_digit_net(NetMode::kFloat);
    init_parameters(*original_, 401);
    original_->set_training(false);
    qat_ = make_digit_net(NetMode::kQat);
    init_parameters(*qat_, 402);
    calibrate(*qat_,
              {testing::random_tensor(Shape{4, 1, 28, 28}, 403, 0.0f, 1.0f)});
    quantized_ = std::make_unique<QuantizedModel>(
        QuantizedModel::compile(*qat_, Shape{1, 28, 28}));
    pool_.original = original_.get();
    pool_.adapted_qat = qat_.get();
    pool_.quantized = quantized_.get();

    images_ = testing::random_tensor(Shape{12, 1, 28, 28}, 404, 0.0f, 1.0f);
    labels_.clear();
    for (int i = 0; i < 12; ++i) labels_.push_back(i % 10);
  }

  std::string socket_path(const char* tag) const {
    return "/tmp/diva_e2e_" + std::string(tag) + "_" +
           std::to_string(getpid()) + ".sock";
  }

  ServeConfig config(const char* tag, unsigned workers) const {
    ServeConfig cfg;
    cfg.socket_path = socket_path(tag);
    cfg.workers = workers;
    cfg.worker_threads = 2;
    cfg.shard_size = 4;
    cfg.coalesce_window = std::chrono::microseconds(0);
    return cfg;
  }

  AttackRequest request(int steps = 4) const {
    AttackRequest req;
    req.attack = "pgd";
    req.original = OriginalKind::kNone;
    req.adapted = AdaptedKind::kInt8Ste;
    req.spec.cfg.epsilon = 0.05f;
    req.spec.cfg.alpha = 0.01f;
    req.spec.cfg.steps = steps;
    req.spec.cfg.random_start = true;
    req.spec.cfg.seed = 77;
    req.images = images_;
    req.labels = labels_;
    return req;
  }

  /// The sequential ground truth the served result must match bit for
  /// bit: one Attack::perturb call in this process.
  Tensor sequential_reference(const AttackRequest& req) const {
    const AttackTargets targets{
        scenario::make_original_source(pool_, req.original),
        scenario::make_adapted_source(pool_, req.adapted, {})};
    const auto attack = make_attack(req.attack, targets, req.spec);
    return attack->perturb(req.images, req.labels);
  }

  std::unique_ptr<Sequential> original_, qat_;
  std::unique_ptr<QuantizedModel> quantized_;
  scenario::ModelPool pool_;
  Tensor images_;
  std::vector<int> labels_;
};

bool bit_identical(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

TEST_F(ServeE2eTest, LoopbackSmokeServesFourRequests) {
  AttackServer server(pool_, config("smoke", 2));
  server.start();
  {
    AttackClient client(server.config().socket_path);
    std::vector<std::uint64_t> ids;
    for (int r = 0; r < 4; ++r) ids.push_back(client.submit(request()));
    for (const std::uint64_t id : ids) {
      const ServedResult result = client.wait(id);
      ASSERT_EQ(result.verdicts.size(), labels_.size());
      ASSERT_TRUE(result.adv.shape() == images_.shape());

      // Perturbation stayed inside the L-inf ball.
      float linf = 0.0f;
      for (std::int64_t i = 0; i < result.adv.numel(); ++i) {
        linf = std::max(linf,
                        std::abs(result.adv.raw()[i] - images_.raw()[i]));
      }
      EXPECT_LE(linf, 0.05f + 1e-6f);

      // Server verdicts must agree with scoring the returned tensor
      // locally against the same pool.
      const auto orig_pred = argmax_rows(original_->forward(result.adv));
      const auto dep_pred = argmax_rows(
          scenario::deployed_model_fn(pool_, AdaptedKind::kInt8Ste)(
              result.adv));
      for (std::size_t i = 0; i < labels_.size(); ++i) {
        EXPECT_EQ(result.verdicts[i].fooled, dep_pred[i] != labels_[i]);
        EXPECT_EQ(result.verdicts[i].preserved, orig_pred[i] == labels_[i]);
        EXPECT_EQ(result.verdicts[i].evaded, result.verdicts[i].fooled &&
                                                 result.verdicts[i].preserved);
      }
    }
  }
  server.stop();
}

TEST_F(ServeE2eTest, ServedResultIsBitIdenticalAcrossWorkerCounts) {
  // Cross-process bit-determinism holds because every forked worker
  // resolves the same kernel ISA tier as this parent (same host CPU,
  // same inherited DIVA_ISA_MAX). It is pinned per tier, never across
  // tiers: re-running the suite under a different DIVA_ISA_MAX changes
  // the sgemm accumulation order, and served bytes may legitimately
  // differ from a run at another tier (kernels/kernel_dispatch.h).
  const AttackRequest req = request();
  const Tensor reference = sequential_reference(req);
  for (const unsigned workers : {1u, 2u, 4u}) {
    AttackServer server(pool_, config("det", workers));
    server.start();
    {
      AttackClient client(server.config().socket_path);
      const ServedResult result = client.run(req);
      EXPECT_TRUE(bit_identical(result.adv, reference))
          << "served result diverged from the sequential run at workers="
          << workers;
      if (workers > 1) {
        EXPECT_GE(result.shard_workers.size(), 1u);
      }
    }
    server.stop();
  }
}

TEST_F(ServeE2eTest, KilledWorkerJobsAreRequeuedAndStayDeterministic) {
  const AttackRequest req = request(/*steps=*/12);
  const Tensor reference = sequential_reference(req);

  AttackServer server(pool_, config("kill", 2));
  server.start();
  const auto pids = server.worker_pids();
  ASSERT_EQ(pids.size(), 2u);
  {
    AttackClient client(server.config().socket_path);
    std::vector<std::uint64_t> ids;
    for (int r = 0; r < 4; ++r) ids.push_back(client.submit(req));
    // Kill a worker while its jobs are (very likely) in flight; the
    // dispatcher must requeue them and every request must still finish
    // with the sequential answer.
    ASSERT_EQ(kill(pids[0], SIGKILL), 0);
    for (const std::uint64_t id : ids) {
      const ServedResult result = client.wait(id);
      EXPECT_TRUE(bit_identical(result.adv, reference))
          << "request " << id << " diverged after the worker kill";
    }
  }
  server.stop();
}

TEST_F(ServeE2eTest, StatsSurviveASigkilledWorker) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const AttackRequest req = request(/*steps=*/8);

  AttackServer server(pool_, config("stats", 2));
  server.start();
  {
    AttackClient client(server.config().socket_path);
    // Telemetry is process-global and earlier tests in this binary also
    // serve requests, so everything is asserted as a delta from here.
    const telemetry::Snapshot snap0 = client.stats();
    const auto get = [](const telemetry::Snapshot& s, const char* name) {
      const auto it = s.counters.find(name);
      return it == s.counters.end() ? std::uint64_t{0} : it->second;
    };
    const auto hist_count = [](const telemetry::Snapshot& s,
                               const char* name) {
      const auto it = s.histograms.find(name);
      return it == s.histograms.end() ? std::uint64_t{0} : it->second.count;
    };

    // Warm batch: every worker has shipped at least one stats trailer.
    for (int r = 0; r < 4; ++r) (void)client.wait(client.submit(req));
    const telemetry::Snapshot snap1 =
        telemetry::diff(client.stats(), snap0);
    EXPECT_EQ(get(snap1, "serve.requests.completed"), 4u);
    // Worker-side accounting made it over the pipe: the deployed
    // artifact's query counter reflects forked-worker forwards.
    EXPECT_GT(get(snap1, "quant.forward.rows"), 0u);
    EXPECT_EQ(hist_count(snap1, "serve.request_us"), 4u);

    // Kill one worker. Its already-shipped counters must survive the
    // reap (folded into the retired bucket), and the restarted worker
    // keeps accumulating. The server finds a dead worker only when that
    // worker's dispatcher next takes a batch, and it respawns it on the
    // batch after; the live worker's dispatcher can win every batch of
    // a few requests. So serve at least 4 requests, and on until the
    // restart shows (at most 64).
    const auto pids = server.worker_pids();
    ASSERT_EQ(pids.size(), 2u);
    ASSERT_EQ(kill(pids[0], SIGKILL), 0);
    std::uint64_t served = 0;
    telemetry::Snapshot snap2;
    do {
      (void)client.wait(client.submit(req));
      ++served;
      snap2 = telemetry::diff(client.stats(), snap0);
    } while ((served < 4 || get(snap2, "serve.worker.restarts") == 0) &&
             served < 64);

    EXPECT_EQ(get(snap2, "serve.requests.completed"), 4u + served);
    EXPECT_GE(get(snap2, "serve.worker.restarts"), 1u);
    // Merged totals are monotone across the kill: nothing the dead
    // worker had already reported was lost.
    EXPECT_GE(get(snap2, "quant.forward.rows"),
              get(snap1, "quant.forward.rows"));
    EXPECT_EQ(hist_count(snap2, "serve.request_us"), 4u + served);
  }
  server.stop();
}

TEST_F(ServeE2eTest, MalformedRequestsAreRejectedWithoutCrashingWorkers) {
  AttackServer server(pool_, config("reject", 2));
  server.start();
  {
    AttackClient client(server.config().socket_path);

    AttackRequest unknown = request();
    unknown.attack = "nope";
    try {
      client.run(unknown);
      FAIL() << "unknown attack kind was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unknown attack kind 'nope'"),
                std::string::npos);
    }

    AttackRequest no_original = request();
    no_original.attack = "diva";  // needs an original; request has none
    const AttackTargets targets{
        nullptr, scenario::make_adapted_source(pool_, no_original.adapted, {})};
    const std::string expected = validate_attack_targets("diva", targets);
    ASSERT_NE(expected, "");
    try {
      client.run(no_original);
      FAIL() << "diva without an original source was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(std::string(e.what()), expected);
    }

    AttackRequest batched = request();
    batched.adapted = AdaptedKind::kInt8Batched;
    EXPECT_THROW(client.run(batched), Error);

    // The server (and its workers) must still be fully serviceable.
    const ServedResult ok = client.run(request());
    EXPECT_EQ(ok.verdicts.size(), labels_.size());
  }
  const auto pids = server.worker_pids();
  EXPECT_EQ(pids.size(), 2u);  // nobody crashed
  server.stop();
}

TEST_F(ServeE2eTest, AcceptLoopSurvivesFdExhaustion) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  AttackServer server(pool_, config("emfile", 1));
  server.start();

  // The front-end runs in this process, so its transient-error counter
  // is readable straight from process-global telemetry.
  const auto transient_errors = [] {
    const telemetry::Snapshot s = telemetry::snapshot();
    const auto it = s.counters.find("serve.accept.transient_errors");
    return it == s.counters.end() ? std::uint64_t{0} : it->second;
  };
  const std::uint64_t before = transient_errors();

  // Pre-open the client socket, then exhaust the fd table (under a
  // lowered RLIMIT_NOFILE so the fill is bounded). connect() needs no
  // new fd, so the handshake sits in the listen backlog while every
  // accept() in the server fails with EMFILE.
  const int cfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(cfd, 0);
  rlimit orig{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &orig), 0);
  rlimit low = orig;
  low.rlim_cur = 128;
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> hogs;
  for (;;) {
    const int fd = ::dup(cfd);
    if (fd < 0) break;
    hogs.push_back(fd);
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server.config().socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(
      ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // The accept loop must be counting transient failures and retrying,
  // not exiting (the pre-fix behaviour killed the listener thread here).
  bool bumped = false;
  for (int i = 0; i < 500 && !bumped; ++i) {
    bumped = transient_errors() > before;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (const int fd : hogs) ::close(fd);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &orig), 0);
  EXPECT_TRUE(bumped) << "accept() never reported a transient error";

  // Pressure gone: the backlogged connection gets accepted and served.
  write_frame(cfd, encode_stats_request());
  MsgType type;
  std::vector<std::uint8_t> payload;
  ASSERT_TRUE(read_frame(cfd, &type, &payload));
  EXPECT_EQ(type, MsgType::kStatsReply);
  ::close(cfd);

  // Fresh connections work too — the listener survived the storm.
  {
    AttackClient client(server.config().socket_path);
    const ServedResult ok = client.run(request());
    EXPECT_EQ(ok.verdicts.size(), labels_.size());
  }
  EXPECT_TRUE(server.running());
  server.stop();
}

TEST_F(ServeE2eTest, ConnectionChurnDoesNotAccumulateDeadReaders) {
  // Short-lived clients leave dead ClientConn records behind; the
  // accept thread must reap them (join reader, close fd) instead of
  // holding every thread until stop(). The sanitize CI job runs this
  // under ASan, which turns any join/close race into a hard failure.
  AttackServer server(pool_, config("churn", 1));
  server.start();
  for (int i = 0; i < 24; ++i) {
    AttackClient client(server.config().socket_path);
    (void)client.stats();
  }
  // Give the readers a beat to observe the disconnects...
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    // ...then one more accept reaps them before tracking the new conn.
    AttackClient client(server.config().socket_path);
    (void)client.stats();
    EXPECT_LE(server.live_conns(), 2u);
  }
  server.stop();
}

}  // namespace
}  // namespace diva::serve
