// Thread-pool/parallel_for tests plus robust-training behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <string>
#include <thread>

#include "core/trainer.h"
#include "data/synth_digits.h"
#include "metrics/metrics.h"
#include "models/factory.h"
#include "nn/init.h"
#include "robust/robust.h"
#include "runtime/thread_pool.h"

namespace diva {
namespace {

TEST(ParallelFor, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, 1000, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyAndSingleRanges) {
  int count = 0;
  parallel_for(5, 5, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel_for(3, 4, [&](std::int64_t i) {
    EXPECT_EQ(i, 3);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(0, 100,
                   [](std::int64_t i) {
                     if (i == 37) throw Error("boom");
                   }),
      Error);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  std::atomic<int> total{0};
  parallel_for(0, 8, [&](std::int64_t) {
    parallel_for(0, 8, [&](std::int64_t) { total++; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ParallelFor, ChunkedPartitionIsDisjointAndComplete) {
  std::vector<std::atomic<int>> hits(503);
  parallel_for_chunked(0, 503, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) hits[static_cast<std::size_t>(i)]++;
  }, /*grain=*/7);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, BackToBackShortJoinsStress) {
  // Each join returns as soon as its last near-empty chunk is counted,
  // so the next join's state is built while pool threads may still be
  // leaving the previous task. No join may outlive its own state.
  for (int round = 0; round < 20000; ++round) {
    const std::int64_t n = 2 + round % 7;
    std::atomic<std::int64_t> covered{0};
    parallel_for_chunked(0, n, [&](std::int64_t lo, std::int64_t hi) {
      covered += hi - lo;
    });
    ASSERT_EQ(covered.load(), n) << "round " << round;
  }
}

TEST(RunTasks, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  run_tasks(&pool, 257, [&](std::int64_t i) {
    hits[static_cast<std::size_t>(i)]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  run_tasks(&pool, 0, [&](std::int64_t) { FAIL() << "no index to run"; });
}

TEST(RunTasks, NullPoolAndSingleTaskRunOnCallerInIndexOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::int64_t> order;
  run_tasks(nullptr, 6, [&](std::int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));

  ThreadPool pool(2);
  std::thread::id ran_on;
  run_tasks(&pool, 1, [&](std::int64_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
}

TEST(RunTasks, RethrowsFirstErrorOnlyAfterEveryTaskFinished) {
  // One worker runs tasks in index order, so index 1 throws first.
  ThreadPool one(1);
  std::atomic<int> ran{0};
  try {
    run_tasks(&one, 5, [&](std::int64_t i) {
      ran++;
      if (i == 1 || i == 3) throw Error("task " + std::to_string(i));
    });
    FAIL() << "run_tasks swallowed the error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("task 1"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(ran.load(), 5);

  // The throw lands at once; the other tasks are still sleeping. The
  // join must wait for every one of them before rethrowing.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(run_tasks(&pool, 12,
                         [&](std::int64_t i) {
                           if (i == 0) throw Error("early");
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(5));
                           finished++;
                         }),
               Error);
  EXPECT_EQ(finished.load(), 11);
}

TEST(ThreadPool, RunsSubmittedJobs) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  for (int i = 0; i < 16; ++i) {
    // Count and notify under the lock: a job that counted outside it
    // could let the waiter return and destroy mu and cv before the job
    // locked them.
    pool.submit([&] {
      std::lock_guard<std::mutex> lock(mu);
      if (++done == 16) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_for(lock, std::chrono::seconds(10), [&] { return done == 16; });
  EXPECT_EQ(done.load(), 16);
}

// ---------------------------------------------------------------------------

TEST(Robust, AdversarialTrainingImprovesRobustAccuracy) {
  SynthDigits gen(51);
  const Dataset train = gen.generate(30, 0);
  const Dataset val = gen.generate(8, 9000);

  AttackConfig eval_attack;
  eval_attack.epsilon = 16.0f / 255.0f;
  eval_attack.alpha = 4.0f / 255.0f;
  eval_attack.steps = 5;

  // Standard training.
  auto plain = make_digit_net(NetMode::kFloat);
  init_parameters(*plain, 1);
  TrainConfig tcfg;
  tcfg.epochs = 6;
  tcfg.seed = 2;
  train_classifier(*plain, train, tcfg);
  const float plain_robust = robust_accuracy(*plain, val, eval_attack);

  // Adversarial training with the same budget.
  auto robust = make_digit_net(NetMode::kFloat);
  init_parameters(*robust, 1);
  RobustTrainConfig rcfg;
  rcfg.train = tcfg;
  rcfg.inner_attack.steps = 3;
  rcfg.inner_attack.alpha = 6.0f / 255.0f;
  rcfg.inner_attack.epsilon = 16.0f / 255.0f;
  adversarial_train(*robust, train, rcfg);
  const float robust_robust = robust_accuracy(*robust, val, eval_attack);

  EXPECT_GT(robust_robust, plain_robust + 0.1f)
      << "adversarial training failed to improve robustness ("
      << plain_robust << " -> " << robust_robust << ")";

  // Clean accuracy remains usable.
  robust->set_training(false);
  const float clean =
      accuracy([&](const Tensor& x) { return robust->forward(x); }, val);
  EXPECT_GT(clean, 0.5f);
}

}  // namespace
}  // namespace diva
