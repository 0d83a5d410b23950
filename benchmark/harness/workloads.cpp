#include "workloads.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <thread>

#include "attack/engine.h"
#include "attack/registry.h"
#include "core/evaluation.h"
#include "core/zoo.h"
#include "kernels/cpu_features.h"
#include "kernels/gemm.h"
#include "kernels/igemm.h"
#include "kernels/kernel_dispatch.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/composite.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "quant/fake_quant.h"
#include "quant/int8_kernels.h"
#include "runtime/thread_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "telemetry/telemetry.h"

namespace bench {
namespace {

using namespace diva;
using scenario::AdaptedKind;
using scenario::OriginalKind;
namespace fs = std::filesystem;

// Attack budget shared by every workload: the paper's ε = 8/255 and
// α = 1/255, DIVA balance c = 1, 10 steps.
constexpr float kEps = 8.0f / 255.0f;
constexpr float kAlpha = 1.0f / 255.0f;
constexpr int kSteps = 10;

// The serve probe of traced runs: small attacks (3 steps, 8 probe
// pairs) sent open-loop at a fixed rate, about 40% of what two workers of
// two threads complete for this mix on a 4-core AVX-512 VNNI Xeon (about
// 19 requests/s), so that every commit sees the same offered load.
constexpr int kServeSteps = 3;
constexpr int kServeProbePairs = 8;
constexpr unsigned kServeWorkers = 2;
constexpr unsigned kServeWorkerThreads = 2;
constexpr double kServeRate = 8.0;
constexpr std::size_t kServeRequests = 40;
constexpr unsigned kLoadgenSenders = 8;

// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;

struct WorkloadSpec {
  std::string name;
  std::vector<Arch> archs;
  /// Quality subset per architecture: the first commonly-correct
  /// validation images, in index order.
  int eval_cap = 64;
  /// Latency limit of slo_met_pct, per attack batch: about twice the
  /// batch p90 of the code this benchmark was written against.
  double slo_ms = 1000.0;
  /// Images per engine batch, and per engine shard.
  std::int64_t batch = 16;
  std::int64_t shard = 8;
};

const std::vector<WorkloadSpec>& specs() {
  static const std::vector<WorkloadSpec> s = {
      {"whitebox-diva", {Arch::kResNet, Arch::kMobileNet}, 64, 1600.0, 16, 8},
      {"edge-blackbox", {Arch::kResNet, Arch::kMobileNet, Arch::kDenseNet},
       64, 3200.0, 8, 2},
  };
  return s;
}

// The reduced training budget: every run trains its own models with
// it, so setup_s measures the zoo and the evasion metrics never depend
// on a cache written by another build.
ZooConfig zoo_config(const std::string& dir) {
  ZooConfig c;
  c.cache_dir = dir;
  c.num_classes = 16;
  c.train_per_class = 16;
  c.val_per_class = 36;
  c.float_epochs = 3;
  c.qat_epochs = 1;
  c.verbose = false;
  return c;
}

std::string budget_string() {
  const ZooConfig c = zoo_config("");
  std::ostringstream os;
  os << "classes=" << c.num_classes << " train_per_class=" << c.train_per_class
     << " val_per_class=" << c.val_per_class
     << " float_epochs=" << c.float_epochs << " qat_epochs=" << c.qat_epochs
     << " data_seed=" << c.data_seed << " steps=" << kSteps
     << " serve_probe_steps=" << kServeSteps << " eps=8/255 alpha=1/255 c=1";
  return os.str();
}

unsigned nproc() { return std::max(1u, std::thread::hardware_concurrency()); }
unsigned engine_threads() { return std::min(4u, nproc()); }

std::string lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// num / den, or 0 when there is nothing to divide by.
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Operation ledger: every attempted operation and output check counts;
// failures are recorded, never thrown past the workload.
// ---------------------------------------------------------------------------

class Ledger {
 public:
  explicit Ledger(RunOutput* out) : out_(out) {}

  template <typename F>
  bool attempt(const std::string& what, F&& f) {
    std::string why;
    try {
      if (f()) {
        std::lock_guard<std::mutex> lock(mu_);
        ++out_->attempted;
        return true;
      }
      why = "wrong output";
    } catch (const std::exception& e) {
      why = e.what();
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++out_->attempted;
    ++out_->failed;
    out_->failures.push_back(what + ": " + why);
    return false;
  }

  void check(bool ok, const std::string& what) {
    attempt(what, [ok] { return ok; });
  }

 private:
  RunOutput* out_;
  std::mutex mu_;
};

bool within_budget(const Tensor& x, const Tensor& adv) {
  if (adv.shape() != x.shape()) return false;
  const float* a = adv.raw();
  const float* n = x.raw();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    if (!(a[i] >= 0.0f && a[i] <= 1.0f)) return false;
    if (std::fabs(a[i] - n[i]) > kEps + 1e-6f) return false;
  }
  return true;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     sizeof(float) * static_cast<std::size_t>(a.numel())) == 0;
}

/// Threads joined when the object goes out of scope, on every path.
class JoinedThreads {
 public:
  JoinedThreads() = default;
  JoinedThreads(const JoinedThreads&) = delete;
  JoinedThreads& operator=(const JoinedThreads&) = delete;
  ~JoinedThreads() { join(); }

  template <typename F>
  void spawn(F&& f) {
    threads_.emplace_back(std::forward<F>(f));
  }
  void join() {
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::vector<std::thread> threads_;
};

/// Runs f on a fresh one-thread pool: library code that calls
/// parallel_for from a pool thread runs serially, so f sees one core.
template <typename F>
void run_serial(F&& f) {
  std::exception_ptr error;
  {
    ThreadPool one(1);
    one.submit([&] {
      try {
        f();
      } catch (...) {
        error = std::current_exception();
      }
    });
  }  // the pool drains its queue and joins its thread here
  if (error) std::rethrow_exception(error);
}

std::uint64_t counter_sum(const telemetry::Snapshot& s,
                          const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, v] : s.counters) {
    if (name.rfind(prefix, 0) == 0) total += v;
  }
  return total;
}

const telemetry::HistogramData* hist(const telemetry::Snapshot& s,
                                     const std::string& name) {
  const auto it = s.histograms.find(name);
  return it == s.histograms.end() ? nullptr : &it->second;
}

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// Endless sequence of sample indices in [0, n): the identity, then
/// seeded permutations. The first pass over a quality subset therefore
/// has a fixed batch composition: float batched GEMMs and SPSA probe
/// streams (keyed on a sample's position in its batch) both depend on
/// it, and a fixed first pass keeps the quality metrics a function of
/// the code alone. The seed varies every later batch.
class BatchStream {
 public:
  BatchStream(std::int64_t n, std::uint64_t seed) : n_(n), rng_(seed) {}

  std::vector<int> next(std::int64_t b) {
    std::vector<int> out;
    while (static_cast<std::int64_t>(out.size()) < b) {
      if (pos_ == perm_.size()) refill();
      out.push_back(perm_[pos_++]);
    }
    return out;
  }

 private:
  void refill() {
    perm_.resize(static_cast<std::size_t>(n_));
    std::iota(perm_.begin(), perm_.end(), 0);
    if (!identity_next_) rng_.shuffle(std::span<int>(perm_));
    identity_next_ = false;
    pos_ = 0;
  }

  std::int64_t n_;
  Rng rng_;
  bool identity_next_ = true;
  std::vector<int> perm_;
  std::size_t pos_ = 0;
};

std::vector<int> take_labels(const Dataset& d, const std::vector<int>& idx) {
  std::vector<int> out;
  out.reserve(idx.size());
  for (int i : idx) out.push_back(d.labels[static_cast<std::size_t>(i)]);
  return out;
}

// ---------------------------------------------------------------------------
// Setup: train, QAT-finetune and compile each architecture in a private
// model cache, several times; keep the last set of models.
// ---------------------------------------------------------------------------

struct ArchSet {
  Arch arch = Arch::kResNet;
  std::string key;
  Sequential* orig = nullptr;
  Sequential* qat = nullptr;
  const QuantizedModel* q = nullptr;
  Dataset eval;  // quality subset: commonly-correct validation images
};

struct Setup {
  std::vector<std::unique_ptr<ModelZoo>> zoos;  // one per architecture
  std::vector<ArchSet> archs;
  std::vector<double> total_s, train_s, qat_s, compile_s;
  /// The validation split (every zoo generates the same one).
  const Dataset& val() const { return zoos.front()->val_set(); }
};

/// Trains, QAT-finetunes and compiles one architecture in its own zoo,
/// then picks its quality subset. `times` gets train, qat, compile.
ArchSet build_arch(Arch a, ModelZoo& zoo, int eval_cap, double times[3]) {
  ArchSet m;
  m.arch = a;
  m.key = lower(arch_name(a));
  auto t = Clock::now();
  {
    Span sp("zoo.train");
    m.orig = &zoo.original(a);
  }
  times[0] = seconds_since(t);
  t = Clock::now();
  {
    Span sp("zoo.qat");
    m.qat = &zoo.adapted_qat(a);
  }
  times[1] = seconds_since(t);
  t = Clock::now();
  {
    Span sp("zoo.compile");
    m.q = &zoo.quantized(a);
  }
  times[2] = seconds_since(t);
  const Dataset& val = zoo.val_set();
  std::vector<int> idx =
      select_correct({ModelZoo::fn(*m.orig), ModelZoo::fn(*m.q)}, val,
                     zoo.config().val_per_class);
  DIVA_CHECK(!idx.empty(), m.key << ": no commonly-correct images");
  if (static_cast<int>(idx.size()) > eval_cap) {
    idx.resize(static_cast<std::size_t>(eval_cap));
  }
  m.eval = val.subset(idx);
  return m;
}

/// Builds every architecture of the workload, kSetupReps times, and
/// keeps the last set. Each architecture trains single-threaded on a
/// thread of its own, in a zoo of its own: the library's multi-threaded
/// backward sums weight gradients in thread-completion order, so a
/// multi-threaded run trains a slightly different model every time,
/// while single-threaded training repeats bit for bit, and with it the
/// quality metrics.
Setup build_setup(const WorkloadSpec& w, const std::string& run_dir) {
  Setup s;
  const std::size_t n = w.archs.size();
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.archs.clear();
    s.zoos.clear();
    std::vector<std::string> dirs;
    for (std::size_t a = 0; a < n; ++a) {
      dirs.push_back(run_dir + "/zoo" + std::to_string(rep) + "-" +
                     std::to_string(a));
    }
    const auto t0 = Clock::now();
    s.zoos.resize(n);
    s.archs.resize(n);
    std::vector<std::array<double, 3>> times(n);
    std::vector<std::exception_ptr> errors(n);
    JoinedThreads threads;
    for (std::size_t a = 0; a < n; ++a) {
      threads.spawn([&, a] {
        try {
          run_serial([&] {
            s.zoos[a] = std::make_unique<ModelZoo>(zoo_config(dirs[a]));
            s.archs[a] = build_arch(w.archs[a], *s.zoos[a], w.eval_cap,
                                    times[a].data());
          });
        } catch (...) {
          errors[a] = std::current_exception();
        }
      });
    }
    threads.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    s.total_s.push_back(seconds_since(t0));
    double sum[3] = {0, 0, 0};
    for (const auto& t : times) {
      for (int k = 0; k < 3; ++k) sum[k] += t[static_cast<std::size_t>(k)];
    }
    s.train_s.push_back(sum[0]);
    s.qat_s.push_back(sum[1]);
    s.compile_s.push_back(sum[2]);
    for (const auto& d : dirs) {
      std::error_code ec;
      fs::remove_all(d, ec);
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Gradient-source decorator of traced runs: a span and a timing per
// input_grad call.
// ---------------------------------------------------------------------------

struct CallTimes {
  std::mutex mu;
  CallMs ms;
  void add(const std::string& key, double v) {
    std::lock_guard<std::mutex> lock(mu);
    ms[key].push_back(v);
  }
  CallMs take() {
    std::lock_guard<std::mutex> lock(mu);
    CallMs out;
    out.swap(ms);
    return out;
  }
};

/// Times each call under `key`: one key per attack cell and source, so
/// that passes over different cells compare like with like.
class TimedGradSource : public GradSource {
 public:
  TimedGradSource(std::shared_ptr<GradSource> inner, CallTimes* times,
                  std::string key)
      : inner_(std::move(inner)), times_(times), key_(std::move(key)) {}

  Tensor logits(const Tensor& x) override { return inner_->logits(x); }
  Tensor input_grad(const Tensor& x, const GradRequest& req) override {
    Span span("attack.grad");
    const auto t0 = Clock::now();
    Tensor g = inner_->input_grad(x, req);
    times_->add(key_, ms_since(t0));
    return g;
  }
  void prepare() override { inner_->prepare(); }
  void restore() override { inner_->restore(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<GradSource> inner_;
  CallTimes* times_;
  std::string key_;
};

std::shared_ptr<GradSource> timed(std::shared_ptr<GradSource> s,
                                  CallTimes* times, const std::string& key) {
  if (!s || times == nullptr) return s;
  return std::make_shared<TimedGradSource>(std::move(s), times, key);
}

AttackSpec attack_spec(int steps = kSteps) {
  AttackSpec s;
  s.cfg.epsilon = kEps;
  s.cfg.alpha = kAlpha;
  s.cfg.steps = steps;
  s.c = 1.0f;
  return s;
}

/// SPSA probing of the deployed artifact: `pairs` antithetic probe
/// pairs per sample and step in a 16-dimensional random subspace (the
/// dense estimator fools almost nothing at this budget), probe rows
/// batched across samples.
FdConfig probe_config(int pairs) {
  FdConfig f;
  f.samples = pairs;
  f.subspace_dim = 16;
  f.batch_probes = true;
  return f;
}

/// Int8-fd source whose artifact forwards carry a span in traced runs.
std::shared_ptr<GradSource> spanned_fd_source(const QuantizedModel& q) {
  return fd_source(
      [&q](const Tensor& x) {
        Span span("quant.forward");
        return q.forward(x);
      },
      probe_config(32), "");
}

// ---------------------------------------------------------------------------
// Attack phase: seeded batches through the AttackEngine, round robin
// over cells; each result is scored against the float original and the
// deployed int8 artifact.
// ---------------------------------------------------------------------------

struct Cell {
  std::string name;
  const ArchSet* m = nullptr;
  std::unique_ptr<Attack> attack;
  bool diva = false;
  BatchStream stream;
};

struct Quality {
  int total = 0, evaded = 0, fooled = 0;
  double evasive_pct() const { return total ? 100.0 * evaded / total : 0.0; }
  double fooled_pct() const { return total ? 100.0 * fooled / total : 0.0; }
};

/// Calls per second summed over groups (cells, artifacts), each group at
/// its median call time: one call of every group, back to back, times
/// `items` images per call. Medians keep a stall on a shared machine
/// from moving the figure.
double rate_at_medians(const std::vector<std::vector<double>>& group_ms,
                       std::int64_t items) {
  double ms = 0.0;
  std::int64_t n = 0;
  for (const auto& g : group_ms) {
    if (g.empty()) continue;
    ms += median(g);
    n += items;
  }
  return ms > 0 ? 1e3 * static_cast<double>(n) / ms : 0.0;
}

struct AttackPhaseOut {
  double seconds = 0.0;
  std::int64_t images = 0;
  std::int64_t batch = 0;
  std::vector<double> batch_ms;               // every batch, in order
  std::vector<std::vector<double>> cell_ms;   // per cell
  std::vector<std::vector<double>> twin_cell_ms;  // per twin cell
  Quality diva, pgd;
  double img_s() const { return rate_at_medians(cell_ms, batch); }
  double twin_img_s() const { return rate_at_medians(twin_cell_ms, batch); }
  /// The mean over cells of each cell's p-quantile batch time: cells of
  /// different architectures cost differently, and pooling their batches
  /// would put p50 between the clusters.
  double latency_ms(double p) const {
    double sum = 0.0;
    int n = 0;
    for (const auto& c : cell_ms) {
      if (c.empty()) continue;
      sum += quantile(c, p);
      ++n;
    }
    return n ? sum / n : 0.0;
  }
};

struct PhaseConfig {
  double budget_s = 0.0;
  std::int64_t batch = 16;
  std::int64_t shard = 8;
  std::int64_t min_batches = 1;
  /// Also run until every cell has attacked each image of its quality
  /// subset once (the quality metrics count first attacks only).
  bool first_pass = false;
  /// Check the first batch against a one-thread engine run.
  bool gate_sharding = false;
  /// Traced twins of the cells: rounds alternate between the cells with
  /// tracing off and the twins with tracing on, so the two are measured
  /// over the same stretch of time.
  std::vector<Cell>* twin = nullptr;
};

/// Runs batches until `budget_s` has passed and at least `min_batches`
/// ran (and the first pass is done, when asked for).
AttackPhaseOut run_attack_phase(std::vector<Cell>& cells,
                                const AttackEngine& engine,
                                const PhaseConfig& pc, Ledger& ledger) {
  const std::int64_t batch_size = pc.batch;
  AttackPhaseOut out;
  out.batch = batch_size;
  out.cell_ms.resize(cells.size());
  out.twin_cell_ms.resize(cells.size());
  std::vector<std::vector<char>> seen(cells.size());
  std::vector<std::int64_t> covered(cells.size(), 0);
  for (std::size_t c = 0; c < cells.size(); ++c) {
    seen[c].assign(static_cast<std::size_t>(cells[c].m->eval.size()), 0);
  }
  auto first_pass_done = [&] {
    if (!pc.first_pass) return true;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (covered[c] < cells[c].m->eval.size()) return false;
    }
    return true;
  };

  Tensor gate_x, gate_adv;
  std::vector<int> gate_labels;
  SpanRecorder& rec = SpanRecorder::get();
  const auto t0 = Clock::now();
  for (std::int64_t j = 0;; ++j) {
    if (j >= pc.min_batches && seconds_since(t0) >= pc.budget_s &&
        first_pass_done()) {
      break;
    }
    const std::size_t ci = static_cast<std::size_t>(j) % cells.size();
    const bool traced_round =
        pc.twin != nullptr &&
        (static_cast<std::size_t>(j) / cells.size()) % 2 == 1;
    if (pc.twin != nullptr) rec.set_enabled(traced_round);
    Cell& cell = traced_round ? (*pc.twin)[ci] : cells[ci];
    const Dataset& eval = cell.m->eval;
    const std::vector<int> idx = cell.stream.next(batch_size);
    const Tensor x = gather_batch(eval.images, idx);
    const std::vector<int> labels = take_labels(eval, idx);

    const auto tb = Clock::now();
    Span batch("attack.batch");
    SpanRecorder::set_thread_trace(j + 1);
    Tensor adv;
    std::vector<int> orig_pred, q_pred;
    const bool ok = ledger.attempt(cell.name + " batch", [&] {
      {
        // Spans opened on engine pool threads hang off engine.run.
        Span s("engine.run");
        rec.set_context(j + 1, s.id());
        adv = engine.run(*cell.attack, x, labels);
        rec.set_context(0, 0);
      }
      orig_pred = argmax_rows(cell.m->orig->forward(adv));
      {
        Span s("quant.forward");
        q_pred = argmax_rows(cell.m->q->forward(adv));
      }
      return true;
    });
    if (!ok) {
      // A failed batch still ends its images' first pass, so a failing
      // program cannot keep the phase running.
      for (const int i : idx) {
        char& s = seen[ci][static_cast<std::size_t>(i)];
        if (!s) ++covered[ci];
        s = 1;
      }
      continue;
    }
    out.batch_ms.push_back(ms_since(tb));
    auto& per_cell = traced_round ? out.twin_cell_ms : out.cell_ms;
    per_cell[ci].push_back(out.batch_ms.back());
    out.images += batch_size;
    ledger.check(within_budget(x, adv), cell.name + " perturbation budget");
    if (pc.gate_sharding && gate_x.empty()) {
      gate_x = x;
      gate_labels = labels;
      gate_adv = adv;
    }
    Quality& q = cell.diva ? out.diva : out.pgd;
    for (std::size_t i = 0; i < idx.size(); ++i) {
      char& s = seen[ci][static_cast<std::size_t>(idx[i])];
      if (s) continue;
      s = 1;
      ++covered[ci];
      const bool preserved = orig_pred[i] == labels[i];
      const bool fooled = q_pred[i] != labels[i];
      ++q.total;
      q.fooled += fooled;
      q.evaded += preserved && fooled;
    }
  }
  out.seconds = seconds_since(t0);

  if (pc.gate_sharding && !gate_x.empty()) {
    // Sharded output must equal a one-thread engine run bit for bit.
    ledger.attempt(cells[0].name + " sharded == 1-thread", [&] {
      AttackEngine one({1, pc.shard});
      return same_bytes(one.run(*cells[0].attack, gate_x, gate_labels),
                        gate_adv);
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Int8 artifact forward at a fixed batch size.
// ---------------------------------------------------------------------------

struct FwdOut {
  std::int64_t rows = 0;
  std::int64_t batch = 0;
  std::vector<std::vector<double>> arch_ms;  // per forward, per arch
  /// Images per second at each artifact's median forward time.
  double img_s() const { return rate_at_medians(arch_ms, batch); }
};

std::vector<Tensor> seeded_batches(const Dataset& pool, std::int64_t batch,
                                   int count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> out;
  for (int b = 0; b < count; ++b) {
    std::vector<int> idx;
    for (std::int64_t i = 0; i < batch; ++i) {
      const std::uint64_t size = static_cast<std::uint64_t>(pool.size());
      idx.push_back(static_cast<int>(rng.randint(size)));
    }
    out.push_back(gather_batch(pool.images, idx));
  }
  return out;
}

/// Int8 forwards of seeded validation batches, cycling through the
/// artifacts, for `budget_s`, on the calling thread; the executor
/// spreads each forward over the library's pool.
FwdOut int8_forward(const Setup& s, std::int64_t batch, double budget_s,
                    std::uint64_t seed, Ledger& ledger) {
  const std::size_t n = s.archs.size();
  std::vector<std::vector<Tensor>> inputs;
  for (std::size_t a = 0; a < n; ++a) {
    inputs.push_back(
        seeded_batches(s.val(), batch, 2, hash_combine(seed, 0xF0D + a)));
  }
  FwdOut out;
  out.batch = batch;
  out.arch_ms.resize(n);
  const auto t0 = Clock::now();
  for (std::size_t j = 0; seconds_since(t0) < budget_s; ++j) {
    const std::size_t a = j % n;
    const Tensor& x = inputs[a][(j / n) % 2];
    const auto tf = Clock::now();
    if (ledger.attempt(s.archs[a].key + " int8 forward", [&] {
          Span span("quant.forward");
          return s.archs[a].q->forward(x).dim(0) == batch;
        })) {
      out.arch_ms[a].push_back(ms_since(tf));
      out.rows += batch;
    }
  }
  return out;
}

/// Int8 logits at the dispatched ISA tier must equal the scalar tier's.
void gate_scalar_tier(const Setup& s, std::uint64_t seed, Ledger& ledger) {
  const IsaTier saved = active_isa_tier();
  for (std::size_t a = 0; a < s.archs.size(); ++a) {
    const Tensor x =
        seeded_batches(s.val(), 16, 1, hash_combine(seed, 0x5CA1 + a))[0];
    ledger.attempt(s.archs[a].key + " int8 logits == scalar tier", [&] {
      const Tensor dispatched = s.archs[a].q->forward(x);
      force_isa_tier(IsaTier::kScalar);
      Tensor scalar;
      try {
        scalar = s.archs[a].q->forward(x);
      } catch (...) {
        force_isa_tier(saved);
        throw;
      }
      force_isa_tier(saved);
      return same_bytes(dispatched, scalar);
    });
  }
}

// ---------------------------------------------------------------------------
// Serve probe: an AttackServer over AF_UNIX on the ResNet pool.
// ---------------------------------------------------------------------------

struct RequestKind {
  const char* attack;
  OriginalKind original;
  AdaptedKind adapted;
  std::int64_t batch;
  double weight;
};

const std::vector<RequestKind>& served_mix() {
  static const std::vector<RequestKind> mix = {
      {"pgd", OriginalKind::kNone, AdaptedKind::kInt8Ste, 4, 0.6},
      {"diva", OriginalKind::kFloat, AdaptedKind::kInt8Ste, 8, 0.3},
      {"pgd", OriginalKind::kNone, AdaptedKind::kInt8Fd, 4, 0.1},
  };
  return mix;
}

std::vector<double> mix_weights() {
  std::vector<double> w;
  for (const auto& k : served_mix()) w.push_back(k.weight);
  return w;
}


struct ServeProbeOut {
  std::vector<double> latency_ms, lag_ms;
  std::vector<double> queue_wait_ms, compute_ms, transport_ms;
  std::size_t sent = 0, completed = 0, failed = 0;
  telemetry::Snapshot stats;
};

serve::AttackRequest make_request(const RequestKind& k, const Dataset& eval,
                                  const std::vector<int>& idx) {
  serve::AttackRequest r;
  r.attack = k.attack;
  r.original = k.original;
  r.adapted = k.adapted;
  r.spec = attack_spec(kServeSteps);
  r.images = gather_batch(eval.images, idx);
  r.labels = take_labels(eval, idx);
  return r;
}

/// The serve layer of traced runs: an AttackServer over AF_UNIX on the
/// ResNet models, and an open loop of seeded Poisson arrivals in the
/// seeded request mix. Each request's latency runs from its due time.
ServeProbeOut run_serve_probe(const ArchSet& m, const RunOptions& opts,
                              Ledger& ledger) {
  scenario::ModelPool pool;
  pool.original = m.orig;
  pool.adapted_qat = m.qat;
  pool.quantized = m.q;
  serve::ServeConfig cfg;
  cfg.socket_path = opts.run_dir + "/serve.sock";
  cfg.workers = kServeWorkers;
  cfg.worker_threads = kServeWorkerThreads;
  cfg.shard_size = 4;
  cfg.fd = probe_config(kServeProbePairs);

  const auto& mix = served_mix();
  const std::vector<int> kinds =
      request_mix(opts.seed, mix_weights(), kServeRequests);
  const std::vector<double> due =
      poisson_arrivals(opts.seed, kServeRate, kServeRequests);
  std::vector<BatchStream> streams;
  for (std::size_t k = 0; k < mix.size(); ++k) {
    streams.emplace_back(m.eval.size(), hash_combine(opts.seed, 0x57E + k));
  }
  std::vector<serve::AttackRequest> reqs;
  for (std::size_t i = 0; i < kServeRequests; ++i) {
    const RequestKind& k = mix[static_cast<std::size_t>(kinds[i])];
    BatchStream& stream = streams[static_cast<std::size_t>(kinds[i])];
    reqs.push_back(make_request(k, m.eval, stream.next(k.batch)));
  }

  ServeProbeOut out;
  serve::AttackServer server(pool, cfg);
  server.start();
  struct ServerStop {
    serve::AttackServer& s;
    ~ServerStop() { s.stop(); }
  } stop_guard{server};

  telemetry::Snapshot before;
  ledger.attempt("stats before", [&] {
    before = serve::AttackClient(cfg.socket_path).stats();
    return true;
  });

  // Request i is due at due[i]; sender i % K sends it and waits for it.
  std::vector<serve::ServedResult> results(kServeRequests);
  std::vector<char> done(kServeRequests, 0);
  std::vector<double> lat(kServeRequests, 0.0), lag(kServeRequests, 0.0),
      client_ms(kServeRequests, 0.0);
  const auto t0 = Clock::now();
  {
    JoinedThreads senders;
    for (unsigned s = 0; s < kLoadgenSenders; ++s) {
      senders.spawn([&, s] {
        std::unique_ptr<serve::AttackClient> client;
        ledger.attempt("loadgen connect", [&] {
          client = std::make_unique<serve::AttackClient>(cfg.socket_path);
          return true;
        });
        for (std::size_t i = s; i < kServeRequests; i += kLoadgenSenders) {
          const auto when =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
          std::this_thread::sleep_until(when);
          const auto sent = Clock::now();
          lag[i] = ms_between(when, sent);
          if (!client) continue;
          SpanRecorder::set_thread_trace(static_cast<std::int64_t>(i + 1));
          ledger.attempt("served request", [&] {
            Span span("serve.request");
            results[i] = client->run(reqs[i]);
            done[i] = 1;
            return true;
          });
          const auto end = Clock::now();
          lat[i] = ms_between(when, end);
          client_ms[i] = ms_between(sent, end);
        }
      });
    }
  }

  for (std::size_t i = 0; i < kServeRequests; ++i) {
    ++out.sent;
    out.lag_ms.push_back(lag[i]);
    if (!done[i]) {
      ++out.failed;
      // A failed request misses every latency limit.
      out.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++out.completed;
    const serve::ServedResult& r = results[i];
    out.latency_ms.push_back(lat[i]);
    out.queue_wait_ms.push_back((r.server_seconds - r.max_shard_seconds) * 1e3);
    out.compute_ms.push_back(r.max_shard_seconds * 1e3);
    out.transport_ms.push_back(client_ms[i] - r.server_seconds * 1e3);
    ledger.check(within_budget(reqs[i].images, r.adv) &&
                     r.verdicts.size() == reqs[i].labels.size(),
                 "served perturbation budget");
  }

  ledger.attempt("stats after", [&] {
    const telemetry::Snapshot after =
        serve::AttackClient(cfg.socket_path).stats();
    out.stats = telemetry::diff(after, before);
    return true;
  });
  server.stop();

  // A seeded sample of served results must equal Attack::perturb on the
  // same request, byte for byte.
  Rng pick(hash_combine(opts.seed, 0x5A3B1E));
  for (int s = 0; s < 3; ++s) {
    const auto i = static_cast<std::size_t>(pick.randint(kServeRequests));
    if (!done[i]) continue;
    ledger.attempt("served == Attack::perturb", [&] {
      const serve::AttackRequest& r = reqs[i];
      const AttackTargets t{
          scenario::make_original_source(pool, r.original),
          scenario::make_adapted_source(pool, r.adapted, cfg.fd)};
      const auto attack = make_attack(r.attack, t, r.spec);
      return same_bytes(attack->perturb(r.images, r.labels), results[i].adv);
    });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Layer replays of traced runs.
// ---------------------------------------------------------------------------

const char* module_kind(Module* m) {
  if (dynamic_cast<DepthwiseConv2d*>(m)) return "depthwise";
  if (dynamic_cast<Conv2d*>(m)) return "conv";
  if (dynamic_cast<Dense*>(m)) return "dense";
  if (dynamic_cast<BatchNorm2d*>(m)) return "norm";
  if (dynamic_cast<ActFakeQuant*>(m)) return "fakequant";
  if (dynamic_cast<Residual*>(m) || dynamic_cast<DenseBranch*>(m)) {
    return "block";
  }
  if (dynamic_cast<MaxPool2d*>(m) || dynamic_cast<AvgPool2d*>(m) ||
      dynamic_cast<GlobalAvgPool*>(m)) {
    return "pool";
  }
  if (dynamic_cast<Relu*>(m) || dynamic_cast<Relu6*>(m) ||
      dynamic_cast<Sigmoid*>(m) || dynamic_cast<HardSigmoid*>(m) ||
      dynamic_cast<LeakyRelu*>(m)) {
    return "act";
  }
  return "other";
}

const std::vector<std::string>& nn_kinds() {
  static const std::vector<std::string> k = {
      "conv", "depthwise", "dense", "norm",
      "fakequant", "block", "pool", "act"};
  return k;
}

struct NnReplay {
  // Forward+backward of one batch, summed over architectures.
  double original_ms = 0.0, qat_ms = 0.0;
  std::map<std::string, double> kind_us;
  std::uint64_t sgemm_macs = 0;
  std::int64_t images = 0;
};

/// The gradient of the batch mean of every logit: 1/N everywhere.
Tensor mean_gradient(const Tensor& logits) {
  Tensor g(logits.shape());
  const float v = 1.0f / static_cast<float>(logits.dim(0));
  for (std::int64_t i = 0; i < g.numel(); ++i) g[i] = v;
  return g;
}

/// Float forward+backward of one attack-sized batch, whole model and
/// child by child (the module's own children, in order).
void replay_nn(Sequential& model, const Tensor& x, int reps, double* whole_ms,
               std::map<std::string, double>* kind_us, std::uint64_t* macs,
               std::int64_t* images) {
  model.set_training(false);
  model.set_param_grads_enabled(false);
  std::vector<double> whole;
  for (int r = 0; r < reps; ++r) {
    const auto before = telemetry::snapshot();
    const auto t0 = Clock::now();
    Tensor l;
    {
      Span s("nn.forward");
      l = model.forward(x);
    }
    const Tensor dl = mean_gradient(l);
    {
      Span s("nn.backward");
      (void)model.backward(dl);
    }
    whole.push_back(ms_since(t0));
    *macs += counter_sum(telemetry::diff(telemetry::snapshot(), before),
                         "kernels.sgemm.macs.");
    *images += x.dim(0);
  }
  *whole_ms += median(whole);

  const std::vector<Module*> kids = model.children();
  for (int r = 0; r < reps; ++r) {
    Tensor h = x;
    for (Module* k : kids) {
      const auto t0 = Clock::now();
      h = k->forward(h);
      (*kind_us)[module_kind(k)] += ms_since(t0) * 1e3;
    }
    Tensor g = mean_gradient(h);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      const auto t0 = Clock::now();
      g = (*it)->backward(g);
      (*kind_us)[module_kind(*it)] += ms_since(t0) * 1e3;
    }
  }
  model.set_param_grads_enabled(true);
}

const char* op_kind(QOp::Kind k) {
  switch (k) {
    case QOp::Kind::kConv: return "conv";
    case QOp::Kind::kDepthwiseConv: return "depthwise";
    case QOp::Kind::kDense: return "dense";
    case QOp::Kind::kMaxPool:
    case QOp::Kind::kAvgPool:
    case QOp::Kind::kGlobalAvgPool: return "pool";
    case QOp::Kind::kFlatten: return "flatten";
    case QOp::Kind::kAdd: return "add";
    case QOp::Kind::kConcat: return "concat";
    case QOp::Kind::kRequantize: return "requantize";
    case QOp::Kind::kLut: return "lut";
  }
  return "other";
}

const std::vector<std::string>& op_kinds() {
  // kLut is left out: no zoo architecture lowers an activation to a
  // table, so its share is always zero.
  static const std::vector<std::string> k = {
      "conv", "depthwise", "dense", "add", "requantize", "pool", "concat"};
  return k;
}

/// Replays the artifact's ops() one by one through the public
/// int8_kernels.h functions on a batch of n images, adding each op's
/// time to kind_us; returns the raw int8 logits.
std::vector<std::int8_t> replay_ops(const QuantizedModel& q, const Tensor& x,
                                    std::map<std::string, double>* kind_us) {
  const std::int64_t n = x.dim(0);
  const auto& slots = q.slots();
  std::vector<std::vector<std::int8_t>> buf(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    buf[s].resize(static_cast<std::size_t>(n * slots[s].shape.numel()));
  }
  const QSlot& in = slots[static_cast<std::size_t>(q.input_slot_index())];
  auto& qin = buf[static_cast<std::size_t>(q.input_slot_index())];
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    qin[static_cast<std::size_t>(i)] = in.qp.quantize(x[i]);
  }

  for (const QOp& op : q.ops()) {
    const QSlot& is = slots[static_cast<std::size_t>(op.in0)];
    const QSlot& os = slots[static_cast<std::size_t>(op.out)];
    const std::int64_t in_n = is.shape.numel(), out_n = os.shape.numel();
    const std::int8_t* src = buf[static_cast<std::size_t>(op.in0)].data();
    std::int8_t* dst = buf[static_cast<std::size_t>(op.out)].data();
    const std::size_t total_in = static_cast<std::size_t>(n * in_n);
    const std::size_t total_out = static_cast<std::size_t>(n * out_n);
    const auto t0 = Clock::now();
    switch (op.kind) {
      case QOp::Kind::kConv:
        for (std::int64_t i = 0; i < n; ++i) {
          qconv2d(src + i * in_n, op.geom, is.qp.zero_point, op.weights.data(),
                  op.out_c, op.bias.data(), op.rq, os.qp.zero_point, op.act_min,
                  op.act_max, dst + i * out_n);
        }
        break;
      case QOp::Kind::kDepthwiseConv:
        for (std::int64_t i = 0; i < n; ++i) {
          qdepthwise_conv2d(src + i * in_n, op.geom, is.qp.zero_point,
                            op.weights.data(), op.bias.data(), op.rq,
                            os.qp.zero_point, op.act_min, op.act_max,
                            dst + i * out_n);
        }
        break;
      case QOp::Kind::kDense:
        qdense_batched(src, n, op.geom.in_c, is.qp.zero_point,
                       op.weights.data(), op.out_c, op.bias.data(), op.rq,
                       os.qp.zero_point, op.act_min, op.act_max, dst);
        break;
      case QOp::Kind::kMaxPool:
        for (std::int64_t i = 0; i < n; ++i) {
          qmaxpool2d(src + i * in_n, op.geom, dst + i * out_n);
        }
        break;
      case QOp::Kind::kAvgPool:
        for (std::int64_t i = 0; i < n; ++i) {
          qavgpool2d(src + i * in_n, op.geom, dst + i * out_n);
        }
        break;
      case QOp::Kind::kGlobalAvgPool:
        for (std::int64_t i = 0; i < n; ++i) {
          qglobal_avgpool(src + i * in_n, op.geom.in_c,
                          op.geom.in_h * op.geom.in_w, dst + i * out_n);
        }
        break;
      case QOp::Kind::kFlatten:
        std::copy_n(src, total_in, dst);
        break;
      case QOp::Kind::kRequantize:
        qrequantize({src, total_in}, is.qp, os.qp, {dst, total_out});
        break;
      case QOp::Kind::kAdd:
        qadd({src, total_in}, is.qp,
             {buf[static_cast<std::size_t>(op.in1)].data(), total_in},
             slots[static_cast<std::size_t>(op.in1)].qp, os.qp, op.act_min,
             op.act_max, {dst, total_out});
        break;
      case QOp::Kind::kLut:
        qlut({src, total_in}, {op.weights.data(), op.weights.size()},
             {dst, total_out});
        break;
      case QOp::Kind::kConcat: {
        const std::int8_t* src1 = buf[static_cast<std::size_t>(op.in1)].data();
        const std::int64_t in1_n =
            slots[static_cast<std::size_t>(op.in1)].shape.numel();
        for (std::int64_t i = 0; i < n; ++i) {
          std::copy_n(src + i * in_n, in_n, dst + i * out_n);
          std::copy_n(src1 + i * in1_n, in1_n, dst + i * out_n + in_n);
        }
        break;
      }
    }
    (*kind_us)[op_kind(op.kind)] += ms_since(t0) * 1e3;
  }
  return buf[static_cast<std::size_t>(q.output_slot_index())];
}

struct KernelReplay {
  double igemm_macs = 0.0, igemm_s = 0.0;
  double sgemm_macs = 0.0, sgemm_s = 0.0;
};

/// igemm and sgemm at the GEMM shape of every conv op of the artifact.
void replay_kernels(const QuantizedModel& q, int reps, KernelReplay* out) {
  Rng rng(0x6E33);
  for (const QOp& op : q.ops()) {
    if (op.kind != QOp::Kind::kConv) continue;
    const std::int64_t m = op.out_c;
    const std::int64_t k = op.geom.in_c * op.geom.kernel_h * op.geom.kernel_w;
    const std::int64_t n = op.geom.out_h() * op.geom.out_w();
    const auto mk = static_cast<std::size_t>(m * k);
    const auto kn = static_cast<std::size_t>(k * n);
    const auto mn = static_cast<std::size_t>(m * n);
    std::vector<std::int8_t> b(kn), o(mn);
    for (auto& v : b) {
      v = static_cast<std::int8_t>(static_cast<int>(rng.randint(256)) - 128);
    }
    IgemmEpilogue ep;
    ep.bias = op.bias.data();
    ep.multiplier = op.rq.multiplier.data();
    ep.shift = op.rq.shift.data();
    std::vector<float> fa(mk), fb(kn), fc(mn);
    for (auto& v : fa) v = rng.uniform(-1.0f, 1.0f);
    for (auto& v : fb) v = rng.uniform(-1.0f, 1.0f);
    for (int r = 0; r < reps; ++r) {
      auto t0 = Clock::now();
      igemm(m, n, k, op.weights.data(), k, b.data(), n, 0, ep, o.data(), n);
      out->igemm_s += seconds_since(t0);
      out->igemm_macs += static_cast<double>(m * n * k);
      t0 = Clock::now();
      sgemm(m, n, k, fa.data(), k, false, fb.data(), n, false, fc.data(), n);
      out->sgemm_s += seconds_since(t0);
      out->sgemm_macs += static_cast<double>(m * n * k);
    }
  }
}

// ---------------------------------------------------------------------------
// Metric helpers.
// ---------------------------------------------------------------------------

void put(RunOutput* out, const std::string& name, double value,
         const std::string& unit) {
  out->metrics[name] = {value, unit};
}

double slo_met_pct(const std::vector<double>& ms, double limit) {
  if (ms.empty()) return 0.0;
  std::size_t ok = 0;
  for (double v : ms) ok += v <= limit;
  return 100.0 * static_cast<double>(ok) / static_cast<double>(ms.size());
}

/// Cells of one workload. `times` (traced runs) wraps every gradient
/// source in the timing decorator.
std::vector<Cell> make_cells(const WorkloadSpec& w, const Setup& s,
                             std::uint64_t seed, CallTimes* times) {
  std::vector<Cell> cells;
  for (std::size_t a = 0; a < s.archs.size(); ++a) {
    const ArchSet& m = s.archs[a];
    auto add = [&](const std::string& name, const std::string& kind,
                   const AttackTargets& t, const AttackSpec& spec, bool diva) {
      cells.push_back({m.key + "/" + name, &m, make_attack(kind, t, spec),
                       diva,
                       BatchStream(m.eval.size(),
                                   hash_combine(seed, cells.size() + 1))});
    };
    // The decorator's key: cell and source.
    auto key = [&](const char* cell, const char* src) {
      return m.key + "/" + cell + " " + src;
    };
    if (w.name == "whitebox-diva") {
      add("diva", "diva",
          {timed(source(*m.orig, m.key + "/original"), times,
                 key("diva", "original")),
           timed(source(*m.qat, m.key + "/qat"), times, key("diva", "qat"))},
          attack_spec(), true);
      add("pgd", "pgd",
          {nullptr,
           timed(source(*m.qat, m.key + "/qat"), times, key("pgd", "qat"))},
          attack_spec(), false);
    } else {
      add("diva-fd", "diva",
          {timed(source(*m.orig, m.key + "/original"), times,
                 key("diva-fd", "original")),
           timed(spanned_fd_source(*m.q), times, key("diva-fd", "int8-fd"))},
          attack_spec(), true);
    }
  }
  return cells;
}

void record_machine(const WorkloadSpec& w, const RunOptions& opts,
                    RunOutput* out) {
  auto& r = out->record;
  r["workload"] = w.name;
  r["seed"] = std::to_string(opts.seed);
  r["seconds"] = std::to_string(opts.seconds);
  r["trace"] = opts.trace ? "1" : "0";
  r["nproc"] = std::to_string(nproc());
  r["isa_tier"] = isa_tier_name(active_isa_tier());
  r["cpu_flags"] = cpu_features_summary();
  r["compiler"] = std::string("g++ ") + __VERSION__;
  r["budget"] = budget_string();
  r["setup_reps"] = std::to_string(kSetupReps);
  r["compute_threads"] = std::to_string(engine_threads());
  r["serve_probe_workers"] = std::to_string(kServeWorkers) + "x" +
                             std::to_string(kServeWorkerThreads);
  r["oversubscribed"] =
      kServeWorkers * kServeWorkerThreads > nproc() ? "yes" : "no";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& s : specs()) n.push_back(s.name);
    return n;
  }();
  return names;
}

void run_workload(const RunOptions& opts, RunOutput* out) {
  const WorkloadSpec* found = nullptr;
  for (const auto& s : specs()) {
    if (s.name == opts.workload) found = &s;
  }
  DIVA_CHECK(found != nullptr, "unknown workload " << opts.workload);
  const WorkloadSpec& w = *found;
  record_machine(w, opts, out);
  Ledger ledger(out);
  SpanRecorder& rec = SpanRecorder::get();
  rec.set_enabled(opts.trace);

  const Setup setup = build_setup(w, opts.run_dir);
  const ArchSet& resnet = setup.archs.front();
  const double S = opts.seconds;
  const AttackEngine engine({engine_threads(), w.shard});
  PhaseConfig pc;
  pc.batch = w.batch;
  pc.shard = w.shard;
  gate_scalar_tier(setup, opts.seed, ledger);

  if (!opts.trace) {
    // ---- End-to-end run -------------------------------------------------
    std::vector<Cell> cells = make_cells(w, setup, opts.seed, nullptr);
    pc.budget_s = S;
    pc.first_pass = true;
    pc.gate_sharding = true;
    const AttackPhaseOut ap = run_attack_phase(cells, engine, pc, ledger);
    ledger.check(ap.diva.total > 0, "quality subset attacked");
    put(out, "setup_s", median(setup.total_s), "s");
    put(out, "attack_img_s", ap.img_s(), "img/s");
    put(out, "evasive_top1_pct", ap.diva.evasive_pct(), "%");
    put(out, "adapted_fooled_pct", ap.diva.fooled_pct(), "%");
    put(out, "slo_met_pct", slo_met_pct(ap.batch_ms, w.slo_ms), "%");
    auto& r = out->record;
    // A cell runs too few batches for p90 to have ten beyond it.
    r["latency_p90_ms"] = std::to_string(ap.latency_ms(0.9));
    r["latency_samples"] = std::to_string(ap.batch_ms.size());
    r["latency_tail_percentile"] =
        std::to_string(tail_percentile(ap.batch_ms.size()));
    r["quality_images"] = std::to_string(ap.diva.total);
    r["quality_evaded"] = std::to_string(ap.diva.evaded);
    std::string subset;
    for (const ArchSet& m : setup.archs) {
      subset += (subset.empty() ? "" : " ") + m.key + "=" +
                std::to_string(m.eval.size());
    }
    r["quality_subset"] = subset;
    r["pgd_evasive_top1_pct"] = std::to_string(ap.pgd.evasive_pct());
    r["pgd_adapted_fooled_pct"] = std::to_string(ap.pgd.fooled_pct());
    return;
  }

  // ---- Traced run: per-layer metrics ----------------------------------
  put(out, "zoo.train_s", median(setup.train_s), "s");
  put(out, "zoo.qat_s", median(setup.qat_s), "s");
  put(out, "zoo.compile_s", median(setup.compile_s), "s");

  // Int8 forward at batch 64 and 4; kernel MACs per image from telemetry.
  {
    const auto before = telemetry::snapshot();
    const FwdOut b64 = int8_forward(setup, 64, 0.1 * S, opts.seed, ledger);
    const auto delta = telemetry::diff(telemetry::snapshot(), before);
    put(out, "quant.forward.img_s_b64", b64.img_s(), "img/s");
    put(out, "kernels.igemm.macs_per_img",
        ratio(static_cast<double>(counter_sum(delta, "kernels.igemm.macs.")),
              static_cast<double>(b64.rows)),
        "MAC");
    const FwdOut b4 = int8_forward(setup, 4, 0.05 * S, opts.seed, ledger);
    put(out, "quant.forward.img_s_b4", b4.img_s(), "img/s");
  }

  // Float forward+backward, whole model and per child kind.
  {
    NnReplay nn;
    for (const ArchSet& m : setup.archs) {
      const Tensor x = gather_batch(
          m.eval.images, BatchStream(m.eval.size(), opts.seed).next(w.shard));
      replay_nn(*m.orig, x, 5, &nn.original_ms, &nn.kind_us, &nn.sgemm_macs,
                &nn.images);
      replay_nn(*m.qat, x, 5, &nn.qat_ms, &nn.kind_us, &nn.sgemm_macs,
                &nn.images);
    }
    put(out, "nn.original.fwd_bwd_ms", nn.original_ms, "ms");
    put(out, "nn.qat.fwd_bwd_ms", nn.qat_ms, "ms");
    double total = 0.0;
    for (const auto& [k, us] : nn.kind_us) total += us;
    for (const std::string& k : nn_kinds()) {
      put(out, "nn." + k + ".share", ratio(nn.kind_us[k], total), "share");
    }
    put(out, "kernels.sgemm.macs_per_img",
        ratio(static_cast<double>(nn.sgemm_macs),
              static_cast<double>(nn.images)),
        "MAC");
  }

  // Int8 ops replayed one by one, single-threaded, against the measured
  // single-thread forward; kernels at the artifacts' conv shapes.
  {
    std::map<std::string, double> op_us;
    double replay_us = 0.0, forward_us = 0.0;
    KernelReplay kr;
    run_serial([&] {
      for (const ArchSet& m : setup.archs) {
        const Tensor x = seeded_batches(setup.val(), 8, 1, opts.seed)[0];
        std::vector<double> fwd_us;
        std::vector<std::int8_t> expect(
            static_cast<std::size_t>(8 * m.q->output_slot().shape.numel()));
        for (int r = 0; r < 5; ++r) {
          const auto t0 = Clock::now();
          m.q->run_batch_int8(x.raw(), 8, expect.data());
          fwd_us.push_back(ms_since(t0) * 1e3);
        }
        forward_us += median(fwd_us);
        std::map<std::string, double> acc;
        std::vector<std::int8_t> got;
        for (int r = 0; r < 5; ++r) got = replay_ops(*m.q, x, &acc);
        for (auto& [k, us] : acc) {
          op_us[k] += us / 5.0;
          replay_us += us / 5.0;
        }
        ledger.check(got == expect, m.key + " op replay == executor");
        replay_kernels(*m.q, 3, &kr);
      }
    });
    for (const std::string& k : op_kinds()) {
      put(out, "quant.op." + k + ".share", ratio(op_us[k], replay_us),
          "share");
    }
    put(out, "quant.op.coverage", ratio(replay_us, forward_us), "ratio");
    put(out, "kernels.igemm.gmac_s", ratio(kr.igemm_macs / 1e9, kr.igemm_s),
        "GMAC/s");
    put(out, "kernels.sgemm.gmac_s", ratio(kr.sgemm_macs / 1e9, kr.sgemm_s),
        "GMAC/s");
  }

  // Attack layer through the engine: rounds alternate between plain
  // cells (tracing off) and twins with timed gradient sources (tracing
  // on); then one shard on one thread for the lock-wait share.
  {
    std::vector<Cell> plain = make_cells(w, setup, opts.seed, nullptr);
    CallTimes times;
    std::vector<Cell> cells = make_cells(w, setup, opts.seed, &times);
    std::vector<SpanRecord> earlier = rec.take();
    out->spans.insert(out->spans.end(), earlier.begin(), earlier.end());
    pc.budget_s = 0.4 * S;
    pc.min_batches = 2 * static_cast<std::int64_t>(plain.size());
    pc.twin = &cells;
    const auto before = telemetry::snapshot();
    const AttackPhaseOut traced = run_attack_phase(plain, engine, pc, ledger);
    pc.twin = nullptr;
    const auto attack_spans = rec.take();
    const auto delta = telemetry::diff(telemetry::snapshot(), before);
    const CallMs grad_n = times.take();
    rec.set_enabled(false);
    // One shard-sized batch of every cell on a one-thread engine, on a
    // pool thread so that library code runs serially there as it does
    // in an engine shard: each cell and source's uncontended per-call
    // time.
    const AttackEngine one({1, w.shard});
    PhaseConfig single = pc;
    single.budget_s = 0.0;
    single.batch = w.shard;
    single.min_batches = static_cast<std::int64_t>(cells.size());
    run_serial([&] { (void)run_attack_phase(cells, one, single, ledger); });
    const CallMs grad_1 = times.take();
    rec.set_enabled(true);

    std::vector<double> grad_ms;
    for (const auto& [k, v] : grad_n) {
      grad_ms.insert(grad_ms.end(), v.begin(), v.end());
    }
    const std::optional<double> wait = wait_share(grad_n, grad_1);
    ledger.check(wait.has_value(),
                 "wait_share: both passes time the same cells and sources");
    put(out, "attack.grad.calls", static_cast<double>(grad_ms.size()), "count");
    put(out, "attack.grad.ms_p50", quantile(grad_ms, 0.5), "ms");
    put(out, "attack.grad.ms_p90", quantile(grad_ms, 0.9), "ms");
    put(out, "attack.grad.wait_share", wait.value_or(0.0), "share");
    const auto* shard = hist(delta, "engine.shard_us");
    put(out, "engine.shard_ms_p50", shard ? shard->quantile(0.5) / 1e3 : 0.0,
        "ms");
    put(out, "engine.shard_ms_p90", shard ? shard->quantile(0.9) / 1e3 : 0.0,
        "ms");
    put(out, "engine.parallel_eff",
        shard ? ratio(static_cast<double>(shard->sum) / 1e6,
                      traced.seconds * engine.threads())
              : 0.0,
        "ratio");
    put(out, "attack.deployed_queries_per_img",
        ratio(static_cast<double>(counter_sum(delta, "quant.forward.rows")),
              static_cast<double>(traced.images)),
        "queries");
    put(out, "trace.overhead_pct",
        100.0 * (1.0 - ratio(traced.twin_img_s(), traced.img_s())), "%");
    // Self time per layer over the traced attack batches, as a share of
    // all self time there (engine pool threads counted once each).
    const auto self = self_time_us(attack_spans);
    double self_total = 0.0;
    for (const auto& [name, us] : self) self_total += us;
    for (const char* layer :
         {"attack.batch", "engine.run", "attack.grad", "quant.forward"}) {
      const auto it = self.find(layer);
      put(out, std::string("trace.self_share.") + layer,
          it != self.end() ? ratio(it->second, self_total) : 0.0, "share");
    }
    out->spans.insert(out->spans.end(), attack_spans.begin(),
                      attack_spans.end());
  }

  // Serve layer: the serve probe on the workload's ResNet models.
  {
    const ServeProbeOut sv = run_serve_probe(resnet, opts, ledger);
    put(out, "serve.queue_wait_ms_p50", quantile(sv.queue_wait_ms, 0.5), "ms");
    put(out, "serve.queue_wait_ms_p90", quantile(sv.queue_wait_ms, 0.9), "ms");
    put(out, "serve.compute_ms_p50", quantile(sv.compute_ms, 0.5), "ms");
    put(out, "serve.transport_ms_p50", quantile(sv.transport_ms, 0.5), "ms");
    const auto* jobs = hist(sv.stats, "serve.batch.jobs");
    const auto* depth = hist(sv.stats, "serve.queue.depth");
    put(out, "serve.batch_jobs_mean", jobs ? jobs->mean() : 0.0, "jobs");
    put(out, "serve.queue_depth_p90", depth ? depth->quantile(0.9) : 0.0,
        "jobs");
    put(out, "serve.latency_ms_p50", quantile(sv.latency_ms, 0.5), "ms");
    put(out, "loadgen.lag_ms_p90", quantile(sv.lag_ms, 0.9), "ms");
    put(out, "loadgen.sent", static_cast<double>(sv.sent), "count");
    put(out, "loadgen.completed", static_cast<double>(sv.completed), "count");
    put(out, "loadgen.failed", static_cast<double>(sv.failed), "count");
    put(out, "serve.worker_restarts",
        static_cast<double>(counter_sum(sv.stats, "serve.worker.restarts")),
        "count");
  }

  std::vector<SpanRecord> rest = rec.take();
  rec.set_enabled(false);
  out->spans.insert(out->spans.end(), rest.begin(), rest.end());
  out->record["spans"] = std::to_string(out->spans.size());
}

}  // namespace bench
