// Module: the layer abstraction of the NN substrate.
//
// forward() computes the layer output and leaves whatever backward()
// needs; backward() receives the gradient with respect to the module
// output and returns the gradient with respect to the module input,
// accumulating parameter gradients along the way.
//
// Modules are reentrant: each thread may have one forward/backward pair
// in flight on the same module at once. A layer keeps its forward caches
// in a PerThread slot keyed by the calling thread, and backward() takes
// that slot back out, so a pair must run forward and backward on the
// same thread (input_grad and the training loops do). Parameters and
// the training/param-grads flags stay shared: training-mode forwards
// update running statistics and backward accumulates parameter
// gradients without synchronization, so concurrent pairs must run in
// eval mode with parameter gradients off (attack mode).
//
// Both training-mode and eval-mode backward are supported; adversarial
// attacks differentiate eval-mode networks with respect to their input.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace diva {

/// A learnable (or buffer) tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;
  /// False for buffers such as BatchNorm running statistics: serialized
  /// with the model but never updated by optimizers.
  bool trainable = true;

  explicit Parameter(Tensor v, bool trainable_in = true)
      : value(std::move(v)), grad(value.shape()), trainable(trainable_in) {}
  Parameter() = default;
};

/// A parameter with its fully-qualified name, e.g. "block1.conv1.weight".
struct NamedParameter {
  std::string name;
  Parameter* param = nullptr;
};

/// One T per thread: a module's forward-to-backward state. forward()
/// fills the calling thread's slot via local(); backward() on the same
/// thread removes it via take(), so a finished pair leaves nothing
/// behind, not even for a thread that has since exited.
template <typename T>
class PerThread {
 public:
  /// The calling thread's slot, default-constructed on first use. The
  /// reference stays valid until this thread calls take().
  T& local() {
    std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<T>& slot = slots_[std::this_thread::get_id()];
    if (!slot) slot = std::make_unique<T>();
    return *slot;
  }

  /// Removes and returns the calling thread's slot; `owner` names the
  /// module in the error thrown when this thread ran no forward.
  std::unique_ptr<T> take(const std::string& owner) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(std::this_thread::get_id());
    DIVA_CHECK(it != slots_.end(),
               owner << ": backward without a preceding forward");
    std::unique_ptr<T> out = std::move(it->second);
    slots_.erase(it);
    return out;
  }

 private:
  std::mutex mu_;
  std::map<std::thread::id, std::unique_ptr<T>> slots_;
};

class Module {
 public:
  explicit Module(std::string name) : name_(std::move(name)) {}
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output. Caches state for this thread's backward().
  virtual Tensor forward(const Tensor& x) = 0;

  /// Propagates gradients: takes d(loss)/d(output), returns
  /// d(loss)/d(input), and accumulates parameter gradients (+=).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Parameters owned directly by this module (non-recursive),
  /// with their local names.
  virtual std::vector<std::pair<std::string, Parameter*>> local_parameters() {
    return {};
  }

  /// Direct submodules (non-recursive).
  virtual std::vector<Module*> children() { return {}; }

  /// All parameters in the subtree with hierarchical names.
  std::vector<NamedParameter> named_parameters();

  /// Applies fn to this module and every descendant (pre-order).
  void visit(const std::function<void(Module&)>& fn);

  /// Zeroes every gradient in the subtree.
  void zero_grad();

  /// Switches training/eval mode for the subtree.
  void set_training(bool training);

  /// Disables parameter-gradient accumulation in the subtree. backward()
  /// then only propagates input gradients — roughly halving its cost.
  /// Used by adversarial attacks, which differentiate frozen models with
  /// respect to the input thousands of times.
  void set_param_grads_enabled(bool enabled);

  bool training() const { return training_; }
  bool param_grads_enabled() const { return param_grads_enabled_; }
  const std::string& name() const { return name_; }

  /// Total number of elements across trainable parameters in the subtree.
  std::int64_t num_trainable_elements();

 private:
  void collect(const std::string& prefix, std::vector<NamedParameter>& out);

  std::string name_;
  bool training_ = false;
  bool param_grads_enabled_ = true;
};

/// Pass-through layer; useful as a residual shortcut.
class Identity : public Module {
 public:
  explicit Identity(std::string name = "identity") : Module(std::move(name)) {}
  Tensor forward(const Tensor& x) override { return x; }
  Tensor backward(const Tensor& grad_out) override { return grad_out; }
};

}  // namespace diva
