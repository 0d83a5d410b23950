// Sequential container: runs children in order.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.h"

namespace diva {

class Sequential : public Module {
 public:
  explicit Sequential(std::string name = "seq") : Module(std::move(name)) {}

  /// Appends a child; returns *this for chaining.
  Sequential& add(std::unique_ptr<Module> m) {
    DIVA_CHECK(m != nullptr, "null module");
    modules_.push_back(std::move(m));
    return *this;
  }

  /// Constructs a child in place and returns a reference to it.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto m = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *m;
    modules_.push_back(std::move(m));
    return ref;
  }

  // Both passes start from the first child's result, so the input is
  // never copied.
  Tensor forward(const Tensor& x) override {
    if (modules_.empty()) return x;
    Tensor h = modules_.front()->forward(x);
    for (auto it = modules_.begin() + 1; it != modules_.end(); ++it) {
      h = (*it)->forward(h);
    }
    return h;
  }

  Tensor backward(const Tensor& grad_out) override {
    if (modules_.empty()) return grad_out;
    Tensor g = modules_.back()->backward(grad_out);
    for (auto it = modules_.rbegin() + 1; it != modules_.rend(); ++it) {
      g = (*it)->backward(g);
    }
    return g;
  }

  /// Runs only children [0, count); used to extract intermediate
  /// (e.g. penultimate-layer) representations.
  Tensor forward_prefix(const Tensor& x, std::size_t count) {
    DIVA_CHECK(count <= modules_.size(), "forward_prefix out of range");
    Tensor h = x;
    for (std::size_t i = 0; i < count; ++i) h = modules_[i]->forward(h);
    return h;
  }

  std::vector<Module*> children() override {
    std::vector<Module*> out;
    out.reserve(modules_.size());
    for (auto& m : modules_) out.push_back(m.get());
    return out;
  }

  std::size_t size() const { return modules_.size(); }
  Module& module(std::size_t i) {
    DIVA_CHECK(i < modules_.size(), "module index out of range");
    return *modules_[i];
  }

 private:
  std::vector<std::unique_ptr<Module>> modules_;
};

}  // namespace diva
