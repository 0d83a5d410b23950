// Shape: dimension list for dense tensors (rank 0..4 in practice).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "runtime/check.h"

namespace diva {

/// Immutable dimension vector with row-major index math.
///
/// Invariant: every dimension is >= 0. numel() is the product of all
/// dimensions (1 for rank-0), computed once by the constructor and
/// stored: dims never change after construction. A stored count is a
/// plain load the compiler can hoist, so a loop bounded by
/// `t.numel()` vectorizes; a count recomputed on every call would walk
/// the dims in each iteration and keep the loop scalar.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) { validate(); }
  explicit Shape(std::vector<std::int64_t> dims) : dims_(std::move(dims)) {
    validate();
  }

  std::size_t rank() const { return dims_.size(); }

  std::int64_t operator[](std::size_t i) const {
    DIVA_CHECK(i < dims_.size(), "shape axis " << i << " out of range for "
                                               << str());
    return dims_[i];
  }

  /// Total element count (product of dims; 1 for scalar rank-0).
  std::int64_t numel() const { return numel_; }

  const std::vector<std::int64_t>& dims() const { return dims_; }

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  /// Human-readable form, e.g. "[2, 3, 32, 32]".
  std::string str() const {
    std::string s = "[";
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      if (i) s += ", ";
      s += std::to_string(dims_[i]);
    }
    return s + "]";
  }

 private:
  void validate() {
    for (auto d : dims_) {
      DIVA_CHECK(d >= 0, "negative dim in shape " << str());
      numel_ *= d;
    }
  }

  std::vector<std::int64_t> dims_;
  std::int64_t numel_ = 1;
};

inline std::ostream& operator<<(std::ostream& os, const Shape& s) {
  return os << s.str();
}

}  // namespace diva
