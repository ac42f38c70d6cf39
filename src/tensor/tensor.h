// Core tensor type: a shared, contiguous, row-major float32 array with
// reverse-mode autograd hooks.
//
// Design (DESIGN.md Sec. 2):
//  * Value-semantic handle (`Tensor`) over a shared `TensorImpl`.
//  * Always contiguous; shape-changing ops either alias the buffer (Reshape,
//    Detach) or materialize a copy (Transpose, Permute, Slice, Cat).
//  * Autograd is tape-based: each differentiable op attaches an
//    `autograd::Node` holding its inputs and a backward closure; see
//    autograd.h. Gradients of leaves accumulate into `TensorImpl::grad`.
//  * All buffer allocations are tracked by MemoryStats (peak-memory metric)
//    and all kernels report FLOPs to FlopCounter (FLOPs metric). Buffers
//    themselves come from the size-class caching allocator (allocator.h):
//    freed buffers are recycled, so `Empty` memory is uninitialized
//    *garbage*, never dependably zero — write before you read.
#ifndef FOCUS_TENSOR_TENSOR_H_
#define FOCUS_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "utils/check.h"
#include "utils/rng.h"

namespace focus {

using Shape = std::vector<int64_t>;

int64_t ShapeNumel(const Shape& shape);
std::string ShapeToString(const Shape& shape);

namespace autograd {
class Node;
}  // namespace autograd

// Reference-counted storage + metadata. Users interact through Tensor.
class TensorImpl {
 public:
  // Allocates an uninitialized, tracked buffer of ShapeNumel(shape) floats.
  explicit TensorImpl(Shape shape);
  // Aliases an existing buffer (used by Reshape / Detach).
  TensorImpl(Shape shape, std::shared_ptr<float[]> buffer);

  TensorImpl(const TensorImpl&) = delete;
  TensorImpl& operator=(const TensorImpl&) = delete;

  float* data() { return buffer_.get(); }
  const float* data() const { return buffer_.get(); }
  const std::shared_ptr<float[]>& buffer() const { return buffer_; }

  Shape shape;
  int64_t numel = 0;

  bool requires_grad = false;
  std::shared_ptr<TensorImpl> grad;          // Leaf gradient accumulator.
  std::shared_ptr<autograd::Node> grad_fn;   // Null for leaves/constants.

 private:
  std::shared_ptr<float[]> buffer_;
};

// Per-thread flag controlling whether ops record autograd nodes. A new
// thread starts with recording on, whatever other threads have set.
struct GradMode {
  static bool IsEnabled();
  static void SetEnabled(bool enabled);
};

// RAII: disables autograd recording within a scope (inference, backward).
class NoGradGuard {
 public:
  NoGradGuard() : prev_(GradMode::IsEnabled()) { GradMode::SetEnabled(false); }
  ~NoGradGuard() { GradMode::SetEnabled(prev_); }
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool prev_;
};

// Per-thread inference-mode flag (off on a new thread). Stronger than
// NoGradGuard: while it is set, creating a tape node is a contract
// violation (MakeResult CHECK-fails instead of silently recording), so
// inference paths are guaranteed tape-free even if someone re-enables
// GradMode inside the scope. Benchmarks, Evaluate, and plan capture all
// run under it, and ops with side effects (ProtoAttn's diagnostics) skip
// them, so an inference forward writes nothing to the model.
struct InferenceMode {
  static bool IsEnabled();
  static void SetEnabled(bool enabled);
};

// RAII: enters inference mode (and disables grad recording) for a scope.
class InferenceModeGuard {
 public:
  InferenceModeGuard() : prev_(InferenceMode::IsEnabled()) {
    InferenceMode::SetEnabled(true);
  }
  ~InferenceModeGuard() { InferenceMode::SetEnabled(prev_); }
  InferenceModeGuard(const InferenceModeGuard&) = delete;
  InferenceModeGuard& operator=(const InferenceModeGuard&) = delete;

 private:
  NoGradGuard no_grad_;  // ordered first: restored after the mode flag
  bool prev_;
};

class Tensor {
 public:
  // Default-constructed tensors are "undefined"; any data access CHECKs.
  Tensor() = default;

  // --- Factories -----------------------------------------------------------
  // Uninitialized buffer — with the caching allocator the contents are
  // recycled garbage (NaN-poisoned under FOCUS_DEBUG_CHECK), so every
  // element must be written before it is read. Use Zeros for accumulators.
  static Tensor Empty(Shape shape);
  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  static Tensor FromVector(Shape shape, const std::vector<float>& values);
  static Tensor Scalar(float value);  // shape {1}
  // Values in [0, n) as floats; used for positional indices.
  static Tensor Arange(int64_t n);
  static Tensor Randn(Shape shape, Rng& rng, float stddev = 1.0f);
  static Tensor RandUniform(Shape shape, Rng& rng, float lo, float hi);
  static Tensor FromImpl(std::shared_ptr<TensorImpl> impl);

  // --- Introspection -------------------------------------------------------
  bool defined() const { return impl_ != nullptr; }
  const Shape& shape() const;
  int64_t dim() const { return static_cast<int64_t>(shape().size()); }
  // Size along dimension d; negative d counts from the end.
  int64_t size(int64_t d) const;
  int64_t numel() const;
  float* data();
  const float* data() const;
  // Scalar extraction; CHECKs numel()==1.
  float Item() const;
  float At(const std::vector<int64_t>& index) const;
  void Set(const std::vector<int64_t>& index, float value);
  std::vector<float> ToVector() const;
  // Deep copy of the data (no autograd history).
  Tensor Clone() const;

  // --- Autograd ------------------------------------------------------------
  bool requires_grad() const;
  Tensor& SetRequiresGrad(bool requires_grad);
  // Gradient of a leaf after Backward(); undefined Tensor if none.
  Tensor Grad() const;
  void ZeroGrad();
  // Reverse-mode differentiation from this scalar tensor.
  void Backward() const;
  // Shares the buffer but drops autograd history.
  Tensor Detach() const;
  const std::shared_ptr<autograd::Node>& grad_fn() const;
  const std::shared_ptr<TensorImpl>& impl() const { return impl_; }

  // --- Convenience member ops (defined in ops.cc in terms of free fns) -----
  Tensor Reshape(Shape shape) const;
  Tensor Transpose(int64_t d0, int64_t d1) const;
  Tensor Permute(const std::vector<int64_t>& dims) const;
  Tensor Unsqueeze(int64_t dim) const;
  Tensor Squeeze(int64_t dim) const;

 private:
  explicit Tensor(std::shared_ptr<TensorImpl> impl) : impl_(std::move(impl)) {}

  std::shared_ptr<TensorImpl> impl_;
};

}  // namespace focus

#endif  // FOCUS_TENSOR_TENSOR_H_
