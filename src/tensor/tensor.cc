#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "tensor/allocator.h"
#include "tensor/autograd.h"
#include "tensor/memory.h"
#include "tensor/plan_hooks.h"

namespace focus {

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    FOCUS_CHECK_GE(d, 0) << "negative dimension in shape";
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

namespace {

std::shared_ptr<float[]> AllocateTracked(int64_t numel) {
  const int64_t bytes = numel * static_cast<int64_t>(sizeof(float));
  // MemoryStats tracks *logical* live-tensor bytes (the paper's peak-memory
  // metric) and is deliberately recorded outside the caching allocator:
  // whether a buffer is recycled or fresh never changes these numbers. The
  // custom deleter performs the matching accounting when the last alias
  // dies, then hands the buffer back to the allocator's free lists.
  MemoryStats::RecordAlloc(bytes);
  float* p = Allocator::Get().Allocate(numel);
  return std::shared_ptr<float[]>(p, [bytes, numel](float* q) {
    MemoryStats::RecordFree(bytes);
    // An active plan capture keys recorded values by buffer address;
    // it must forget this one before the allocator hands it to an
    // unrelated tensor.
    if (plan_hooks::CaptureActive()) plan_hooks::NotifyFree(q);
    Allocator::Get().Deallocate(q, numel);
  });
}

thread_local bool g_grad_enabled = true;
thread_local bool g_inference_mode = false;

}  // namespace

bool GradMode::IsEnabled() { return g_grad_enabled; }
void GradMode::SetEnabled(bool enabled) { g_grad_enabled = enabled; }

bool InferenceMode::IsEnabled() { return g_inference_mode; }
void InferenceMode::SetEnabled(bool enabled) { g_inference_mode = enabled; }

TensorImpl::TensorImpl(Shape shape_in)
    : shape(std::move(shape_in)),
      numel(ShapeNumel(shape)),
      buffer_(AllocateTracked(std::max<int64_t>(numel, 1))) {}

TensorImpl::TensorImpl(Shape shape_in, std::shared_ptr<float[]> buffer)
    : shape(std::move(shape_in)),
      numel(ShapeNumel(shape)),
      buffer_(std::move(buffer)) {
  FOCUS_CHECK(buffer_ != nullptr);
}

Tensor Tensor::FromImpl(std::shared_ptr<TensorImpl> impl) {
  return Tensor(std::move(impl));
}

Tensor Tensor::Empty(Shape shape) {
  return Tensor(std::make_shared<TensorImpl>(std::move(shape)));
}

Tensor Tensor::Zeros(Shape shape) { return Full(std::move(shape), 0.0f); }
Tensor Tensor::Ones(Shape shape) { return Full(std::move(shape), 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Empty(std::move(shape));
  std::fill_n(t.data(), t.numel(), value);
  return t;
}

Tensor Tensor::FromVector(Shape shape, const std::vector<float>& values) {
  Tensor t = Empty(std::move(shape));
  FOCUS_CHECK_EQ(t.numel(), static_cast<int64_t>(values.size()))
      << "FromVector size mismatch for shape " << ShapeToString(t.shape());
  std::memcpy(t.data(), values.data(), values.size() * sizeof(float));
  return t;
}

Tensor Tensor::Scalar(float value) { return Full({1}, value); }

Tensor Tensor::Arange(int64_t n) {
  Tensor t = Empty({n});
  for (int64_t i = 0; i < n; ++i) t.data()[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng& rng, float stddev) {
  Tensor t = Empty(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Gaussian()) * stddev;
  }
  return t;
}

Tensor Tensor::RandUniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = Empty(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Uniform(lo, hi));
  }
  return t;
}

const Shape& Tensor::shape() const {
  FOCUS_CHECK(defined());
  return impl_->shape;
}

int64_t Tensor::size(int64_t d) const {
  const int64_t nd = dim();
  if (d < 0) d += nd;
  FOCUS_CHECK(d >= 0 && d < nd) << "dim " << d << " out of range for "
                                << ShapeToString(shape());
  return shape()[static_cast<size_t>(d)];
}

int64_t Tensor::numel() const {
  FOCUS_CHECK(defined());
  return impl_->numel;
}

float* Tensor::data() {
  FOCUS_CHECK(defined());
  return impl_->data();
}

const float* Tensor::data() const {
  FOCUS_CHECK(defined());
  return impl_->data();
}

float Tensor::Item() const {
  FOCUS_CHECK_EQ(numel(), 1) << "Item() on non-scalar "
                             << ShapeToString(shape());
  return data()[0];
}

namespace {
int64_t FlattenIndex(const Shape& shape, const std::vector<int64_t>& index) {
  FOCUS_CHECK_EQ(shape.size(), index.size());
  int64_t flat = 0;
  for (size_t d = 0; d < shape.size(); ++d) {
    FOCUS_CHECK(index[d] >= 0 && index[d] < shape[d])
        << "index " << index[d] << " out of range at dim " << d;
    flat = flat * shape[d] + index[d];
  }
  return flat;
}
}  // namespace

float Tensor::At(const std::vector<int64_t>& index) const {
  return data()[FlattenIndex(shape(), index)];
}

void Tensor::Set(const std::vector<int64_t>& index, float value) {
  data()[FlattenIndex(shape(), index)] = value;
}

std::vector<float> Tensor::ToVector() const {
  return std::vector<float>(data(), data() + numel());
}

Tensor Tensor::Clone() const {
  Tensor out = Empty(shape());
  std::memcpy(out.data(), data(), numel() * sizeof(float));
  return out;
}

bool Tensor::requires_grad() const {
  return defined() && impl_->requires_grad;
}

Tensor& Tensor::SetRequiresGrad(bool requires_grad) {
  FOCUS_CHECK(defined());
  FOCUS_CHECK(!impl_->grad_fn || requires_grad)
      << "cannot clear requires_grad on a non-leaf tensor";
  impl_->requires_grad = requires_grad;
  return *this;
}

Tensor Tensor::Grad() const {
  FOCUS_CHECK(defined());
  return impl_->grad ? Tensor(impl_->grad) : Tensor();
}

void Tensor::ZeroGrad() {
  FOCUS_CHECK(defined());
  impl_->grad.reset();
}

void Tensor::Backward() const { autograd::RunBackward(*this); }

Tensor Tensor::Detach() const {
  FOCUS_CHECK(defined());
  auto impl = std::make_shared<TensorImpl>(impl_->shape, impl_->buffer());
  return Tensor(std::move(impl));
}

const std::shared_ptr<autograd::Node>& Tensor::grad_fn() const {
  FOCUS_CHECK(defined());
  return impl_->grad_fn;
}

}  // namespace focus
