// Differentiable tensor operations (free functions).
//
// Every op returns a fresh tensor; if grad mode is on and an input requires
// grad, the result carries an autograd node. Binary elementwise ops follow
// NumPy broadcasting. Reductions with `dim` accept negative axes.
#ifndef FOCUS_TENSOR_OPS_H_
#define FOCUS_TENSOR_OPS_H_

#include <vector>

#include "tensor/tensor.h"

namespace focus {

// --- Elementwise binary (broadcasting) --------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

inline Tensor operator+(const Tensor& a, const Tensor& b) { return Add(a, b); }
inline Tensor operator-(const Tensor& a, const Tensor& b) { return Sub(a, b); }
inline Tensor operator*(const Tensor& a, const Tensor& b) { return Mul(a, b); }
inline Tensor operator/(const Tensor& a, const Tensor& b) { return Div(a, b); }

// --- Scalar -----------------------------------------------------------------
Tensor AddScalar(const Tensor& x, float s);
Tensor MulScalar(const Tensor& x, float s);
Tensor PowScalar(const Tensor& x, float p);

// --- Unary ------------------------------------------------------------------
Tensor Neg(const Tensor& x);
Tensor Exp(const Tensor& x);
Tensor Log(const Tensor& x);    // CHECKs on non-positive inputs in debug use.
Tensor Sqrt(const Tensor& x);
Tensor Abs(const Tensor& x);
Tensor Relu(const Tensor& x);
Tensor Gelu(const Tensor& x);   // tanh approximation
Tensor Sigmoid(const Tensor& x);
Tensor Tanh(const Tensor& x);
Tensor Erf(const Tensor& x);    // Gauss error function

// --- Linear algebra ---------------------------------------------------------
// Supports (m,k)x(k,n), batched (b,m,k)x(b,k,n), and broadcast
// (b,m,k)x(k,n) / (m,k)x(b,k,n).
Tensor MatMul(const Tensor& a, const Tensor& b);

// --- Reductions --------------------------------------------------------------
Tensor SumAll(const Tensor& x);    // -> shape {1}
Tensor MeanAll(const Tensor& x);   // -> shape {1}
Tensor Sum(const Tensor& x, int64_t dim, bool keepdim);
Tensor Mean(const Tensor& x, int64_t dim, bool keepdim);

// --- Normalization / attention helpers ---------------------------------------
// softmax(scale * x) over the last dimension (numerically stabilized,
// fused backward). The scale is applied inside the row sweep, so scaled
// attention scores are never materialized; it equals
// SoftmaxLastDim(MulScalar(x, scale)) bit for bit.
Tensor SoftmaxLastDim(const Tensor& x, float scale = 1.0f);
// LayerNorm over the last dimension with affine params gamma/beta of shape
// {last_dim}.
Tensor LayerNormLastDim(const Tensor& x, const Tensor& gamma,
                        const Tensor& beta, float eps = 1e-5f);

// --- Shape ------------------------------------------------------------------
Tensor Reshape(const Tensor& x, Shape shape);           // aliases the buffer
Tensor Transpose(const Tensor& x, int64_t d0, int64_t d1);  // materializes
Tensor Permute(const Tensor& x, const std::vector<int64_t>& dims);
Tensor Slice(const Tensor& x, int64_t dim, int64_t start, int64_t end);
Tensor Cat(const std::vector<Tensor>& tensors, int64_t dim);
// Rows of `x` along `dim` gathered at `indices` (may repeat). Backward
// scatter-adds.
Tensor IndexSelect(const Tensor& x, int64_t dim,
                   const std::vector<int64_t>& indices);
// Materialized NumPy-style broadcast to `shape`.
Tensor BroadcastTo(const Tensor& x, const Shape& shape);

// --- Convolution -------------------------------------------------------------
// x: (B, Cin, L), w: (Cout, Cin, K), optional bias (Cout).
Tensor Conv1d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int64_t stride = 1, int64_t padding = 0, int64_t dilation = 1);
// x: (B, Cin, H, W), w: (Cout, Cin, KH, KW), optional bias (Cout).
Tensor Conv2d(const Tensor& x, const Tensor& w, const Tensor& bias,
              int64_t stride = 1, int64_t padding = 0);

// --- Losses ------------------------------------------------------------------
Tensor MseLoss(const Tensor& pred, const Tensor& target);
Tensor L1Loss(const Tensor& pred, const Tensor& target);

// --- Non-differentiable helpers ----------------------------------------------
// a += b with equal shapes; bypasses autograd (used by the engine/optimizers).
void AddInPlace(Tensor& a, const Tensor& b);

// Broadcast result shape per NumPy rules; CHECKs on incompatibility.
Shape BroadcastShapes(const Shape& a, const Shape& b);

}  // namespace focus

#endif  // FOCUS_TENSOR_OPS_H_
