#include "tensor/ops_common.h"

#include "tensor/ops.h"

namespace focus {

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (size_t i = 0; i < rank; ++i) {
    const int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    const int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    FOCUS_CHECK(da == db || da == 1 || db == 1)
        << "incompatible broadcast: " << ShapeToString(a) << " vs "
        << ShapeToString(b);
    out[i] = da == 1 ? db : da;  // a 1 yields to the other extent, even 0
  }
  return out;
}

namespace internal_ops {

std::vector<int64_t> Strides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t acc = 1;
  for (size_t i = shape.size(); i-- > 0;) {
    strides[i] = acc;
    acc *= shape[i];
  }
  return strides;
}

std::vector<int64_t> BroadcastReadStrides(const Shape& in, const Shape& out) {
  const std::vector<int64_t> in_strides = Strides(in);
  std::vector<int64_t> strides(out.size(), 0);
  const size_t offset = out.size() - in.size();
  for (size_t i = 0; i < in.size(); ++i) {
    const int64_t din = in[i];
    const int64_t dout = out[offset + i];
    FOCUS_CHECK(din == dout || din == 1)
        << "cannot broadcast " << ShapeToString(in) << " to "
        << ShapeToString(out);
    strides[offset + i] = (din == 1 && dout != 1) ? 0 : in_strides[i];
  }
  return strides;
}

Tensor ReduceGradToShape(const Tensor& g, const Shape& target) {
  NoGradGuard no_grad;
  if (g.shape() == target) return g;
  Tensor reduced = g;
  // Collapse extra leading dims.
  while (reduced.dim() > static_cast<int64_t>(target.size())) {
    reduced = Sum(reduced, 0, /*keepdim=*/false);
  }
  // Sum dims that were broadcast from size 1.
  for (int64_t d = 0; d < reduced.dim(); ++d) {
    if (target[static_cast<size_t>(d)] == 1 && reduced.size(d) != 1) {
      reduced = Sum(reduced, d, /*keepdim=*/true);
    }
  }
  FOCUS_CHECK(reduced.shape() == target)
      << "grad reduction failed: " << ShapeToString(g.shape()) << " -> "
      << ShapeToString(target);
  return reduced;
}

int64_t NormalizeDim(int64_t dim, int64_t rank) {
  if (dim < 0) dim += rank;
  FOCUS_CHECK(dim >= 0 && dim < rank)
      << "dim " << dim << " out of range for rank " << rank;
  return dim;
}

}  // namespace internal_ops
}  // namespace focus
