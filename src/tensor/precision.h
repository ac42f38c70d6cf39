// Inference precision mode: selects how ProtoAttn assigns tokens to
// prototypes at inference time. Modeled on GradMode (tensor.h): a
// thread-local flag read at op entry on the launching thread, so
// concurrent serving tenants can run different precisions.
//
//   kF32       default; bit-identical to the historical float32 path.
//   kInt8Proto ProtoAttn's nearest-prototype assignment scores tokens
//              against an int8-quantized copy of the frozen prototype
//              bank with int32 accumulation. Every matmul, and the
//              prototype rows the assignment selects, stay f32: the
//              mode changes only WHICH prototype a token is assigned.
//
// The process-wide default is parsed once from FOCUS_PRECISION
// ({f32,int8proto}; unset or unrecognized -> f32 with a warning) and
// seeds each thread's initial mode. Training ignores the mode entirely:
// the int8 assignment only engages when gradients are off.
#ifndef FOCUS_TENSOR_PRECISION_H_
#define FOCUS_TENSOR_PRECISION_H_

namespace focus {

enum class Precision { kF32, kInt8Proto };

const char* PrecisionName(Precision p);

// Default precision for new threads: FOCUS_PRECISION env, parsed once.
Precision DefaultPrecision();

// Thread-local precision flag (same shape as GradMode).
class PrecisionMode {
 public:
  static Precision Get();
  static void Set(Precision p);
};

class PrecisionGuard {
 public:
  explicit PrecisionGuard(Precision p) : prev_(PrecisionMode::Get()) {
    PrecisionMode::Set(p);
  }
  ~PrecisionGuard() { PrecisionMode::Set(prev_); }
  PrecisionGuard(const PrecisionGuard&) = delete;
  PrecisionGuard& operator=(const PrecisionGuard&) = delete;

 private:
  Precision prev_;
};

}  // namespace focus

#endif  // FOCUS_TENSOR_PRECISION_H_
