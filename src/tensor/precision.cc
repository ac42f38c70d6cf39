#include "tensor/precision.h"

#include <cstdio>
#include <string>

#include "utils/env.h"

namespace focus {
namespace {

Precision ParsePrecisionEnv() {
  const std::string raw = GetEnvOr("FOCUS_PRECISION", "f32");
  if (raw == "f32") return Precision::kF32;
  if (raw == "int8proto") return Precision::kInt8Proto;
  std::fprintf(stderr,
               "focus: FOCUS_PRECISION='%s' not in {f32,int8proto}; "
               "using f32\n",
               raw.c_str());
  return Precision::kF32;
}

thread_local Precision g_precision = DefaultPrecision();

}  // namespace

const char* PrecisionName(Precision p) {
  switch (p) {
    case Precision::kF32:
      return "f32";
    case Precision::kInt8Proto:
      return "int8proto";
  }
  return "?";
}

Precision DefaultPrecision() {
  static const Precision parsed = ParsePrecisionEnv();
  return parsed;
}

Precision PrecisionMode::Get() { return g_precision; }

void PrecisionMode::Set(Precision p) { g_precision = p; }

}  // namespace focus
