#!/usr/bin/env python3
"""Repo-specific lint for invariants clang-tidy cannot express.

Rule families (select with --rules=repo,format; default both):

repo rules — correctness contracts from the parallel-kernel layer:
  flop-in-parallel   FlopCounter mutation inside a ParallelFor / RunShards
                     body. FLOP counts must be computed once, from resolved
                     dims, outside the parallel region (PR 2's determinism
                     contract: counts must not depend on FOCUS_NUM_THREADS,
                     and the counter must not be contended per-shard).
  raw-array-new      Raw `new T[...]` in kernel code (src/tensor,
                     src/parallel). Buffers must go through the tracked
                     allocator in tensor.cc so MemoryStats stays honest.
                     Suppress deliberate uses with // NOLINT(focus-raw-new).
  raw-float-new      `new float[...]` anywhere outside tensor/allocator.cc.
                     Float buffers must come from Allocator so size-class
                     recycling and raw-byte accounting stay complete; the
                     allocator itself is the only permitted backing-store
                     call site (NOLINT does not suppress this elsewhere).
  op-entry-guard     Every public op entry point in src/tensor/ops_*.cc
                     (a function declared in tensor/ops.h) must open with a
                     FOCUS_*CHECK validation of its operands.
  simd-containment   <immintrin.h> includes and _mm256* identifiers are
                     confined to src/tensor/simd/. Everything else reaches
                     vector code through simd::KernelTable, which is what
                     keeps the scalar backend and the FOCUS_SIMD=OFF build
                     bit-identical; there is no NOLINT escape.
  perf-containment   perf_event_open / raw syscall() calls are confined to
                     src/obs/prof/. Everything else reads hardware counters
                     through obs::prof::PerfCounters, which owns the single
                     degradation path (zeroed counters + one warning) on
                     hosts where the syscall is unavailable; no NOLINT
                     escape.
  plan-containment   SlabLease (the execution-plan slab) is confined to
                     src/plan/ and its definition in tensor/allocator.h.
                     Slab offsets alias each other by design; only the plan
                     compiler's lifetime solver can prove a slab pointer
                     valid, so no other layer may hold one. No NOLINT
                     escape.
  precision-containment
                     Reduced-precision primitives stay behind the kernel
                     table. Float-width conversion intrinsics (_mm*_cvt*,
                     the F16C scalar pair) are confined to src/tensor/simd/,
                     where both backends compile every kernel from one
                     source so rounding is identical. The int8 requantize
                     primitive dot_i8 is additionally confined to
                     src/core/proto_attn.cc (the sole int8 consumer) plus
                     tests/ and bench/ which exercise the kernel directly; a
                     second consumer would fork the requantization math. No
                     NOLINT escape.
  raw-getenv         libc getenv / secure_getenv outside src/utils/. The
                     hardened helpers (GetEnvOr / GetEnvIntInRangeOr in
                     utils/env.h) own the warn-and-fallback contract for
                     malformed values. Suppress a deliberate use (e.g. an
                     env save/restore that must tell unset from empty) with
                     // NOLINT(focus-raw-getenv).
  unnamed-raii       A TraceSpan, InferenceModeGuard or std lock guard
                     constructed as an expression-statement temporary
                     (`TraceSpan("x");`) dies at the ';' and guards
                     nothing; bind it to a named local.

format rules — mechanical style (what clang-format would enforce; kept
tool-free so the check runs in a bare container):
  trailing-space     No trailing whitespace.
  tab-indent         No hard tabs in C++ sources.
  final-newline      Files end with exactly one newline.
  long-line          Lines <= 80 columns (URLs and includes exempt).

Exit status: 0 = clean, 1 = violations (each printed as file:line: rule).
"""

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

CXX_GLOBS = ("src/**/*.cc", "src/**/*.h", "src/**/*.inc", "tests/*.cc",
             "tests/*.h", "bench/**/*.cc", "examples/**/*.cc",
             "examples/**/*.cpp")
KERNEL_DIRS = ("src/tensor", "src/parallel")
MAX_LINE = 80

violations = []


def report(path, line_no, rule, message):
    violations.append(f"{path.relative_to(REPO_ROOT)}:{line_no}: [{rule}] {message}")


def cxx_sources():
    files = []
    for pattern in CXX_GLOBS:
        files.extend(sorted(REPO_ROOT.glob(pattern)))
    return files


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving offsets."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # str / chr
            if c == "\\":
                out.append("\\x")
                i += 2
                continue
            if (state == "str" and c == '"') or (state == "chr" and c == "'"):
                state = None
            out.append(c)
        i += 1
    return "".join(out)


def matching_paren_span(text, open_idx):
    """Returns the index one past the ')' matching the '(' at open_idx."""
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def line_of(text, idx):
    return text.count("\n", 0, idx) + 1


# --- repo rules --------------------------------------------------------------


def check_flop_in_parallel(path, raw, code):
    for m in re.finditer(r"\b(?:ParallelFor|RunShards)\s*\(", code):
        end = matching_paren_span(code, m.end() - 1)
        body = code[m.start():end]
        offset = body.find("FlopCounter::")
        if offset >= 0:
            report(path, line_of(code, m.start() + offset), "flop-in-parallel",
                   "FlopCounter mutated inside a parallel region; hoist the "
                   "count out of the ParallelFor body")


def nolint(raw_lines, ln, tag):
    """True when line `ln` or the line above carries NOLINT(<tag>)."""
    return f"NOLINT({tag})" in " ".join(raw_lines[max(0, ln - 2):ln])


def check_raw_array_new(path, raw, code):
    if not any(str(path.relative_to(REPO_ROOT)).startswith(d)
               for d in KERNEL_DIRS):
        return
    raw_lines = raw.splitlines()
    for m in re.finditer(r"\bnew\s+\w[\w:<>\s]*\[", code):
        ln = line_of(code, m.start())
        if nolint(raw_lines, ln, "focus-raw-new"):
            continue
        report(path, ln, "raw-array-new",
               "raw array new in kernel code; allocate through the tracked "
               "Tensor buffers (or annotate // NOLINT(focus-raw-new))")


def check_raw_float_new(path, raw, code):
    # The caching allocator is the single backing store for float buffers;
    # any other `new float[` bypasses recycling and raw-byte accounting.
    # Unlike raw-array-new there is no NOLINT escape hatch outside
    # allocator.cc — route the buffer through Allocator::Get().Allocate().
    if str(path.relative_to(REPO_ROOT)) == "src/tensor/allocator.cc":
        return
    for m in re.finditer(r"\bnew\s+float\s*\[", code):
        report(path, line_of(code, m.start()), "raw-float-new",
               "new float[] outside tensor/allocator.cc; obtain buffers via "
               "Allocator::Get().Allocate() so they are recycled and counted")


def check_perf_containment(path, raw, code):
    # perf_event_open has exactly one wrapper (obs/prof/perf_counters.cc):
    # it owns fd lifetime, multiplex scaling, and the degrade-to-zeroes
    # path. A second call site would fork that error handling, so raw
    # syscalls are banned outside src/obs/prof/ with no NOLINT escape.
    rel = str(path.relative_to(REPO_ROOT)).replace("\\", "/")
    if rel.startswith("src/obs/prof/"):
        return
    for m in re.finditer(r"\bperf_event_open\b|\bsyscall\s*\(", code):
        report(path, line_of(code, m.start()), "perf-containment",
               f"'{m.group(0).strip()}' outside src/obs/prof/; read hardware "
               "counters through obs::prof::PerfCounters")


def check_plan_containment(path, raw, code):
    # A SlabLease hands out one backing buffer that every plan temp
    # aliases at solver-chosen offsets. Outside the plan compiler there
    # is no lifetime information that could justify touching it, so any
    # other holder is a latent use-after-overwrite; no NOLINT escape.
    rel = str(path.relative_to(REPO_ROOT)).replace("\\", "/")
    if rel.startswith("src/plan/") or rel == "src/tensor/allocator.h":
        return
    for m in re.finditer(r"\bSlabLease\b", code):
        report(path, line_of(code, m.start()), "plan-containment",
               "SlabLease outside src/plan/; run against a compiled "
               "ExecutionPlan instead of holding slab memory directly")


def check_precision_containment(path, raw, code):
    # Float-width conversions round; int8 requantization rescales. Both
    # are deterministic only because exactly one implementation of each
    # exists (kernels.inc, both backends from one source). A raw
    # conversion intrinsic elsewhere — including the SSE/F16C ones the
    # _mm256 simd-containment pattern does not catch — would fork the
    # rounding, so they are confined to src/tensor/simd/ with no NOLINT
    # escape. dot_i8 (the only int8 kernel) additionally admits exactly
    # one product consumer: the ProtoAttn assignment path.
    rel = str(path.relative_to(REPO_ROOT)).replace("\\", "/")
    if rel.startswith("src/tensor/simd/"):
        return
    cvt = r"\b_mm\d*_cvt\w+|\b_mm_cvt\w+|\b_cvtss_sh\b|\b_cvtsh_ss\b"
    for m in re.finditer(cvt, code):
        report(path, line_of(code, m.start()), "precision-containment",
               f"conversion intrinsic '{m.group(0)}' outside "
               "src/tensor/simd/; add a kernel-table entry instead")
    if (rel == "src/core/proto_attn.cc" or rel.startswith("tests/")
            or rel.startswith("bench/")):
        return
    for m in re.finditer(r"\bdot_i8\b", code):
        report(path, line_of(code, m.start()), "precision-containment",
               "dot_i8 outside src/core/proto_attn.cc; the int8 requantize "
               "path has exactly one product consumer — go through "
               "ProtoAttn::AssignTokens")


def check_raw_getenv(path, raw, code):
    # Calls only: a declaration (`char* getenv(...)`) is preceded by its
    # return type, and a same-named function in another namespace
    # (`helpers::getenv`) is not the libc one.
    rel = str(path.relative_to(REPO_ROOT)).replace("\\", "/")
    if rel.startswith("src/utils/"):
        return
    raw_lines = raw.splitlines()
    for m in re.finditer(
            r"(?:\b(\w+)\s*::\s*|::\s*)?\b((?:secure_)?getenv)\s*\(", code):
        if m.group(1) not in (None, "std"):
            continue  # another namespace's getenv
        if re.search(r"\*\s*$", code[code.rfind("\n", 0, m.start()) + 1:
                                     m.start()]):
            continue  # `char* getenv(` declaration
        ln = line_of(code, m.start())
        if nolint(raw_lines, ln, "focus-raw-getenv"):
            continue
        report(path, ln, "raw-getenv",
               f"raw {m.group(2)}() outside src/utils/; use GetEnvOr / "
               "GetEnvIntInRangeOr (utils/env.h), or annotate "
               "// NOLINT(focus-raw-getenv)")


GUARD_TEMP_RE = re.compile(
    r"(?:^|(?<=[;{}]))\s*((?:\w+::)*(?:TraceSpan|InferenceModeGuard|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b(?:\s*<[^;{}()]*>)?)"
    r"\s*([({])")
# A parameter list names types: `const char* name`, `Options opts`,
# `const X&`. Call arguments do not end a piece in a declarator.
DECLARATOR_RE = re.compile(r"\w[\s*&]+\w+\s*(?:,|$)|[*&]\s*(?:,|$)")


def check_unnamed_raii(path, raw, code):
    for m in GUARD_TEMP_RE.finditer(code):
        open_idx = m.start(2)
        if code[open_idx] == "(":
            end = matching_paren_span(code, open_idx)
        else:
            end = code.find("}", open_idx) + 1
        if not code[end:].lstrip().startswith(";"):
            continue  # declaration with a body, member init list, etc.
        if DECLARATOR_RE.search(code[open_idx + 1:end - 1]):
            continue  # constructor declaration
        report(path, line_of(code, m.start(1)), "unnamed-raii",
               f"{m.group(1)} constructed as an unnamed temporary; it is "
               "destroyed at the ';' and guards nothing — bind it to a "
               "named local")


def check_simd_containment(path, raw, code):
    # Raw intrinsics anywhere else would fork the numerics: the determinism
    # contract holds because every vector kernel is compiled once from
    # src/tensor/simd and selected through simd::KernelTable. Like
    # raw-float-new, this rule has no NOLINT escape — add a kernel to the
    # table instead.
    rel = str(path.relative_to(REPO_ROOT)).replace("\\", "/")
    if rel.startswith("src/tensor/simd/"):
        return
    for m in re.finditer(r"#\s*include\s*[<\"]immintrin\.h[>\"]", code):
        report(path, line_of(code, m.start()), "simd-containment",
               "<immintrin.h> outside src/tensor/simd/; route vector code "
               "through simd::KernelTable")
    for m in re.finditer(r"\b_mm256\w*", code):
        report(path, line_of(code, m.start()), "simd-containment",
               f"intrinsic '{m.group(0)}' outside src/tensor/simd/; route "
               "vector code through simd::KernelTable")


def public_op_names():
    """Free functions declared in tensor/ops.h (the public op surface)."""
    header = strip_comments_and_strings(
        (REPO_ROOT / "src/tensor/ops.h").read_text())
    names = set()
    for m in re.finditer(r"^(?:Tensor|void|Shape)\s+(\w+)\(", header, re.M):
        names.add(m.group(1))
    # Declarations wrapped onto the previous line (return type alone).
    for m in re.finditer(r"^(?:Tensor|void|Shape)\n(\w+)\(", header, re.M):
        names.add(m.group(1))
    return names - {"operator"}


def check_op_entry_guard(path, raw, code, op_names):
    if not re.match(r"ops_\w+\.cc$", path.name):
        return
    for m in re.finditer(r"^(?:Tensor|void|Shape)\s+(\w+)\(", code, re.M):
        name = m.group(1)
        if name not in op_names:
            continue
        brace = code.find("{", m.end())
        if brace < 0:
            continue
        # The guard must appear in the opening statements of the body.
        head = code[brace:brace + 600]
        if not re.search(r"FOCUS_\w*CHECK", head):
            report(path, line_of(code, m.start()), "op-entry-guard",
                   f"public op '{name}' does not open with a FOCUS_CHECK "
                   "shape/rank/definedness validation")


# --- format rules ------------------------------------------------------------


def check_format(path, raw):
    lines = raw.split("\n")
    for i, line in enumerate(lines, 1):
        if line != line.rstrip():
            report(path, i, "trailing-space", "trailing whitespace")
        if "\t" in line:
            report(path, i, "tab-indent", "hard tab")
        if len(line) > MAX_LINE and "http" not in line and "#include" not in line:
            report(path, i, "long-line",
                   f"{len(line)} columns (limit {MAX_LINE})")
    if raw and not raw.endswith("\n"):
        report(path, len(lines), "final-newline", "missing final newline")
    elif raw.endswith("\n\n"):
        report(path, len(lines), "final-newline", "multiple final newlines")


# --- driver ------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rules", default="repo,format",
                        help="comma-separated rule families: repo,format")
    args = parser.parse_args()
    families = set(args.rules.split(","))
    unknown = families - {"repo", "format"}
    if unknown:
        parser.error(f"unknown rule families: {sorted(unknown)}")

    op_names = public_op_names() if "repo" in families else set()
    for path in cxx_sources():
        raw = path.read_text()
        if "repo" in families:
            code = strip_comments_and_strings(raw)
            check_flop_in_parallel(path, raw, code)
            check_raw_array_new(path, raw, code)
            check_raw_float_new(path, raw, code)
            check_perf_containment(path, raw, code)
            check_plan_containment(path, raw, code)
            check_precision_containment(path, raw, code)
            check_simd_containment(path, raw, code)
            check_raw_getenv(path, raw, code)
            check_unnamed_raii(path, raw, code)
            check_op_entry_guard(path, raw, code, op_names)
        if "format" in families:
            check_format(path, raw)

    if violations:
        print(f"focus_lint: {len(violations)} violation(s)", file=sys.stderr)
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"focus_lint: clean ({', '.join(sorted(families))})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
