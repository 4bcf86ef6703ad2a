#!/usr/bin/env python3
"""Repo-specific hot-path invariant linter for the event-kernel layer.

The event simulator's correctness contract is not just "tests pass": the
integration/fire loops must stay allocation-free in steady state (the SimArena
is the only sanctioned scratch source), kernel math must go through the
ThresholdLut / LogPe lookup tables (a transcendental call inside a kernel
would both cost cycles and desync the quantized path from `cat::LogPe`), and
every kernel TU must compile with -ffp-contract=off (a fused mul-add would
diverge bitwise from the frozen reference simulator) and with its own
tier's ISA flags only (a vector instruction in the portable tier or the
dispatcher crashes a CPU without that ISA). This linter makes those
invariants CI-enforced:

  1. no heap-allocating calls (push_back, resize, new, make_unique, ...)
     inside a hot function body;
  2. no transcendental math calls (std::exp, std::log, std::pow, ...) inside
     a hot function body — std::ldexp is sanctioned (exact power-of-two
     scaling, no rounding);
  3. in compile_commands.json:
     a. every kernel TU (KERNEL_TIER_TUS) carries -ffp-contract=off as its
        effective contraction setting; the portable ones must be present,
        the vector tiers only in x86-64 TTFS_SIMD builds;
     b. AVX-512 flags appear on the AVX-512 tier's TU and nowhere else;
     c. the portable TUs (the portable tier and the dispatcher, kernels.cpp)
        carry no ISA flag at all (-m<isa>, -march=).

"Hot function" is decided by name (see HOT_NAME_RE): the integrate_*/fire_*
kernels, the axpy family and the tap_* span updates (the conv walk's per-row
tap, its whole-window add and its same-step run add) with the vector fire
helpers, in every lane width of every tier, the quantized
shift-add helpers, the fire-phase counting and bucketing, the pool_* grid
pooling (kernel and layer), and the simulator's membrane-format policy
hooks (member functions
defined in a struct body count like free functions). Driver functions
(run_event_sim*, trace assembly) fill the trace they are handed in place
and may grow its layer list and spike vectors (a reused trace allocates
only past the largest sample it has held), so they are deliberately not
hot.

Intentional exceptions are suppressed inline, one finding per line, with a
mandatory justification:

    out.spikes.resize(total);  // lint-hotpath: allow(alloc) trace output, ...

A suppression comment may sit on the offending line or alone on the line
above it. `allow(<category>)` without a justification is itself an error.

Token-level on purpose: no libclang dependency, so it runs anywhere python3
does. Comments and string literals are stripped before scanning; function
bodies are found by brace matching from `hotname(...) ... {`.

Usage:
    tools/lint_hotpath.py [--compile-db build/compile_commands.json]
    tools/lint_hotpath.py --self-test

Exit codes: 0 clean, 1 violations found, 2 setup/usage error.
"""

import argparse
import json
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The sources whose hot functions are linted, relative to the repo root:
# the dispatcher and quantized kernels, the shared walks, the float-kernel
# tier source every tier TU includes, and the simulator.
KERNEL_TUS = [
    "src/snn/kernels.cpp",
    "src/snn/kernels_impl.h",
    "src/snn/kernels_tier.inc",
    "src/snn/event_sim.cpp",
    "src/snn/quant.cpp",
]

# The kernel TUs in the compilation database and their tier: "portable"
# TUs must exist in every build and carry no ISA flag; "avx2"/"avx512" exist
# only in x86-64 TTFS_SIMD builds. All of them need -ffp-contract=off.
KERNEL_TIER_TUS = {
    "src/snn/kernels.cpp": "portable",
    "src/snn/kernels_portable.cpp": "portable",
    "src/snn/kernels_avx2.cpp": "avx2",
    "src/snn/kernels_avx512.cpp": "avx512",
}

# Flags that let the compiler emit instructions past the baseline ISA.
ISA_FLAG_RE = re.compile(
    r"^-m(?:arch=|cpu=|avx|sse|ssse|fma|f16c|bmi|lzcnt|popcnt|aes|pclmul|movbe"
    r"|adx|sha|gfni|vaes|vpclmulqdq|amx|xop|tbm)")
# Flags that enable AVX-512 instructions.
AVX512_FLAG_RE = re.compile(r"^-m(?:avx512|avx10)")

# A function definition whose name matches is a hot region.
# The membrane-format policy hooks of event_sim.cpp (acc_buffer, load_bias,
# integrate_conv/_fc, fire_steps, to_logit, layer_params) are hot too: the
# driver calls them per layer, per split range or per membrane.
HOT_NAME_RE = re.compile(
    r"^(?:integrate_\w+|fire_\w+|axpy\w*|tap_\w+|count_below|as_steps|store_steps"
    r"|run_cols|bucket_of|count_buckets"
    r"|scatter_buckets|pool_\w+|broadcast_rows\w*|quant_product|quant_add|quant_span_add"
    r"|fill_quant_table"
    r"|acc_buffer|load_bias|to_logit|layer_params)$"
)

# Heap-allocation (or growth) calls banned inside hot regions.
ALLOC_CALLS = {
    "push_back", "emplace_back", "emplace", "resize", "reserve", "insert",
    "make_unique", "make_shared", "malloc", "calloc", "realloc", "strdup",
}

# Transcendental/rounding libm calls banned inside hot regions. ldexp/frexp
# are deliberately absent: they scale by exact powers of two.
MATH_CALLS = {
    "exp", "expf", "expl", "exp2", "exp2f", "exp10", "expm1",
    "log", "logf", "logl", "log2", "log2f", "log10", "log1p",
    "pow", "powf", "powl", "sqrt", "sqrtf", "cbrt", "hypot",
    "sin", "sinf", "cos", "cosf", "tan", "tanf",
    "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "tanhf", "asinh", "acosh", "atanh",
    "erf", "erfc", "tgamma", "lgamma",
}

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
SUPPRESS_RE = re.compile(r"lint-hotpath:\s*allow\((alloc|math)\)\s*(.*)")


class Violation:
    def __init__(self, path, line, category, message):
        self.path = path
        self.line = line
        self.category = category
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.category}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines so
    offsets and line numbers stay valid."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                if i < n and text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def collect_suppressions(raw_text):
    """Maps line number -> (category, justification_ok). A suppression on a
    code line blesses that line; a comment-only suppression blesses the next
    code line (comment continuations and blank lines are skipped over)."""
    suppressions = {}
    lines = raw_text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = SUPPRESS_RE.search(line)
        if m is None:
            continue
        category, justification = m.group(1), m.group(2).strip()
        target = lineno
        if line.lstrip().startswith("//"):
            target = lineno + 1
            while target <= len(lines):
                nxt = lines[target - 1].lstrip()
                if nxt and not nxt.startswith("//"):
                    break
                target += 1
        suppressions.setdefault(target, []).append(
            (category, bool(justification), lineno))
    return suppressions


def match_paren(text, open_pos):
    """Index just past the parenthesis group opening at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        elif text[i] in "{};":
            return -1  # ill-formed / not a parameter list
    return -1


def match_brace(text, open_pos):
    """Index of the brace closing the block opening at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def find_hot_regions(stripped):
    """Yields (name, body_start, body_end) for every hot function definition:
    a HOT_NAME_RE identifier, its parameter list, optional qualifiers, then a
    brace-matched body."""
    regions = []
    for m in IDENT_RE.finditer(stripped):
        name = m.group(0)
        if not HOT_NAME_RE.match(name):
            continue
        i = m.end()
        while i < len(stripped) and stripped[i].isspace():
            i += 1
        if i >= len(stripped) or stripped[i] != "(":
            continue
        i = match_paren(stripped, i)
        if i < 0:
            continue
        # Skip trailing qualifiers (const, noexcept, attribute macros with
        # their own parens) up to the body brace; any terminator char means
        # this was a call or declaration, not a definition.
        while i < len(stripped):
            c = stripped[i]
            if c.isspace():
                i += 1
            elif c == "{":
                end = match_brace(stripped, i)
                if end > 0:
                    regions.append((name, i, end))
                break
            elif c == "(":
                i = match_paren(stripped, i)
                if i < 0:
                    break
            elif IDENT_RE.match(c):
                im = IDENT_RE.match(stripped, i)
                i = im.end()
            else:
                break  # ';', ',', '=', ':' ... => not a definition
        # fallthrough: next candidate
    return regions


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def scan_source(path, raw_text):
    """Returns the list of Violations in one translation unit."""
    stripped = strip_comments_and_strings(raw_text)
    suppressions = collect_suppressions(raw_text)
    used_suppressions = set()
    violations = []

    def suppressed(lineno, category):
        for idx, (cat, has_why, at_line) in enumerate(suppressions.get(lineno, [])):
            if cat != category:
                continue
            used_suppressions.add((lineno, idx))
            if not has_why:
                violations.append(Violation(
                    path, at_line, category,
                    "suppression without a justification -- say why this "
                    "allocation/call is sanctioned"))
            return True
        return False

    for name, start, end in find_hot_regions(stripped):
        body = stripped[start:end]
        for m in IDENT_RE.finditer(body):
            ident = m.group(0)
            pos = start + m.end()
            while pos < end and stripped[pos].isspace():
                pos += 1
            is_call = pos < end and stripped[pos] == "("
            lineno = line_of(stripped, start + m.start())
            if ident == "new":
                if not suppressed(lineno, "alloc"):
                    violations.append(Violation(
                        path, lineno, "alloc",
                        f"operator new inside hot function '{name}' -- use the "
                        "SimArena scratch buffers"))
            elif ident in ALLOC_CALLS and is_call:
                if not suppressed(lineno, "alloc"):
                    violations.append(Violation(
                        path, lineno, "alloc",
                        f"heap-allocating call '{ident}' inside hot function "
                        f"'{name}' -- use the SimArena scratch buffers"))
            elif ident in MATH_CALLS and is_call:
                if not suppressed(lineno, "math"):
                    violations.append(Violation(
                        path, lineno, "math",
                        f"transcendental call '{ident}' inside hot function "
                        f"'{name}' -- kernel math goes through the "
                        "ThresholdLut/LogPe tables"))
    return violations


def entry_args(entry):
    if "arguments" in entry:
        return list(entry["arguments"])
    return entry.get("command", "").split()


def check_compile_db(db_path, tier_tus=None):
    """Verifies the kernel TUs' effective -ffp-contract is 'off', that AVX-512
    flags sit on the AVX-512 tier only, and that the portable TUs carry no
    ISA flag."""
    tier_tus = KERNEL_TIER_TUS if tier_tus is None else tier_tus
    violations = []
    try:
        with open(db_path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as err:
        return [Violation(db_path, 0, "contract",
                          f"cannot read compilation database: {err}")]
    found = set()
    for entry in entries:
        file_path = entry.get("file", "").replace("\\", "/")
        args = entry_args(entry)
        tu = next((rel for rel in tier_tus if file_path.endswith(rel)), None)
        tier = tier_tus.get(tu)
        for arg in args:
            if AVX512_FLAG_RE.match(arg) and tier != "avx512":
                violations.append(Violation(
                    file_path, 0, "isa",
                    f"{arg} outside the AVX-512 kernel tier (a CPU without "
                    "AVX-512 would run that code and crash)"))
        if tu is None:
            continue
        found.add(tu)
        effective = None
        for arg in args:
            if arg.startswith("-ffp-contract="):
                effective = arg.split("=", 1)[1]
        if effective != "off":
            violations.append(Violation(
                file_path, 0, "contract",
                f"kernel TU compiled with -ffp-contract={effective or '<default>'} "
                "(must be 'off': FMA contraction diverges bitwise from the "
                "frozen reference)"))
        if tier == "portable":
            for arg in args:
                if ISA_FLAG_RE.match(arg):
                    violations.append(Violation(
                        file_path, 0, "isa",
                        f"portable kernel TU compiled with {arg} (it must run "
                        "on any CPU; vector code belongs in a tier TU)"))
    for tu, tier in tier_tus.items():
        if tier == "portable" and tu not in found:
            violations.append(Violation(
                db_path, 0, "contract",
                f"no compilation-database entry for {tu}"))
    return violations


def run_lint(repo_root, compile_db, check_db=True):
    violations = []
    for rel in KERNEL_TUS:
        path = os.path.join(repo_root, rel)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as err:
            violations.append(Violation(rel, 0, "setup", str(err)))
            continue
        violations.extend(scan_source(rel, raw))
    if check_db:
        violations.extend(check_compile_db(compile_db))
    return violations


# --------------------------------------------------------------------------
# Self-test: prove the linter actually fails on injected violations.

CLEAN_FIXTURE = """
#include <cmath>
#include <vector>
namespace fix {
// hot: allocation-free, LUT-only
void integrate_fixture(const float* w, float* acc, long n) {
  for (long i = 0; i < n; ++i) acc[i] += w[i];
}
int fire_fixture(const int* lut, float v) {
  return lut[static_cast<int>(v)];
}
// hot: a format-policy member hook
struct FixtureFormat {
  const float* lut;
  float to_logit(int acc) const { return lut[acc]; }
};
// cold driver: may allocate, may even call exp
std::vector<float> run_fixture(const float* w, long n) {
  std::vector<float> out;
  out.reserve(static_cast<unsigned long>(n));
  for (long i = 0; i < n; ++i) out.push_back(std::exp(w[i]));
  return out;
}
}  // namespace fix
"""

INJECT_ALLOC = "void integrate_fixture(const float* w, float* acc, long n) {\n  std::vector<int> scratch; scratch.push_back(1);"
INJECT_MATH = "void integrate_fixture(const float* w, float* acc, long n) {\n  acc[0] = std::exp(w[0]);"
INJECT_SUPPRESSED = ("void integrate_fixture(const float* w, float* acc, long n) {\n"
                     "  std::vector<int> s;\n"
                     "  s.resize(1);  // lint-hotpath: allow(alloc) fixture: output buffer\n")
INJECT_BARE_ALLOW = ("void integrate_fixture(const float* w, float* acc, long n) {\n"
                     "  std::vector<int> s;\n"
                     "  s.resize(1);  // lint-hotpath: allow(alloc)\n")


def self_test():
    failures = []

    def expect(label, violations, want_categories):
        got = sorted({v.category for v in violations})
        if got != sorted(want_categories):
            failures.append(f"{label}: want categories {want_categories}, got "
                            f"{[str(v) for v in violations]}")

    expect("clean fixture", scan_source("fixture.cpp", CLEAN_FIXTURE), [])
    expect("injected push_back",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "void integrate_fixture(const float* w, float* acc, long n) {",
                           INJECT_ALLOC)),
           ["alloc"])
    expect("injected std::exp",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "void integrate_fixture(const float* w, float* acc, long n) {",
                           INJECT_MATH)),
           ["math"])
    expect("justified suppression",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "void integrate_fixture(const float* w, float* acc, long n) {",
                           INJECT_SUPPRESSED)),
           [])
    expect("suppression without justification",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "void integrate_fixture(const float* w, float* acc, long n) {",
                           INJECT_BARE_ALLOW)),
           ["alloc"])

    expect("push_back injected into a struct member hook",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "float to_logit(int acc) const {",
                           "float to_logit(int acc) const {\n"
                           "    std::vector<float> v; v.push_back(lut[acc]);")),
           ["alloc"])

    # The real kernel TUs must scan clean (the CI gate's steady state).
    for rel in KERNEL_TUS:
        path = os.path.join(REPO_ROOT, rel)
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        expect(f"repo TU {rel}", scan_source(rel, raw), [])

    # And injecting a push_back into a real hot function must fail.
    with open(os.path.join(REPO_ROOT, "src/snn/kernels.cpp"), "r",
              encoding="utf-8") as fh:
        kernels = fh.read()
    anchor = "void broadcast_rows(T* acc, std::int64_t rows, std::int64_t stride) {"
    if anchor not in kernels:
        failures.append("kernels.cpp anchor for injection test not found")
    else:
        expect("push_back injected into kernels.cpp",
               scan_source("src/snn/kernels.cpp",
                           kernels.replace(
                               anchor,
                               anchor + "\n  std::vector<float> v; v.push_back(0.0F);")),
               ["alloc"])

    # ... and so must one into each body of the float-kernel tiers, the
    # 16-lane ones included, and into the shared conv walk.
    with open(os.path.join(REPO_ROOT, "src/snn/kernels_tier.inc"), "r",
              encoding="utf-8") as fh:
        tier = fh.read()
    with open(os.path.join(REPO_ROOT, "src/snn/kernels_impl.h"), "r",
              encoding="utf-8") as fh:
        walk = fh.read()
    for rel, text, label, anchor in [
            ("src/snn/kernels_tier.inc", tier, "span add",
             "inline void axpy_tier(float* acc, const float* w, float v, std::int64_t n) {"),
            ("src/snn/kernels_tier.inc", tier, "window hook",
             "inline void tap_window(float* acc, std::int64_t acc_step, const float* w, "
             "float v) {"),
            ("src/snn/kernels_tier.inc", tier, "run add",
             "inline void tap_run(float* acc, std::int64_t acc_step, const float* w, "
             "std::uint32_t rows,"),
            ("src/snn/kernels_tier.inc", tier, "16-lane fire",
             "inline __m512i count_below(__m512i count, __m512 u, __m512 level) {"),
            ("src/snn/kernels_tier.inc", tier, "pool pixel",
             "inline void pool_pixel(const int* src, std::int64_t row, std::int64_t ps, "
             "std::int64_t kernel,"),
            ("src/snn/kernels_impl.h", walk, "conv walk",
             "std::int64_t integrate_conv_walk(const ConvGeom& g, const W* w, "
             "const Spike* spikes,"),
            ("src/snn/kernels.cpp", kernels, "pool kernel",
             "void pool_steps(const StepGrid& in, std::int64_t kernel, "
             "std::int64_t stride, int* out) {")]:
        if anchor not in text:
            failures.append(f"{rel} {label} anchor for injection test not found")
            continue
        body = text.index(") {\n", text.index(anchor)) + 3
        expect(f"push_back injected into the {rel} {label}",
               scan_source(rel, text[:body] + "\n  std::vector<float> v; v.push_back(0.0F);"
                           + text[body:]),
               ["alloc"])

    # ... and so must one into a real format-policy member hook.
    with open(os.path.join(REPO_ROOT, "src/snn/event_sim.cpp"), "r",
              encoding="utf-8") as fh:
        event_sim = fh.read()
    hook = "static float to_logit(float acc) {"
    if hook not in event_sim:
        failures.append("event_sim.cpp policy-hook anchor for injection test not found")
    else:
        expect("push_back injected into an event_sim.cpp policy hook",
               scan_source("src/snn/event_sim.cpp",
                           event_sim.replace(
                               hook, hook + "\n    std::vector<float> v; v.push_back(acc);")),
               ["alloc"])

    # Compile-db checks. A db in which every kernel TU has `flags` plus its
    # tier's ISA flags; `extra` maps a TU to flags appended to its entry.
    tier_flags = {"portable": "", "avx2": "-mavx2 -mfma", "avx512": "-mavx512f"}

    def fake_db(flags, extra=None, tus=None):
        extra = extra or {}
        entries = []
        for rel in (tus or list(KERNEL_TIER_TUS) + ["src/serve/server.cpp"]):
            tier = KERNEL_TIER_TUS.get(rel, "portable")
            args = f"{flags} {tier_flags[tier]} {extra.get(rel, '')}"
            if rel not in KERNEL_TIER_TUS:
                args = extra.get(rel, "-O2")
            entries.append({"directory": "/tmp", "file": f"/repo/{rel}",
                            "command": f"g++ {args} -c /repo/{rel}"})
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(entries, fh)
        return path

    def expect_db(label, path, want):
        try:
            expect(label, check_compile_db(path), want)
        finally:
            os.unlink(path)

    # Contraction: -ffp-contract=fast (or missing) on any kernel TU fails;
    # =off passes, even after =fast earlier on the line.
    for flags, want in [("-O2 -ffp-contract=off", []),
                        ("-O2 -ffp-contract=fast", ["contract"]),
                        ("-O2", ["contract"]),
                        ("-ffp-contract=fast -ffp-contract=off", []),
                        ("-ffp-contract=off -ffp-contract=fast", ["contract"])]:
        expect_db(f"compile db [{flags}]", fake_db(flags), want)
    expect_db("AVX2 tier without -ffp-contract=off",
              fake_db("-O2 -ffp-contract=off",
                      {"src/snn/kernels_avx2.cpp": "-ffp-contract=fast"}),
              ["contract"])
    expect_db("missing portable-tier entry",
              fake_db("-ffp-contract=off", tus=["src/snn/kernels.cpp"]), ["contract"])
    # A TTFS_SIMD=OFF build compiles no vector tier: that is clean.
    expect_db("portable TUs only",
              fake_db("-ffp-contract=off",
                      tus=["src/snn/kernels.cpp", "src/snn/kernels_portable.cpp"]), [])
    # AVX-512 flags on any TU but the AVX-512 tier fail.
    for rel in ["src/snn/kernels_avx2.cpp", "src/snn/kernels_portable.cpp",
                "src/serve/server.cpp"]:
        expect_db(f"-mavx512f on {rel}",
                  fake_db("-ffp-contract=off", {rel: "-mavx512f"}), ["isa"])
    expect_db("-mavx512bw on the AVX-512 tier",
              fake_db("-ffp-contract=off", {"src/snn/kernels_avx512.cpp": "-mavx512bw"}), [])
    # Any ISA flag on a portable TU fails.
    for rel, flag in [("src/snn/kernels_portable.cpp", "-mavx2"),
                      ("src/snn/kernels.cpp", "-msse4.2"),
                      ("src/snn/kernels.cpp", "-march=native")]:
        expect_db(f"{flag} on {rel}", fake_db("-ffp-contract=off", {rel: flag}), ["isa"])
    expect_db("-m64 -mtune=generic on the portable tier",
              fake_db("-ffp-contract=off",
                      {"src/snn/kernels_portable.cpp": "-m64 -mtune=generic"}), [])

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print("lint_hotpath self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compile-db",
                        default=os.path.join(REPO_ROOT, "compile_commands.json"),
                        help="compilation database for the -ffp-contract check "
                             "(default: <repo>/compile_commands.json symlink)")
    parser.add_argument("--skip-compile-db", action="store_true",
                        help="lint sources only (no configured build tree)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own violation-injection tests")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = run_lint(REPO_ROOT, args.compile_db,
                          check_db=not args.skip_compile_db)
    real = [v for v in violations if v.category != "setup"]
    setup = [v for v in violations if v.category == "setup"]
    for v in setup:
        print(str(v), file=sys.stderr)
    if setup:
        return 2
    for v in real:
        print(str(v), file=sys.stderr)
    if real:
        print(f"lint_hotpath: {len(real)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_hotpath: OK ({len(KERNEL_TUS)} TUs"
          f"{'' if args.skip_compile_db else ' + compile db'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
