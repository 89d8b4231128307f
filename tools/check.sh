#!/usr/bin/env bash
# CI-style gate: configure + build + sanitized tests (the whole-tree lint
# run among them) + SARIF validation in one command.
#
#   tools/check.sh                 # ubsan-asan preset (the default gate)
#   tools/check.sh asan            # any preset from CMakePresets.json
#   tools/check.sh tsan
#   tools/check.sh --metrics       # additionally smoke the BENCH_*.json path
#   tools/check.sh --bench         # additionally run the gated benches
#                                  # (bench_table1 x11 + wl, bench_hotpath,
#                                  # bench_audit, bench_fleet --quick;
#                                  # bench_lint) from the plain default-preset
#                                  # build, the repository benchmark smoke
#                                  # (perfbench/run.py --self-test), and then
#                                  # bench_gate over every BENCH_*.json
#   JOBS=4 tools/check.sh          # override parallelism
#
# --metrics and --bench combine, in any order, before the preset name.
# Exits nonzero on the first failing stage. clang-tidy runs only when the
# binary is installed (the container image does not ship it).
set -euo pipefail

cd "$(dirname "$0")/.."

METRICS=0
BENCH=0
while [ $# -gt 0 ]; do
  case "$1" in
    --metrics) METRICS=1; shift ;;
    --bench)   BENCH=1; shift ;;
    *) break ;;
  esac
done

PRESET="${1:-ubsan-asan}"
JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="build-${PRESET}"
[ "$PRESET" = "default" ] && BUILD_DIR="build"

step() { printf '\n=== %s ===\n' "$*"; }

step "configure (preset: $PRESET)"
cmake --preset "$PRESET"

step "build"
cmake --build --preset "$PRESET" -j "$JOBS"

# The full suite includes lint.tree, the one whole-tree overhaul-lint run
# (mediation + concurrency + domain invariants R1-R13), which also writes
# $BUILD_DIR/overhaul_lint.sarif, and the analyzer's own unit suites.
step "ctest (preset: $PRESET)"
rm -f "$BUILD_DIR/overhaul_lint.sarif"
ctest --preset "$PRESET" -j "$JOBS"

step "lint.tree SARIF (strict JSON + R8-R13 rule metadata)"
"./$BUILD_DIR/tools/obs/json_check" "$BUILD_DIR/overhaul_lint.sarif"
# The SARIF must carry the concurrency and domain rule metadata — a
# regression that silently drops R8-R13 would otherwise pass the
# clean-tree run.
for rule in R8 R9 R10 R11 R12 R13; do
  grep -q "\"id\":\"$rule\"" "$BUILD_DIR/overhaul_lint.sarif" || {
    echo "missing rule $rule in overhaul_lint.sarif" >&2; exit 1; }
done

# The parallel engine's race gate: the fleet + simulation-core batteries
# (whose tests spawn up to 8-lane worker pools) rebuilt and re-run under
# ThreadSanitizer. Skipped when this whole run already uses the tsan preset.
if [ "$PRESET" != "tsan" ]; then
  step "tsan engine battery (fleet.* + sim.* under ThreadSanitizer)"
  cmake --preset tsan >/dev/null
  cmake --build build-tsan -j "$JOBS" --target fleet_test sim_test
  (cd build-tsan && ctest -R '^(fleet|sim)\.' --output-on-failure -j "$JOBS")
fi

if [ "$METRICS" = 1 ]; then
  step "metrics smoke (bench_table1 --quick + strict JSON validation)"
  (cd "$BUILD_DIR" && ./bench/bench_table1 --quick >/dev/null &&
    ./tools/obs/json_check BENCH_table1.json)
fi

if [ "$BENCH" = 1 ]; then
  # The benches always run from the plain default-preset build, so their
  # stamp {build_type, sanitize, hardware_lanes} matches the baseline's.
  if [ "$PRESET" != "default" ]; then
    step "build (preset: default, for the benches)"
    cmake --preset default >/dev/null
    cmake --build --preset default -j "$JOBS" --target bench_table1 \
      bench_hotpath bench_audit bench_lint bench_fleet bench_gate json_check
  fi

  # Each bench times its arms with bench/sampler.h and writes BENCH_<name>.json
  # before it exits; it exits nonzero only on a correctness check (stream
  # mismatch, determinism, rollup, warm reparse). Stale reports go first, so
  # a bench that wrote nothing shows up as a missing file at the gate.
  step "benches (table1 x11 + wl, hotpath, audit, fleet --quick; lint)"
  (cd build && rm -f BENCH_*.json &&
    ./bench/bench_table1 --quick >/dev/null &&
    ./bench/bench_table1 --quick --backend=wl >/dev/null &&
    ./bench/bench_hotpath --quick >/dev/null &&
    ./bench/bench_audit --quick >/dev/null &&
    ./bench/bench_lint >/dev/null &&
    ./bench/bench_fleet --quick >/dev/null &&
    for f in BENCH_*.json; do ./tools/obs/json_check "$f" || exit 1; done)

  # The repository benchmark (BENCHMARK.json, perfbench/): builds into
  # .bench_build/ and runs every workload briefly, untraced and traced; each
  # result line must parse, be correct, and name every declared metric.
  step "perfbench --self-test (repository benchmark smoke)"
  python3 perfbench/run.py --self-test

  # One verdict rule for every gated key: PASS when its whole 95 % interval
  # is on the good side of the limit, FAIL when it is wholly on the bad
  # side, UNRESOLVED otherwise. Tighten limits with --update on the
  # reference machine; the tool never loosens one.
  step "bench_gate (every gated key vs tools/bench_baseline.json)"
  (cd build &&
    ./tools/obs/bench_gate --baseline=../tools/bench_baseline.json BENCH_*.json)
fi

if command -v clang-tidy >/dev/null 2>&1; then
  step "clang-tidy (src/ + tools/)"
  # The preset build dirs carry compile_commands.json when the generator
  # supports it; fall back to a plain include flag otherwise.
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    git ls-files 'src/*.cpp' 'tools/*.cpp' |
      xargs clang-tidy -p "$BUILD_DIR" --quiet
  else
    git ls-files 'src/*.cpp' 'tools/*.cpp' |
      xargs clang-tidy --quiet -- -std=c++20 -Isrc -Itools/lint
  fi
else
  step "clang-tidy not installed — skipping (config: .clang-tidy)"
fi

step "all checks passed"
