#!/usr/bin/env bash
# CI matrix: builds and tests the four supported configurations.
#
#   1. RelWithDebInfo          — the default developer build (DCHECKs off)
#   2. Debug + ASan/UBSan      — memory and UB errors, DCHECKs on; tested
#                                twice: pool on, then MFA_POOL=off so ASan
#                                sees raw (unrecycled) tensor allocations
#   3. Debug + TSan            — data races in parallel_for call sites
#   4. Debug fault injection   — MFA_FAULT_POINTs live + finite-grad guard
#                                on, so the crash/rollback recovery paths and
#                                every fault-gated test actually run
#
# The faults tree (Debug) is tested a second time with the storage
# sanitizer switched on (MFA_SANITIZE_STORAGE=on), which covers the
# golden-hash-with-sanitizer guarantee without adding a fifth build. The
# TSan tree similarly gets a second pass over the `soak` label with the
# storage sanitizer armed — the serving concurrency suite under both
# checkers at once.
#
# The release tree also runs the timing gates (ctest label `perf`, only
# listed under `-C Perf`, see tests/test_perf.cpp) once, serially.
#
# Each configuration gets its own build tree under build-ci/ so the matrix
# never contaminates the developer's ./build. Also runs scripts/lint.sh
# (clang-tidy gate + header self-containment) against the first
# configuration; the clang-tidy half skips with a warning when the binary
# is not installed.
#
# Usage: scripts/ci.sh [-jN]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:--j$(nproc)}"

# Prints the 10 slowest tests of a ctest run (from its JUnit export): the
# first place to look when a configuration's wall-time creeps up.
report_slowest() {
  local junit="$1" label="$2"
  [ -f "${junit}" ] || return 0
  JUNIT="${junit}" LABEL="${label}" python3 - <<'PY'
import os, xml.etree.ElementTree as ET

cases = []
for tc in ET.parse(os.environ["JUNIT"]).getroot().iter("testcase"):
    try:
        cases.append((float(tc.get("time", "0")), tc.get("name", "?")))
    except ValueError:
        pass
cases.sort(reverse=True)
print(f"--- [{os.environ['LABEL']}] 10 slowest tests ---")
for t, name in cases[:10]:
    print(f"  {t:8.2f}s  {name}")
PY
}

run_config() {
  local name="$1" build_type="$2" sanitize="$3"
  local dir="build-ci/${name}"
  echo "=== [${name}] configure (type=${build_type} sanitize=${sanitize:-none}) ==="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DMFA_SANITIZE="${sanitize}" >/dev/null
  echo "=== [${name}] build ==="
  cmake --build "${dir}" "${JOBS}"
  echo "=== [${name}] test ==="
  # halt_on_error: make TSan/ASan findings fail the run loudly.
  ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
  UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
  TSAN_OPTIONS="halt_on_error=1" \
  MFA_CHECK_FINITE_GRADS="${MFA_CI_FINITE_GRADS:-0}" \
  ctest --test-dir "${dir}" --output-on-failure "${JOBS}" \
    --output-junit ctest-junit.xml
  report_slowest "${dir}/ctest-junit.xml" "${name}"
}

run_config release RelWithDebInfo ""
echo "=== [release, perf] test ==="
ctest --test-dir build-ci/release --output-on-failure -C Perf -L perf
# Second release pass with the GEMM dispatch pinned to the scalar kernels:
# every SIMD-capable box also proves the portable fallback — the code path
# a non-x86 or pre-AVX2 host would run — end to end, including the golden
# pipeline hash.
echo "=== [release, MFA_SIMD=scalar] test ==="
MFA_SIMD=scalar \
ctest --test-dir build-ci/release --output-on-failure "${JOBS}" \
  --output-junit ctest-junit-scalar.xml
report_slowest build-ci/release/ctest-junit-scalar.xml "release, MFA_SIMD=scalar"
run_config asan    Debug          address
# Second ASan pass with the storage pool bypassed: recycling hides
# use-after-free from the poisoning/quarantine machinery (a stale pointer
# into a recycled block reads valid memory), so at least one sanitized
# config must see every tensor buffer as a raw heap allocation.
echo "=== [asan, MFA_POOL=off] test ==="
ASAN_OPTIONS="halt_on_error=1:detect_leaks=0" \
UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" \
MFA_POOL=off \
ctest --test-dir build-ci/asan --output-on-failure "${JOBS}" \
  --output-junit ctest-junit-pool-off.xml
report_slowest build-ci/asan/ctest-junit-pool-off.xml "asan, MFA_POOL=off"
run_config tsan    Debug          thread
# Soak slice under TSan with the storage sanitizer armed: the multi-client
# serve tests and the tape suite (label `soak`) re-run with
# redzones/generation checks live while TSan watches the queue/batch/swap
# handoffs and the backward closures' parallel_for chunks on 4 workers
# (test_tape's sanitizer stress case). Thread widths {1,4} are covered
# in-process by the ServeSoak parameterisation (ThreadPool::resize_for_testing),
# so one ctest pass sees both.
echo "=== [tsan, soak, MFA_SANITIZE_STORAGE=on] test ==="
TSAN_OPTIONS="halt_on_error=1" \
MFA_SANITIZE_STORAGE=on \
ctest --test-dir build-ci/tsan --output-on-failure "${JOBS}" -L soak \
  --output-junit ctest-junit-soak.xml
report_slowest build-ci/tsan/ctest-junit-soak.xml "tsan, soak, sanitize=on"
# Fault-injection job: plain Debug compiles MFA_FAULT_POINT live, and the
# finite-grad guard env default exercises the dirty-set NaN scan everywhere.
MFA_CI_FINITE_GRADS=1 run_config faults Debug ""
# Second pass on the faults tree with the storage sanitizer armed: every
# test (including the golden end-to-end hash) must pass with redzones,
# generation checks, and deterministic race detection live. This is the
# "clean pipeline reports zero violations" gate.
echo "=== [faults, MFA_SANITIZE_STORAGE=on] test ==="
MFA_SANITIZE_STORAGE=on \
ctest --test-dir build-ci/faults --output-on-failure "${JOBS}" \
  --output-junit ctest-junit-sanitize.xml
report_slowest build-ci/faults/ctest-junit-sanitize.xml "faults, sanitize=on"

echo "=== static analysis ==="
scripts/lint.sh build-ci/release

echo "ci.sh: all configurations passed."
