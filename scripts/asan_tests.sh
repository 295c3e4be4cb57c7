#!/usr/bin/env bash
# Builds the recovery / checkpoint / straggler test binaries under
# AddressSanitizer + UndefinedBehaviorSanitizer and runs them. The elastic
# paths tear clusters down mid-collective and re-adopt fault injectors
# across incarnations, so lifetime bugs (use-after-free of worker state,
# out-of-bounds shard math after a resize) show up here first; UBSan guards
# the wire-format arithmetic in the delta-checkpoint and histogram-
# compression codecs. The tree, model-I/O and edge-case binaries run the
# model decoder over crafted, truncated and bit-flipped streams, so every
# rejected stream is checked for out-of-bounds reads too. The threading,
# histogram-builder and trainer binaries run here as well, so
# LeakSanitizer sees the process-wide ParallelFor runtime shut down
# cleanly at exit. The build is Debug so that assertions compiled
# out under NDEBUG run too — among them the cluster-wide byte-symmetry
# check every AllReduceSum / AllGather / AllToAll makes of its accounting.
#
#   scripts/asan_tests.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -DVERO_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=Debug
cmake --build "$BUILD_DIR" --target \
  fault_tolerance_test elastic_recovery_test elasticity_test \
  checkpoint_rotation_test delta_checkpoint_test integrity_test \
  straggler_mitigation_test codec_test communicator_test \
  communicator_stress_test serve_test threading_test hist_builder_test \
  dist_trainer_test tree_test model_io_test edge_cases_test

export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
for t in fault_tolerance_test elastic_recovery_test elasticity_test \
         checkpoint_rotation_test delta_checkpoint_test integrity_test \
         straggler_mitigation_test codec_test communicator_test \
         communicator_stress_test serve_test threading_test \
         hist_builder_test dist_trainer_test tree_test model_io_test \
         edge_cases_test; do
  echo "== ASan/UBSan: $t =="
  "$BUILD_DIR/tests/$t"
done
echo "All ASan/UBSan test binaries passed."
