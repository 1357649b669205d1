#!/usr/bin/env bash
# Full verification gate: build, tests, formatting, lints.
# Run before every commit; CI runs the same sequence.
#
# Optional flags:
#   --bench   also run the perf smoke gate: a quick criterion pass over the
#             step loop plus `step_throughput --smoke`, which fails loudly if
#             single-worker throughput regresses more than 20% against the
#             checked-in baseline (crates/bench/baselines/step_throughput.json).
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    *) echo "verify.sh: unknown flag $arg" >&2; exit 2 ;;
  esac
done

echo "== cargo build --release =="
cargo build --release

echo "== cargo test =="
cargo test -q

echo "== cargo test (workspace) =="
cargo test -q --workspace

echo "== tokenizer kernel vs per-char reference + memory-window counts, release (no overflow checks) =="
cargo test --release -q -p embodied-llm --test tokenizer_props
cargo test --release -q -p embodied-llm --lib tokenizer
cargo test --release -q -p embodied-agents --lib memory

echo "== determinism table + fleet determinism (EMBODIED_JOBS=4) =="
EMBODIED_JOBS=4 cargo test --release -q -p embodied-bench --test determinism --test fleet_determinism

echo "== resilience integration tests =="
cargo test --release -q --test resilience --test fault_properties --test guardrail_properties

echo "== resilience_scalability --smoke (scratch dir; canonical results untouched) =="
cargo build --release -q -p embodied-bench --bin resilience_scalability
repo_root="$(pwd)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
(cd "$smoke_dir" && "$repo_root/target/release/resilience_scalability" --smoke > /dev/null)

echo "== guardrail_sweep --smoke (scratch dir; canonical results untouched) =="
cargo build --release -q -p embodied-bench --bin guardrail_sweep
(cd "$smoke_dir" && "$repo_root/target/release/guardrail_sweep" --smoke > /dev/null)

echo "== serving_sweep --smoke (scratch dir; canonical results untouched) =="
cargo build --release -q -p embodied-bench --bin serving_sweep
(cd "$smoke_dir" && "$repo_root/target/release/serving_sweep" --smoke > /dev/null)

echo "== slo_sweep --smoke (scratch dir; canonical results untouched) =="
cargo build --release -q -p embodied-bench --bin slo_sweep
(cd "$smoke_dir" && "$repo_root/target/release/slo_sweep" --smoke > /dev/null)

echo "== embodied_fault_sweep --smoke (scratch dir; canonical results untouched) =="
cargo build --release -q -p embodied-bench --bin embodied_fault_sweep
(cd "$smoke_dir" && "$repo_root/target/release/embodied_fault_sweep" --smoke > /dev/null)

echo "== contention_sweep --smoke (scratch dir; canonical results untouched) =="
cargo build --release -q -p embodied-bench --bin contention_sweep
(cd "$smoke_dir" && "$repo_root/target/release/contention_sweep" --smoke > /dev/null)

echo "== scenario_evolve --smoke (scratch dir; canonical results untouched) =="
cargo build --release -q -p embodied-bench --bin scenario_evolve
(cd "$smoke_dir" && "$repo_root/target/release/scenario_evolve" --smoke > /dev/null)

echo "== scenario regression fixtures + evolution properties =="
cargo test --release -q -p embodied-bench --test regression_scenarios --test scenario_evolution

echo "== bench_all --smoke (sequential vs parallel byte-identity) =="
cargo run --release -q -p embodied-bench --bin bench_all -- --smoke

echo "== perfbench build + self-tests (crate-API drift breaks the benchmark) =="
cargo build --release -q --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --manifest-path perfbench/Cargo.toml

if [ "$run_bench" -eq 1 ]; then
  echo "== bench smoke: criterion step_loop (quick mode) =="
  CRITERION_SHIM_ITERS=5 cargo bench -q -p embodied-bench --bench step_loop

  echo "== bench smoke: criterion event_queue (quick mode) =="
  CRITERION_SHIM_ITERS=5 cargo bench -q -p embodied-bench --bench event_queue

  echo "== bench smoke: step_throughput --smoke (±20% vs checked-in baseline) =="
  cargo build --release -q -p embodied-bench --bin step_throughput
  ./target/release/step_throughput --smoke
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "verify: all gates passed"
