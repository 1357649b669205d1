#!/usr/bin/env bash
# Regenerates every table/figure under results/ (see EXPERIMENTS.md).
# Knobs: EMBODIED_EPISODES (default 8), EMBODIED_SEED (default 42).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p embodied-bench

for bin in table1_paradigms table2_suite fig1_paradigms fig2_latency \
           fig3_sensitivity fig4_local_models fig5_memory fig6_tokens \
           rec_ablations design_ablations endtoend_analysis boxworld_grid; do
    echo "== $bin =="
    "./target/release/$bin" > /dev/null
done

# Fig. 7 sweeps 3 systems × 5 team sizes × 3 difficulties; fewer episodes
# keep it tractable.
echo "== fig7_scalability =="
EMBODIED_EPISODES="${EMBODIED_FIG7_EPISODES:-6}" ./target/release/fig7_scalability > /dev/null

# Fault/resilience sweep: 3 systems × 5 fault rates × 3 retry policies.
echo "== fault_sweep =="
EMBODIED_EPISODES="${EMBODIED_FAULT_EPISODES:-6}" ./target/release/fault_sweep > /dev/null

# Resilience scalability: 3 paradigm variants × 3 team sizes × 4 agent-fault
# rates, plus a channel-loss sweep.
echo "== resilience_scalability =="
EMBODIED_EPISODES="${EMBODIED_RESILIENCE_EPISODES:-6}" ./target/release/resilience_scalability > /dev/null

# Guardrail sweep: 3 systems × 4 repair policies × 4 semantic-fault rates.
echo "== guardrail_sweep =="
EMBODIED_EPISODES="${EMBODIED_GUARDRAIL_EPISODES:-6}" ./target/release/guardrail_sweep > /dev/null

# Serving sweep: batching × team size (standalone), contention × fleet size,
# and SLO policy × serving faults at fleet size 1 and at one fleet of all the
# episodes. Fleet cells run whole on one worker, so EMBODIED_JOBS schedules
# standalone episodes and whole fleets.
echo "== serving_sweep =="
EMBODIED_EPISODES="${EMBODIED_SERVING_EPISODES:-6}" ./target/release/serving_sweep > /dev/null

# Embodied fault sweep: 3 systems × 2 recovery policies × 9 perception ×
# actuation fault cells on the fifth (environment-interface) plane.
echo "== embodied_fault_sweep =="
EMBODIED_EPISODES="${EMBODIED_ENV_EPISODES:-8}" ./target/release/embodied_fault_sweep > /dev/null

# Adversarial scenario evolution: 4 paradigms × 7 evaluation rounds of a
# 12-genotype population. Sized by its own flags, not EMBODIED_EPISODES.
# Deliberately run WITHOUT --write-fixtures: the pinned fixtures under
# crates/bench/fixtures/scenarios/ are a regression suite and only move
# when the frontier is re-pinned on purpose (see EXPERIMENTS.md).
echo "== scenario_evolve =="
./target/release/scenario_evolve > /dev/null

echo "done — see results/*.md"
