//! Criterion benchmarks of the per-step hot path: memory summarization at
//! growing record counts, known-entity assembly, a steady-state single-agent
//! episode, and an 8-agent decentralized episode with the serving layer on.
//!
//! These are the paths the data-oriented rework targets; `scripts/verify.sh
//! --bench` replays them in quick mode against a checked-in baseline.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use embodied_agents::modules::{MemoryModule, RecordKind};
use embodied_agents::{run_episode, workloads, MemoryCapacity, RunOverrides};
use embodied_env::TaskDifficulty;
use embodied_llm::ServingConfig;

/// A memory module filled with `n` records in steady state.
fn filled_memory(n: usize) -> MemoryModule {
    let landmarks = vec!["goal_zone".to_owned(), "room_0".to_owned()];
    let mut mem = MemoryModule::new(true, MemoryCapacity::Full, false, true, landmarks);
    for step in 0..n {
        mem.begin_step(step);
        mem.store(
            RecordKind::Observation,
            format!("saw object_{} near room_{}", step % 7, step % 3),
            vec![format!("object_{}", step % 7)],
        );
    }
    mem.begin_step(n);
    mem
}

fn bench_memory_summarize(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_summarize");
    for n in [10usize, 100, 1000] {
        let mem = filled_memory(n);
        let mut buf = String::new();
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                buf.clear();
                black_box(mem.retrieve_write(&mut buf))
            })
        });
    }
    group.finish();
}

fn bench_known_entities(c: &mut Criterion) {
    let mut group = c.benchmark_group("known_entities");
    for n in [10usize, 1000] {
        let mem = filled_memory(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(mem.knows("object_3")))
        });
    }
    group.finish();
}

fn bench_single_agent_episode(c: &mut Criterion) {
    let spec = workloads::find("DEPS").expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        ..Default::default()
    };
    let mut seed = 0u64;
    c.bench_function("single_agent_episode_step", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            run_episode(&spec, &overrides, seed)
        })
    });
}

fn bench_decentralized_serving_episode(c: &mut Criterion) {
    let spec = workloads::find("CoELA").expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        num_agents: Some(8),
        serving: Some(ServingConfig::batched()),
        ..Default::default()
    };
    let mut seed = 0u64;
    c.bench_function("decentralized_8agent_serving_step", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            run_episode(&spec, &overrides, seed)
        })
    });
}

criterion_group!(
    benches,
    bench_memory_summarize,
    bench_known_entities,
    bench_single_agent_episode,
    bench_decentralized_serving_episode
);
criterion_main!(benches);
