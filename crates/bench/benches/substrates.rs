//! Criterion micro-benchmarks of the execution and model substrates: the
//! host-time cost of the real algorithms the simulation runs (A*, RRT, MLP,
//! grasp scoring, tokenization, memory retrieval, LLM engine bookkeeping).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use embodied_agents::config::MemoryCapacity;
use embodied_agents::modules::{MemoryModule, RecordKind};
use embodied_exec::{
    astar, plan_rrt, plan_rrt_connect, Cell, DenseGrid, GraspPlanner, GraspTarget, MlpPolicy,
    Point, RrtParams, Workspace,
};
use embodied_llm::{LlmEngine, LlmRequest, ModelProfile, Purpose, Tokenizer};

fn bench_astar(c: &mut Criterion) {
    let mut group = c.benchmark_group("astar");
    for size in [16i32, 32, 64] {
        let mut grid = DenseGrid::open(size, size);
        grid.block_vwall(size / 3, 0, size - 3);
        grid.block_vwall(2 * size / 3, 2, size - 1);
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                astar(
                    &grid,
                    black_box(Cell::new(0, 0)),
                    black_box(Cell::new(size - 1, size - 1)),
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_rrt(c: &mut Criterion) {
    let ws = Workspace::new(4.0, 4.0)
        .with_obstacle(Point::new(2.0, 2.0), 0.5)
        .with_obstacle(Point::new(1.0, 3.0), 0.3);
    let mut group = c.benchmark_group("rrt");
    for (label, params) in [
        ("rrt", RrtParams::default()),
        ("rrt_star", RrtParams::star()),
    ] {
        group.bench_function(label, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                plan_rrt(
                    &ws,
                    black_box(Point::new(0.2, 0.2)),
                    black_box(Point::new(3.8, 3.8)),
                    params,
                    seed,
                )
                .unwrap()
            })
        });
    }
    group.bench_function("rrt_connect", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed = seed.wrapping_add(1);
            plan_rrt_connect(
                &ws,
                black_box(Point::new(0.2, 0.2)),
                black_box(Point::new(3.8, 3.8)),
                RrtParams::default(),
                seed,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_mlp(c: &mut Criterion) {
    let policy = MlpPolicy::new(12, &[64, 64], 8, 7);
    let feats: Vec<f64> = (0..12).map(|i| (i as f64 * 0.3).sin()).collect();
    c.bench_function("mlp_forward", |b| b.iter(|| policy.act(black_box(&feats))));
}

fn bench_grasp(c: &mut Criterion) {
    c.bench_function("grasp_attempt", |b| {
        let mut planner = GraspPlanner::with_seed(3);
        b.iter(|| planner.attempt(black_box(GraspTarget::household())))
    });
}

fn bench_tokenizer(c: &mut Criterion) {
    let tok = Tokenizer::default();
    let prompt = "the agent transports the red apple from the kitchen counter \
                  to the dining table while avoiding the moving obstacles "
        .repeat(40);
    c.bench_function("tokenizer_count_4kb", |b| {
        b.iter(|| tok.count(black_box(&prompt)))
    });
}

fn bench_llm_engine(c: &mut Criterion) {
    c.bench_function("llm_engine_infer", |b| {
        let mut engine = LlmEngine::new(ModelProfile::gpt4_api(), 1);
        let prompt = "plan the next subgoal given the observation ".repeat(30);
        b.iter(|| {
            engine
                .infer(LlmRequest::new(Purpose::Planning, &prompt, 150))
                .unwrap()
        })
    });
}

fn bench_memory_retrieval(c: &mut Criterion) {
    let mut group = c.benchmark_group("memory_retrieval");
    for records in [16usize, 128, 512] {
        let mut memory = MemoryModule::new(
            true,
            MemoryCapacity::Full,
            false,
            false,
            vec!["room_0".into()],
        );
        for i in 0..records {
            memory.begin_step(i);
            memory.store(
                RecordKind::Observation,
                format!("observed entity_{i} near the corridor at step {i}"),
                vec![format!("entity_{i}")],
            );
        }
        let mut buf = String::new();
        group.bench_with_input(BenchmarkId::from_parameter(records), &records, |b, _| {
            b.iter(|| {
                buf.clear();
                memory.retrieve_write(&mut buf)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_astar,
    bench_rrt,
    bench_mlp,
    bench_grasp,
    bench_tokenizer,
    bench_llm_engine,
    bench_memory_retrieval
);
criterion_main!(benches);
