//! Criterion benchmarks of the virtual-time event core: push/pop churn and
//! peek on the typed event queue at 10^3–10^5 pending events.
//!
//! The fleet runner keeps one `EventQueue` hot for the whole run — every
//! episode arrival, step and window close goes through it — so its heap
//! operations sit on the contention sweep's critical path.
//! `scripts/verify.sh --bench` replays these in quick mode.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use embodied_llm::{EventQueue, SimEvent};
use embodied_profiler::SimInstant;

/// Deterministic pseudo-random event times without pulling in an RNG dep:
/// splitmix64 over the event index.
fn pseudo_time(i: u64) -> SimInstant {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Bound the instant so additions never overflow the micros clock.
    SimInstant::EPOCH + embodied_profiler::SimDuration::from_micros(z % 1_000_000_000)
}

fn event_for(i: u64) -> SimEvent {
    match i % 3 {
        0 => SimEvent::RequestArrival {
            episode: i as usize % 64,
        },
        1 => SimEvent::AgentStepReady {
            episode: i as usize % 64,
        },
        _ => SimEvent::BatchWindowClose,
    }
}

/// A queue pre-filled with `n` pseudo-randomly timed events.
fn filled_queue(n: u64) -> EventQueue {
    let mut q = EventQueue::new();
    for i in 0..n {
        q.push(pseudo_time(i), event_for(i));
    }
    q
}

fn bench_push_pop_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_push_pop");
    for n in [1_000u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let base = filled_queue(n);
            b.iter(|| {
                // Steady-state churn at depth n: one pop, one push — the
                // fleet loop's per-event cost.
                let mut q = base.clone();
                for i in 0..64u64 {
                    let ev = q.pop().expect("queue holds n events");
                    q.push(pseudo_time(n + i), event_for(n + i));
                    black_box(ev);
                }
                q.len()
            })
        });
    }
    group.finish();
}

fn bench_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_drain");
    for n in [1_000u64, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let base = filled_queue(n);
            b.iter(|| {
                let mut q = base.clone();
                let mut count = 0u64;
                while let Some(ev) = q.pop() {
                    count += 1;
                    black_box(ev);
                }
                count
            })
        });
    }
    group.finish();
}

fn bench_peek(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue_peek");
    for n in [1_000u64, 100_000] {
        let q = filled_queue(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(q.peek_at()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_push_pop_churn, bench_drain, bench_peek);
criterion_main!(benches);
