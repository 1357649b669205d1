//! Allocation-count gates for the data-oriented step loop.
//!
//! A counting global allocator (thread-local counters, so parallel test
//! threads never pollute each other's measurements) pins two properties of
//! the hot path:
//!
//! 1. the reworked planning/memory/comms primitives — streaming memory
//!    retrieval into a reused buffer, point entity queries, prompt assembly
//!    via [`PromptWriter`], inference with a borrowed-prompt request, and
//!    prompt token counting (plain and incremental) — perform **zero** heap
//!    allocations at steady state (after warm-up);
//! 2. a full episode's allocation rate is **flat**: later steps do not
//!    allocate more than earlier ones, i.e. nothing on the step loop clones
//!    or re-formats ever-growing history.
//!
//! The allocator lives here (an integration test is its own crate) because
//! the library itself is `#![forbid(unsafe_code)]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use embodied_agents::config::MemoryCapacity;
use embodied_agents::modules::{MemoryModule, RecordKind};
use embodied_agents::prompt::PromptWriter;
use embodied_agents::{workloads, RunOverrides};
use embodied_env::TaskDifficulty;
use embodied_llm::{LlmEngine, LlmRequest, ModelProfile, PromptTokens, Purpose, Tokenizer};

/// Delegates everything to [`System`], bumping a thread-local counter on
/// each allocation (and reallocation — growth is an allocation for the
/// purposes of a zero-alloc gate). Deallocations are free and uncounted.
struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: pure delegation to `System`; the counter bump has no effect on
// layout or pointer validity. `try_with` never allocates for a const-init
// thread local and degrades to "uncounted" during TLS teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations observed by the current thread so far.
fn allocs() -> usize {
    ALLOCS.with(|c| c.get())
}

/// The steady-state planning path: retrieval streamed into a reused buffer,
/// a point `knows` query, prompt assembly into a second reused buffer, and
/// one inference call lending that buffer to the engine.
fn plan_once(
    mem: &MemoryModule,
    engine: &mut LlmEngine,
    memory_buf: &mut String,
    prompt_buf: &mut String,
) -> f64 {
    memory_buf.clear();
    let stats = mem.retrieve_write(memory_buf);
    let known = mem.knows("object_3");
    prompt_buf.clear();
    PromptWriter::new(prompt_buf, "You are an embodied agent.")
        .push("goal", "craft an iron pickaxe")
        .push("known", if known { "object_3" } else { "nothing" })
        .push("memory", memory_buf);
    let req = LlmRequest::new(Purpose::Planning, prompt_buf, 64).with_difficulty(0.4);
    let resp = engine.infer(req).expect("inference succeeds");
    resp.quality + stats.inconsistency_penalty
}

#[test]
fn steady_state_planning_path_is_allocation_free() {
    // A memory with real history: 64 records over 32 steps, sliding window.
    let landmarks = vec!["kitchen".to_string(), "forge".to_string()];
    let mut mem = MemoryModule::new(true, MemoryCapacity::Steps(8), true, true, landmarks);
    for step in 0..32 {
        mem.begin_step(step);
        mem.store(
            RecordKind::Observation,
            format!("saw object_{} near the forge", step % 10),
            vec![format!("object_{}", step % 10)],
        );
        mem.store(
            RecordKind::Action,
            format!("moved toward object_{}", step % 10),
            vec![format!("object_{}", step % 10)],
        );
    }
    let mut engine = LlmEngine::new(ModelProfile::gpt4_api(), 7);
    let mut memory_buf = String::new();
    let mut prompt_buf = String::new();

    // Warm-up: grows the reused buffers and the tokenizer's incremental
    // cache to their steady-state capacity.
    let mut acc = 0.0;
    for _ in 0..3 {
        acc += plan_once(&mem, &mut engine, &mut memory_buf, &mut prompt_buf);
    }

    let before = allocs();
    for _ in 0..100 {
        acc += plan_once(&mem, &mut engine, &mut memory_buf, &mut prompt_buf);
    }
    let after = allocs();
    assert!(acc.is_finite());
    assert_eq!(
        after - before,
        0,
        "steady-state planning path allocated {} times over 100 iterations",
        after - before
    );
}

#[test]
fn token_counting_is_allocation_free() {
    let tok = Tokenizer::default();
    let turns: Vec<String> = (0..48)
        .map(|i| {
            format!(
                "[step {i}] observation: agent_0 sees kitchen_counter with apple_{i} and pan\n\
                 [plan] decompose goal -> pick_up(apple) move_to(counter) place(pan)\n"
            )
        })
        .collect();
    let mut cache = PromptTokens::new();
    let mut prompt = String::new();
    // Warm-up: one full growth sizes the prompt buffer and the cache's text
    // and checkpoint list for every later episode of the same length.
    for turn in &turns {
        prompt.push_str(turn);
        tok.count_incremental(&mut cache, &prompt);
    }

    let before = allocs();
    let mut total = 0;
    for _ in 0..4 {
        prompt.clear();
        for turn in &turns {
            prompt.push_str(turn);
            let incremental = tok.count_incremental(&mut cache, &prompt);
            assert_eq!(incremental, tok.count(&prompt));
            total += incremental;
        }
    }
    let after = allocs();
    assert!(total > 0);
    assert_eq!(
        after - before,
        0,
        "steady-state token counting allocated {} times",
        after - before
    );
}

#[test]
fn episode_allocations_do_not_grow_with_history() {
    // Drive a long episode step by step and compare the allocation count of
    // an early window against a late one. If any hot-path component cloned
    // or re-formatted the full history each step, the late window would
    // allocate strictly more; a flat profile pins the data-oriented loop.
    let spec = workloads::find("DEPS").expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Hard),
        ..Default::default()
    };
    let config = overrides.apply(&spec);
    let mut sys = spec.build_system(&config, TaskDifficulty::Hard, 1, 42);

    const WARMUP: usize = 15;
    const WINDOW: usize = 30;
    for _ in 0..WARMUP {
        assert!(sys.step_once(), "episode ended during warm-up");
    }
    let start = allocs();
    for _ in 0..WINDOW {
        assert!(sys.step_once(), "episode ended during the early window");
    }
    let early = allocs() - start;
    let start = allocs();
    for _ in 0..WINDOW {
        assert!(sys.step_once(), "episode ended during the late window");
    }
    let late = allocs() - start;

    // The environment side legitimately allocates per step (new records,
    // candidate menus), so the gate is *flatness*, not zero: the late
    // window may not allocate more than the early one beyond a small
    // constant slack for amortized container growth.
    assert!(
        late <= early + early / 4 + 16,
        "allocation rate grows with history: early window {early}, late window {late}"
    );
}
