//! Tokenizer hot-path benchmarks: full recount per step vs. counting each
//! appended turn once over a growing Fig. 6-shaped prompt, and the memoized
//! BPE word counter. Counting each turn where it is written (as the prompt
//! writers and the memory window do) costs the appended text per step, so
//! the total grows linearly in steps; a full recount per step is quadratic
//! in the conversation length. The prompt is benched twice: all-ASCII (the
//! word-parallel kernel, as the suite's prompts are) and with one emoji per
//! turn (its blocks take the per-char fallback).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use embodied_llm::{BpeTokenizer, Tokenizer};

/// One Fig. 6-style dialogue turn: observation, memory recall, plan.
fn turn(i: usize, item: &str) -> String {
    format!(
        "[step {i}] observation: agent_0 sees kitchen counter with {item} and pan\n\
         [memory] recalled: cabinet_2 already searched, fridge open\n\
         [plan] decompose goal -> pick_up(apple) move_to(counter) place(pan)\n"
    )
}

fn bench_growing_prompt(c: &mut Criterion) {
    let tok = Tokenizer::default();
    for (text, item) in [("ascii", "apple_3"), ("emoji", "apple_🍎")] {
        for steps in [16usize, 64, 256] {
            bench_growth(c, &tok, text, item, steps);
        }
    }
}

fn bench_growth(c: &mut Criterion, tok: &Tokenizer, text: &str, item: &str, steps: usize) {
    let mut group = c.benchmark_group(format!("growing_prompt/{text}/{steps}"));

    // Baseline: re-tokenize the whole prompt every step (quadratic).
    group.bench_with_input(
        BenchmarkId::from_parameter("full_recount"),
        &steps,
        |b, &steps| {
            b.iter(|| {
                let mut prompt = String::new();
                let mut total = 0;
                for i in 0..steps {
                    prompt.push_str(&turn(i, item));
                    total = tok.count(black_box(&prompt));
                }
                total
            })
        },
    );

    // Count each appended turn once and keep the running total: turns
    // end in `\n`, so counts add exactly; per-step cost tracks the turn.
    group.bench_with_input(
        BenchmarkId::from_parameter("count_appended"),
        &steps,
        |b, &steps| {
            b.iter(|| {
                let mut prompt = String::new();
                let mut total = 0;
                for i in 0..steps {
                    let start = prompt.len();
                    prompt.push_str(&turn(i, item));
                    total += tok.count(black_box(&prompt[start..]));
                }
                total
            })
        },
    );
    group.finish();
}

fn bench_bpe_memo(c: &mut Criterion) {
    let text: String = (0..32).map(|i| turn(i, "apple_🍎")).collect();
    let mut group = c.benchmark_group("bpe_count");
    let warm = BpeTokenizer::new(400);
    warm.count(&text); // populate the per-word memo
    group.bench_function("memoized", |b| b.iter(|| warm.count(black_box(&text))));
    group.bench_function("unmemoized_encode", |b| {
        b.iter(|| {
            text.split_whitespace()
                .map(|w| warm.encode_word(black_box(w)).len() as u64)
                .sum::<u64>()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_growing_prompt, bench_bpe_memo);
criterion_main!(benches);
