//! Tokenizer hot-path benchmarks: full recount per step vs. the
//! incremental accumulator over a growing Fig. 6-shaped prompt, and the
//! memoized BPE word counter. With `count_incremental`, per-step cost
//! tracks the appended text (total grows linearly in steps); a full
//! recount per step is quadratic in the conversation length. The prompt
//! is benched twice: all-ASCII (the word-parallel kernel, as the suite's
//! prompts are) and with one emoji per turn (its blocks take the per-char
//! fallback).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use embodied_llm::{BpeTokenizer, PromptTokens, Tokenizer};

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

    // Incremental: resume from the deepest checkpoint in the shared
    // prefix; per-step cost tracks the appended turn, not the prompt.
    group.bench_with_input(
        BenchmarkId::from_parameter("incremental"),
        &steps,
        |b, &steps| {
            b.iter(|| {
                let mut cache = PromptTokens::new();
                let mut prompt = String::new();
                let mut total = 0;
                for i in 0..steps {
                    prompt.push_str(&turn(i, item));
                    total = tok.count_incremental(&mut cache, black_box(&prompt));
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
