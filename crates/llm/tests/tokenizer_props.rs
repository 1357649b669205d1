//! Property tests for the word-parallel token counter, the incremental
//! prompt-token accumulator and the memoized BPE counter. Every count —
//! plain, incremental or from checkpoints — must equal the per-char
//! reference (`Tokenizer::count_per_char`) exactly, on ASCII text (the
//! kernel path) and on mixed multi-byte text (the fallback path).

use embodied_llm::{BpeTokenizer, PromptTokens, Tokenizer};
use proptest::collection;
use proptest::prelude::*;

/// Prompt fragments mixing ASCII, CJK, emoji, exotic whitespace (U+3000
/// ideographic space) and long words — the shapes that stress the
/// checkpoint seam and UTF-8 boundary handling.
fn segment() -> BoxedStrategy<String> {
    prop_oneof![
        Just("[system] plan the next step\n".to_owned()),
        Just("observation: the fridge is open ".to_owned()),
        Just("漢字のトークン化を確認する ".to_owned()),
        Just("🍎🍐🦀 emoji\u{3000}and ideographic space ".to_owned()),
        Just("supercalifragilisticexpialidocious ".to_owned()),
        Just("x ".to_owned()),
        Just("  \t\n ".to_owned()),
        Just("re-plan; retry(2) -> pick_up(apple_🍎) ".to_owned()),
        Just("0123456789 ".to_owned()),
        Just("ωμέγα και ελληνικά ".to_owned()),
    ]
    .boxed()
}

/// ASCII-only text weighted toward what stresses the kernel: letter runs
/// up to 3 blocks long, every ASCII whitespace byte (0x0B included),
/// punctuation, digits and arbitrary ASCII bytes including controls.
const ASCII_TEXT: &str =
    "([a-zA-Z]{1,12}|[a-z]{60,150}|[\t-\r ]{1,3}|[0-9_.,;:()-]{1,2}|[\u{0}-\u{7f}]{1,4}){0,40}";

/// Fragments around the non-ASCII whitespace and letters the fallback must
/// agree on: U+00A0, U+0085 and U+3000 separate words, accented and Greek
/// letters extend runs, emoji are one-token chars.
fn mixed_segment() -> BoxedStrategy<String> {
    prop_oneof![
        Just("no\u{A0}break\u{A0}space ".to_owned()),
        Just("next\u{85}line ".to_owned()),
        Just("ideographic\u{3000}spaceseparated\u{3000}words".to_owned()),
        Just("🍎🤖 emoji-laden👍text ".to_owned()),
        Just("émigré naïveté extraordinairement ".to_owned()),
        Just("ωμέγαωμέγαωμέγα ".to_owned()),
        ASCII_TEXT.boxed(),
    ]
    .boxed()
}

/// Largest `k <= upto` that is a char boundary of `s`.
fn floor_char(s: &str, upto: usize) -> usize {
    let mut k = upto.min(s.len());
    while !s.is_char_boundary(k) {
        k -= 1;
    }
    k
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Growing a prompt by arbitrary multi-byte appends: every incremental
    /// count equals a from-scratch recount of the full text.
    #[test]
    fn incremental_equals_full_recount_on_appends(
        segments in collection::vec(segment(), 1..14),
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut prompt = String::new();
        for seg in &segments {
            prompt.push_str(seg);
            prop_assert_eq!(
                tok.count_incremental(&mut cache, &prompt),
                tok.count_per_char(&prompt),
                "append diverged on {:?}",
                prompt
            );
        }
    }

    /// Arbitrary edit sequences — append, truncate to a mid-text char
    /// boundary, or replace wholesale — still recount exactly. This covers
    /// shrinking and divergent prefixes, not just Fig. 6-style growth.
    #[test]
    fn incremental_equals_full_recount_on_rewrites(
        edits in collection::vec((0u32..4, segment()), 1..14),
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut prompt = String::new();
        for (op, seg) in &edits {
            match op {
                0 | 1 => prompt.push_str(seg),
                2 => {
                    let half = floor_char(&prompt, prompt.len() / 2);
                    prompt.truncate(half);
                }
                _ => prompt = seg.clone(),
            }
            prop_assert_eq!(
                tok.count_incremental(&mut cache, &prompt),
                tok.count_per_char(&prompt),
                "edit op {} diverged on {:?}",
                op,
                prompt
            );
        }
    }

    /// `count_prefix` answers from checkpoints; it must agree with a plain
    /// count of the prefix at every sampled char boundary.
    #[test]
    fn count_prefix_equals_plain_prefix_count(
        segments in collection::vec(segment(), 1..10),
        cut in 0.0f64..1.0,
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let prompt: String = segments.concat();
        tok.count_incremental(&mut cache, &prompt);
        let upto = floor_char(&prompt, (prompt.len() as f64 * cut) as usize);
        prop_assert_eq!(
            cache.count_prefix(&tok, upto),
            tok.count_per_char(&prompt[..upto]),
            "prefix count diverged at byte {} of {:?}",
            upto,
            prompt
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel path: on ASCII text the plain count and a cold
    /// incremental count equal the per-char reference.
    #[test]
    fn ascii_count_equals_reference(text in ASCII_TEXT) {
        let tok = Tokenizer::default();
        let want = tok.count_per_char(&text);
        prop_assert_eq!(tok.count(&text), want, "count diverged on {:?}", text);
        let mut cache = PromptTokens::new();
        prop_assert_eq!(tok.count_incremental(&mut cache, &text), want);
    }

    /// ASCII prompts grown by appends: every incremental count equals the
    /// reference, and `count_prefix` agrees with it at every char boundary.
    #[test]
    fn ascii_incremental_and_prefix_equal_reference(
        segments in collection::vec(ASCII_TEXT, 1..5),
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut prompt = String::new();
        for seg in &segments {
            prompt.push_str(seg);
            prop_assert_eq!(
                tok.count_incremental(&mut cache, &prompt),
                tok.count_per_char(&prompt),
                "append diverged on {:?}",
                prompt
            );
        }
        for upto in 0..=prompt.len() {
            prop_assert_eq!(
                cache.count_prefix(&tok, upto),
                tok.count_per_char(&prompt[..upto]),
                "prefix count diverged at byte {}",
                upto
            );
        }
    }

    /// Mixed ASCII / non-ASCII prompts: the fallback and the kernel hand
    /// state to each other mid-run and mid-word, and still equal the
    /// reference on every append and at every char boundary.
    #[test]
    fn mixed_text_equals_reference(
        segments in collection::vec(mixed_segment(), 1..8),
    ) {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut prompt = String::new();
        for seg in &segments {
            prompt.push_str(seg);
            let want = tok.count_per_char(&prompt);
            prop_assert_eq!(tok.count(&prompt), want, "count diverged on {:?}", prompt);
            prop_assert_eq!(tok.count_incremental(&mut cache, &prompt), want);
        }
        for upto in (0..=prompt.len()).filter(|&b| prompt.is_char_boundary(b)) {
            prop_assert_eq!(
                cache.count_prefix(&tok, upto),
                tok.count_per_char(&prompt[..upto]),
                "prefix count diverged at byte {}",
                upto
            );
        }
    }
}

proptest! {
    // BPE training is expensive; a handful of cases against one shared
    // tokenizer still exercises cold-vs-warm memo paths on every word.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The per-word memo never changes a count: a warm tokenizer agrees
    /// with a freshly trained (cold) one on arbitrary texts.
    #[test]
    fn bpe_memo_matches_fresh_tokenizer(
        segments in collection::vec(segment(), 1..8),
    ) {
        let warm = BpeTokenizer::new(120);
        let text: String = segments.concat();
        let first = warm.count(&text);
        let second = warm.count(&text); // fully memoized pass
        let cold = BpeTokenizer::new(120).count(&text);
        prop_assert_eq!(first, cold);
        prop_assert_eq!(second, cold);
    }
}
