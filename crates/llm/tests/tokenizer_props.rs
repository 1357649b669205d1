//! Property tests for the word-parallel token counter and the memoized BPE
//! counter. Every count must equal the per-char reference
//! (`Tokenizer::count_per_char`) exactly, on ASCII text (the kernel path)
//! and on mixed multi-byte text (the fallback path), for whole texts and
//! for every prefix cut at a char boundary — the cuts land at every block
//! offset, mid-word, mid-run and mid-char-sequence.

use embodied_llm::{BpeTokenizer, Tokenizer};
use proptest::collection;
use proptest::prelude::*;

/// Prompt fragments mixing ASCII, CJK, emoji, exotic whitespace (U+3000
/// ideographic space) and long words — the shapes that stress block edges
/// and UTF-8 boundary handling.
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

/// Asserts that `count` of every char-boundary prefix of `text` equals
/// the per-char reference.
fn every_prefix_equals_reference(text: &str) -> Result<(), TestCaseError> {
    let tok = Tokenizer::default();
    for upto in (0..=text.len()).filter(|&b| text.is_char_boundary(b)) {
        prop_assert_eq!(
            tok.count(&text[..upto]),
            tok.count_per_char(&text[..upto]),
            "prefix count diverged at byte {} of {:?}",
            upto,
            text
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Growing a prompt by arbitrary multi-byte appends: the count of every
    /// intermediate prompt, and of every prefix of the final one, equals
    /// the reference.
    #[test]
    fn count_equals_reference_on_appends(
        segments in collection::vec(segment(), 1..14),
    ) {
        let tok = Tokenizer::default();
        let mut prompt = String::new();
        for seg in &segments {
            prompt.push_str(seg);
            prop_assert_eq!(
                tok.count(&prompt),
                tok.count_per_char(&prompt),
                "append diverged on {:?}",
                prompt
            );
        }
        every_prefix_equals_reference(&prompt)?;
    }

    /// Pieces that meet at whitespace count additively: summing the
    /// segments' counts equals counting the concatenation whenever every
    /// segment ends in whitespace — the rule prompt writers rely on.
    #[test]
    fn counts_add_across_whitespace_seams(
        segments in collection::vec(segment(), 1..14),
    ) {
        let tok = Tokenizer::default();
        let pieces: Vec<String> = segments.iter().map(|s| format!("{s}\n")).collect();
        let summed: u64 = pieces.iter().map(|p| tok.count(p)).sum();
        prop_assert_eq!(summed, tok.count(&pieces.concat()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The kernel path: on ASCII text the count equals the per-char
    /// reference.
    #[test]
    fn ascii_count_equals_reference(text in ASCII_TEXT) {
        let tok = Tokenizer::default();
        prop_assert_eq!(tok.count(&text), tok.count_per_char(&text), "count diverged on {:?}", text);
    }

    /// ASCII prompts grown by appends: the count of every prefix (every
    /// byte is a char boundary) equals the reference.
    #[test]
    fn ascii_prefixes_equal_reference(
        segments in collection::vec(ASCII_TEXT, 1..5),
    ) {
        every_prefix_equals_reference(&segments.concat())?;
    }

    /// Mixed ASCII / non-ASCII prompts: the fallback and the kernel hand
    /// state to each other mid-run and mid-word, and still equal the
    /// reference at every char boundary.
    #[test]
    fn mixed_text_equals_reference(
        segments in collection::vec(mixed_segment(), 1..8),
    ) {
        every_prefix_equals_reference(&segments.concat())?;
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
