//! A deterministic subword tokenizer.
//!
//! The suite builds *real* prompt strings (system preambles, retrieved
//! memories, dialogue history), so prompt-length phenomena — Fig. 6's token
//! growth, context-window overflows, context-dilution quality loss — emerge
//! from actual text rather than synthetic counters. The tokenizer maps text
//! to token counts the way BPE vocabularies do in aggregate: whole short
//! words are one token, long words split into ~4-character subwords, and
//! punctuation/digits tokenize separately.
//!
//! Counting is a word-parallel ASCII kernel: each 64-byte block is
//! classified eight bytes per `u64` step (SWAR) into letter/other/whitespace
//! bit masks, and tokens = popcount(other) + popcount(letter-run starts) +
//! a correction per run longer than seven letters. Blocks holding non-ASCII
//! bytes fall back to decoding chars one at a time.

/// Maximum characters a single subword token absorbs.
const SUBWORD_LEN: usize = 4;
/// Words up to this length count as a single token.
const WHOLE_WORD_LEN: usize = 7;

/// Deterministic subword tokenizer used by every simulated model.
///
/// ```
/// use embodied_llm::Tokenizer;
///
/// let tok = Tokenizer::default();
/// assert_eq!(tok.count("go to the kitchen"), 4);
/// // Long words split into subwords, like real BPE vocabularies.
/// assert!(tok.count("antidisestablishmentarianism") > 1);
/// ```
///
/// Granularity is fixed and calibrated so English prose lands near the
/// familiar ~4 characters/token (~0.75 tokens/word) ratio; construct it
/// with `Tokenizer::default()`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct Tokenizer;

impl Tokenizer {
    /// Number of tokens in `text`.
    pub fn count(&self, text: &str) -> u64 {
        scan(text, 0, 0, None)
    }

    /// The per-char reference definition of [`Tokenizer::count`]: split on
    /// whitespace and decode every word char by char. Returns exactly what
    /// `count` returns, several times slower on ASCII text; it is the
    /// specification the word-parallel kernel is tested against.
    pub fn count_per_char(&self, text: &str) -> u64 {
        text.split_whitespace().map(count_word).sum()
    }

    /// Truncates `text` to at most `max_tokens`, keeping the *tail* (the
    /// convention used when a prompt exceeds the context window: the system
    /// preamble has already been consumed, and the freshest context matters
    /// most). Returns the retained suffix.
    pub fn truncate_to(&self, text: &str, max_tokens: u64) -> String {
        if self.count(text) <= max_tokens {
            return text.to_owned();
        }
        // Walk words from the end, accumulating until the budget is spent.
        let words: Vec<&str> = text.split_whitespace().collect();
        let mut kept = Vec::new();
        let mut budget = max_tokens;
        for word in words.iter().rev() {
            let cost = count_word(word);
            if cost > budget {
                break;
            }
            budget -= cost;
            kept.push(*word);
        }
        kept.reverse();
        kept.join(" ")
    }

    /// Counts `text`, reusing work from the previous call recorded in
    /// `cache`. Agent prompts grow by appending (Fig. 6), so consecutive
    /// prompts share a long stable prefix; this re-tokenizes only the part
    /// past the last checkpoint inside that shared prefix, making the
    /// per-step cost proportional to the *appended* text instead of the
    /// whole prompt. Returns exactly what [`Tokenizer::count`] returns.
    pub fn count_incremental(&self, cache: &mut PromptTokens, text: &str) -> u64 {
        let common = common_prefix_len(cache.text.as_bytes(), text.as_bytes());
        // Keep only checkpoints inside the shared prefix. Each checkpoint
        // offset sits immediately after a whitespace char of the old text;
        // byte equality up to `common` means the same complete whitespace
        // char ends at that offset in `text`, so it is a char boundary and
        // a seam no word straddles — counting is additive across it.
        let keep = cache.checkpoints.partition_point(|&(off, _)| off <= common);
        cache.checkpoints.truncate(keep);
        let (off, toks) = cache.checkpoints.last().copied().unwrap_or((0, 0));
        let total = scan(&text[off..], off, toks, Some(&mut cache.checkpoints));
        cache.text.clear();
        cache.text.push_str(text);
        cache.total = total;
        total
    }
}

/// Per-char token count of one whitespace-free word: each non-letter char
/// is its own token ("kitchen," → "kitchen" + ","), and each letter run
/// costs [`alpha_tokens`].
fn count_word(word: &str) -> u64 {
    let mut tokens = 0u64;
    let mut alpha_run = 0usize;
    for c in word.chars() {
        if c.is_alphabetic() {
            alpha_run += 1;
        } else {
            tokens += alpha_tokens(alpha_run);
            alpha_run = 0;
            tokens += 1;
        }
    }
    tokens + alpha_tokens(alpha_run)
}

fn alpha_tokens(len: usize) -> u64 {
    if len == 0 {
        0
    } else if len <= WHOLE_WORD_LEN {
        1
    } else {
        len.div_ceil(SUBWORD_LEN) as u64
    }
}

/// Tokens a letter run of `len` costs beyond its first one.
fn long_extra(len: usize) -> u64 {
    if len > WHOLE_WORD_LEN {
        (len.div_ceil(SUBWORD_LEN) - 1) as u64
    } else {
        0
    }
}

/// Bytes classified per kernel step; one bit per byte in a `u64` mask.
const BLOCK: usize = 64;
/// `0x01` in every byte lane of a `u64`.
const LANES: u64 = 0x0101_0101_0101_0101;
/// The high bit of every byte lane.
const HIGH: u64 = LANES * 0x80;
/// A space (0x20, also the ASCII case bit) in every byte lane.
const SPACES: u64 = LANES * 0x20;

/// High bit set in each lane of `w` whose byte is `>= lo`. Lanes must be
/// ASCII (`< 0x80`), so no lane carries into its neighbour.
fn at_least(w: u64, lo: u8) -> u64 {
    w.wrapping_add(LANES * u64::from(0x80 - lo)) & HIGH
}

/// Classifies eight ASCII bytes into `(letter, whitespace)` high-bit lane
/// masks. Whitespace is 0x09..=0x0D plus 0x20, exactly the ASCII chars
/// `char::is_whitespace` accepts (`u8::is_ascii_whitespace` omits 0x0B).
fn classify(w: u64) -> (u64, u64) {
    let folded = w | SPACES; // 'A'..='Z' → 'a'..='z'
    let alpha = at_least(folded, b'a') & !at_least(folded, b'z' + 1);
    let ctrl = at_least(w, 0x09) & !at_least(w, 0x0E);
    let space = !at_least(w ^ SPACES, 1) & HIGH;
    (alpha, ctrl | space)
}

/// Packs the high bit of each lane into 8 bits, lane `i` → bit `i`.
fn lane_bits(m: u64) -> u64 {
    (m >> 7).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Bit masks `(alpha, other, whitespace)` of a 64-byte block, bit `i` for
/// byte `i`, or `None` if the block holds a non-ASCII byte.
fn block_masks(block: &[u8; BLOCK]) -> Option<(u64, u64, u64)> {
    let (mut any, mut alpha, mut ws) = (0, 0, 0);
    for (i, word) in block.chunks_exact(8).enumerate() {
        let w = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
        let (a, s) = classify(w);
        any |= w;
        alpha |= lane_bits(a) << (8 * i);
        ws |= lane_bits(s) << (8 * i);
    }
    (any & HIGH == 0).then_some((alpha, !(alpha | ws), ws))
}

/// Running state of one scan: tokens so far, and the length of the letter
/// run open at the scan position (its first token already counted).
struct Scan {
    tokens: u64,
    run: usize,
}

impl Scan {
    /// Absorbs one block of masks, bit `i` for byte `i`: `alpha` letters,
    /// `other` one-token chars; bytes in neither are whitespace. Tokens are
    /// popcount(other) + popcount(run starts) + [`long_extra`] per run end;
    /// a run touching bit 63 stays open into the next block.
    fn block(&mut self, mut alpha: u64, other: u64) {
        self.tokens += u64::from(other.count_ones());
        if self.run > 0 {
            let carried = (!alpha).trailing_zeros();
            if carried == 64 {
                self.run += 64;
                return;
            }
            self.tokens += long_extra(self.run + carried as usize);
            alpha &= u64::MAX << carried;
        }
        self.tokens += u64::from((alpha & !(alpha << 1)).count_ones());
        let open = (!alpha).leading_zeros();
        self.run = open as usize;
        let closed = alpha & !u64::MAX.checked_shl(64 - open).unwrap_or(0);
        // Bit p of `long` marks the 8th-or-later letter of a run; only such
        // runs (rare in prose) need their length measured.
        let mut long = closed & (closed << 1);
        long &= long << 2;
        long &= long << 4;
        while long != 0 {
            let p = long.trailing_zeros();
            let up = (!(closed >> p)).trailing_zeros();
            let down = (!(closed << (63 - p))).leading_zeros();
            self.tokens += long_extra((up + down - 1) as usize);
            // Bit 63 of `closed` is clear, so the run ends below it.
            long &= u64::MAX << (p + up);
        }
    }

    /// Absorbs one char (the non-ASCII fallback; same rules as `count_word`).
    fn char(&mut self, c: char) {
        if c.is_alphabetic() {
            if self.run == 0 {
                self.tokens += 1;
            }
            self.run += 1;
        } else {
            self.tokens += long_extra(self.run) + u64::from(!c.is_whitespace());
            self.run = 0;
        }
    }
}

/// Whether a checkpoint at `off` keeps the list's entries at least
/// [`PromptTokens::STRIDE_BYTES`] apart.
fn seam_due(checkpoints: &[(usize, u64)], off: usize) -> bool {
    checkpoints
        .last()
        .is_none_or(|&(prev, _)| off - prev >= PromptTokens::STRIDE_BYTES)
}

/// Counts `text` (= full text from byte `base`, already holding `start`
/// tokens), recording seam checkpoints into `checkpoints` if given. ASCII
/// blocks go through the word-parallel kernel; a block holding a non-ASCII
/// byte is decoded char by char up to the first char boundary past it.
fn scan(
    text: &str,
    base: usize,
    start: u64,
    mut checkpoints: Option<&mut Vec<(usize, u64)>>,
) -> u64 {
    let bytes = text.as_bytes();
    let mut st = Scan {
        tokens: start,
        run: 0,
    };
    // A short tail is padded with spaces, which close its last run exactly
    // as the end of the text does.
    let mut tail = [b' '; BLOCK];
    let mut pos = 0;
    while pos < bytes.len() {
        let len = (bytes.len() - pos).min(BLOCK);
        let block: &[u8; BLOCK] = match bytes[pos..].first_chunk() {
            Some(full) => full,
            None => {
                tail[..len].copy_from_slice(&bytes[pos..]);
                &tail
            }
        };
        let Some((alpha, other, ws)) = block_masks(block) else {
            let end = pos + len;
            for c in text[pos..].chars() {
                st.char(c);
                pos += c.len_utf8();
                if let Some(list) = checkpoints.as_deref_mut() {
                    if c.is_whitespace() && seam_due(list, base + pos) {
                        list.push((base + pos, st.tokens));
                    }
                }
                if pos >= end {
                    break;
                }
            }
            continue;
        };
        // Candidate checkpoint: just after the block's last whitespace.
        let cut = (ws & (u64::MAX >> (BLOCK - len))).leading_zeros();
        let seam = base + pos + BLOCK - cut as usize;
        match checkpoints.as_deref_mut() {
            // Absorb the block in two halves split at the seam; no run is
            // open there, so the first half's total is the checkpoint.
            Some(list) if cut < 64 && seam_due(list, seam) => {
                let low = u64::MAX >> cut;
                st.block(alpha & low, other & low);
                list.push((seam, st.tokens));
                st.block(alpha & !low, other & !low);
            }
            _ => st.block(alpha, other),
        }
        pos += len;
    }
    st.tokens + long_extra(st.run)
}

/// Length of the longest common byte prefix of `a` and `b`, compared 16
/// bytes at a time.
pub(crate) fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    const WIDE: usize = 16;
    let mut i = 0;
    for (x, y) in a.chunks_exact(WIDE).zip(b.chunks_exact(WIDE)) {
        let x = u128::from_le_bytes(x.try_into().expect("16-byte chunk"));
        let y = u128::from_le_bytes(y.try_into().expect("16-byte chunk"));
        if x != y {
            return i + (x ^ y).trailing_zeros() as usize / 8;
        }
        i += WIDE;
    }
    i + a[i..]
        .iter()
        .zip(&b[i..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Incremental token-count accumulator for one growing prompt stream.
///
/// Holds the previously counted text plus `(byte_offset, cumulative_tokens)`
/// checkpoints at seam-safe positions (each offset sits immediately after a
/// whitespace char, so no word straddles it). [`Tokenizer::count_incremental`]
/// resumes from the deepest checkpoint still inside the shared prefix with
/// the new text; [`PromptTokens::count_prefix`] answers prefix counts (the
/// KV-reuse accounting path) from the same checkpoints.
///
/// ```
/// use embodied_llm::{PromptTokens, Tokenizer};
///
/// let tok = Tokenizer::default();
/// let mut cache = PromptTokens::new();
/// let mut prompt = String::from("[system] plan the next step\n");
/// assert_eq!(tok.count_incremental(&mut cache, &prompt), tok.count(&prompt));
/// prompt.push_str("[observation] the fridge is open\n");
/// assert_eq!(tok.count_incremental(&mut cache, &prompt), tok.count(&prompt));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PromptTokens {
    text: String,
    checkpoints: Vec<(usize, u64)>,
    total: u64,
}

impl PromptTokens {
    /// Minimum byte distance between recorded checkpoints: bounds the
    /// checkpoint list to ~len/64 entries while keeping any recount window
    /// to at most a stride plus one word.
    const STRIDE_BYTES: usize = 64;

    /// An empty accumulator (counts everything on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recently counted text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Token count of the most recently counted text.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact token count of `self.text()[..upto]` (`upto` must lie on a
    /// char boundary). Served from the nearest checkpoint at or before
    /// `upto`, so the cost is bounded by the checkpoint stride rather than
    /// by `upto` — this is the KV-cache shared-prefix accounting hot path.
    pub fn count_prefix(&self, tokenizer: &Tokenizer, upto: usize) -> u64 {
        let at = self.checkpoints.partition_point(|&(off, _)| off <= upto);
        let (off, toks) = if at == 0 {
            (0, 0)
        } else {
            self.checkpoints[at - 1]
        };
        toks + tokenizer.count(&self.text[off..upto])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_whitespace_count_zero() {
        let tok = Tokenizer::default();
        assert_eq!(tok.count(""), 0);
        assert_eq!(tok.count("   \n\t  "), 0);
    }

    #[test]
    fn short_words_are_one_token() {
        let tok = Tokenizer::default();
        assert_eq!(tok.count("kitchen"), 1);
        assert_eq!(tok.count("a b c"), 3);
    }

    #[test]
    fn long_words_split() {
        let tok = Tokenizer::default();
        // 12 letters → ceil(12/4) = 3 tokens
        assert_eq!(tok.count("transporting"), 3);
    }

    #[test]
    fn punctuation_tokenizes_separately() {
        let tok = Tokenizer::default();
        assert_eq!(tok.count("go,"), 2);
        assert_eq!(tok.count("room_3"), 1 + 1 + 1); // "room" + "_" + "3"
    }

    #[test]
    fn prose_ratio_is_plausible() {
        let tok = Tokenizer::default();
        let text = "the agent moves the red apple from the kitchen counter \
                    to the dining table and then reports task completion";
        let tokens = tok.count(text) as f64;
        let chars = text.len() as f64;
        let ratio = chars / tokens;
        assert!(
            (3.0..7.0).contains(&ratio),
            "chars/token ratio {ratio} outside plausible band"
        );
    }

    #[test]
    fn truncate_keeps_tail_within_budget() {
        let tok = Tokenizer::default();
        let text = "alpha beta gamma delta epsilon";
        let cut = tok.truncate_to(text, 2);
        assert!(tok.count(&cut) <= 2);
        assert!(cut.ends_with("epsilon"));
    }

    #[test]
    fn truncate_noop_when_under_budget() {
        let tok = Tokenizer::default();
        assert_eq!(tok.truncate_to("short text", 100), "short text");
    }

    #[test]
    fn count_is_additive_over_concatenation_with_space() {
        let tok = Tokenizer::default();
        let a = "pick up the box";
        let b = "move to room three";
        assert_eq!(tok.count(&format!("{a} {b}")), tok.count(a) + tok.count(b));
    }

    #[test]
    fn incremental_matches_full_on_append_sequence() {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let mut text = String::new();
        let segments = [
            "[system] you are the planning module\n",
            "[goal] transport the boxes to zone three\n",
            "step 1: agent0 moved to room_2, found nothing.\n",
            "step 2: 漢字の观察 → the shelf holds 3 apples 🍎🍎🍎\n",
            "Ideographic\u{3000}space\u{3000}separates\u{3000}these\u{3000}words\n",
            "a very-long-hyphenated-token antidisestablishmentarianism!!\n",
        ];
        // Grow the prompt the way an episode does and re-count at each step.
        for _ in 0..3 {
            for seg in segments {
                text.push_str(seg);
                assert_eq!(
                    tok.count_incremental(&mut cache, &text),
                    tok.count(&text),
                    "after appending {seg:?}"
                );
                assert_eq!(cache.total(), tok.count(&text));
                assert_eq!(cache.text(), text);
            }
        }
    }

    #[test]
    fn incremental_handles_rewrites_and_shrinks() {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let long: String = "the agent moves the red apple to the table ".repeat(12);
        assert_eq!(tok.count_incremental(&mut cache, &long), tok.count(&long));
        // A completely different, shorter text.
        let other = "replan: fridge door blocked, pick 菠萝 instead";
        assert_eq!(tok.count_incremental(&mut cache, other), tok.count(other));
        // A strict prefix of an earlier text (shrinking).
        let prefix = &long[..long.len() / 2];
        assert_eq!(tok.count_incremental(&mut cache, prefix), tok.count(prefix));
        // Divergence in the middle of a multi-byte char's neighborhood.
        let mutated = format!("{}卍{}", &long[..40], &long[44..]);
        assert_eq!(
            tok.count_incremental(&mut cache, &mutated),
            tok.count(&mutated)
        );
    }

    #[test]
    fn count_prefix_matches_direct_count_at_every_boundary() {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        let text = "step 12: 机器人 crossed the\u{3000}corridor 🤖, logging \
                    coordinates (4,7) and re-planning the long-horizon route "
            .repeat(3);
        tok.count_incremental(&mut cache, &text);
        for upto in (0..=text.len()).filter(|&b| text.is_char_boundary(b)) {
            assert_eq!(
                cache.count_prefix(&tok, upto),
                tok.count(&text[..upto]),
                "prefix of {upto} bytes"
            );
        }
    }

    /// Asserts `count`, a cold `count_incremental` and one resumed from a
    /// cache warmed on `warm` all equal the per-char reference on `text`,
    /// and that every recorded checkpoint is a seam inside `text` holding
    /// the reference count of the prefix before it.
    fn assert_kernel_matches_reference(text: &str, warm: &str) {
        let tok = Tokenizer::default();
        let want = tok.count_per_char(text);
        assert_eq!(tok.count(text), want, "count on {text:?}");
        let mut cold = PromptTokens::new();
        assert_eq!(
            tok.count_incremental(&mut cold, text),
            want,
            "cold {text:?}"
        );
        let mut warmed = PromptTokens::new();
        tok.count_incremental(&mut warmed, warm);
        assert_eq!(
            tok.count_incremental(&mut warmed, text),
            want,
            "warm {text:?}"
        );
        for cache in [&cold, &warmed] {
            for &(off, toks) in &cache.checkpoints {
                let seam = text.get(..off).and_then(|t| t.chars().next_back());
                assert!(
                    seam.is_some_and(char::is_whitespace),
                    "checkpoint {off} of {text:?} is not just after whitespace"
                );
                assert_eq!(toks, tok.count_per_char(&text[..off]), "checkpoint {off}");
            }
        }
    }

    #[test]
    fn every_ascii_byte_at_every_block_offset_matches_reference() {
        // Three blocks' worth, so every offset of a full block and of the
        // space-padded tail is hit, against prose and all-letter contexts.
        let prose = "the quick brown fox jumps over a lazy dog, again! ".repeat(4);
        let letters = "abcdefghijklmnopqrstuvwxyz".repeat(8);
        for background in [&prose[..150], &letters[..150]] {
            for byte in 0u8..0x80 {
                for at in 0..background.len() {
                    let mut bytes = background.as_bytes().to_vec();
                    bytes[at] = byte;
                    let text = String::from_utf8(bytes).expect("ASCII");
                    assert_kernel_matches_reference(&text, background);
                }
            }
        }
    }

    #[test]
    fn letter_runs_straddling_block_edges_match_reference() {
        for len in 1..=200 {
            for lead in [0, 1, 7, 56, 57, 63, 64, 65, 100, 127, 128] {
                let text = format!("{}{} next, word", ".".repeat(lead), "q".repeat(len));
                assert_kernel_matches_reference(&text, &text[..lead]);
                // Run ending exactly at the end of the text.
                let text = format!("{}{}", " ".repeat(lead), "Q".repeat(len));
                assert_kernel_matches_reference(&text, "");
            }
        }
    }

    #[test]
    fn every_ascii_whitespace_separates_words() {
        // 0x0B is whitespace for `char::is_whitespace` but not for
        // `u8::is_ascii_whitespace`; as a letter "abcd?efgh" would be one
        // 9-letter run (3 tokens), as other char 3 tokens, as a separator 2.
        let tok = Tokenizer::default();
        for sep in ['\t', '\n', '\u{0B}', '\u{0C}', '\r', ' '] {
            let short = format!("abcd{sep}efgh");
            assert_eq!(tok.count(&short), 2, "separator {sep:?}");
            let long = format!("{}{sep}{}", "kitchenette ".repeat(6), "countertops");
            assert_eq!(tok.count(&long), tok.count_per_char(&long), "{sep:?}");
            assert_eq!(tok.count(&long), 6 * 3 + 3, "separator {sep:?}");
        }
    }

    #[test]
    fn non_ascii_text_matches_reference() {
        let text = "nbsp\u{A0}separates nel\u{85}too ideographic\u{3000}space, \
                    émigré naïveté 🤖🍎 extraordinarily\u{A0}long\u{3000}words "
            .repeat(5);
        let boundaries: Vec<usize> = (0..=text.len())
            .filter(|&b| text.is_char_boundary(b))
            .collect();
        for (i, &cut) in boundaries.iter().enumerate() {
            assert_kernel_matches_reference(&text[..cut], &text[..boundaries[i / 2]]);
        }
    }

    #[test]
    fn common_prefix_len_stops_at_first_difference() {
        let a = b"0123456789abcdef0123456789abcdefXYZ";
        for cut in 0..=a.len() {
            let mut b = a.to_vec();
            if cut < b.len() {
                b[cut] ^= 1;
            }
            assert_eq!(common_prefix_len(a, &b), cut);
            assert_eq!(common_prefix_len(&a[..cut], a), cut);
        }
    }

    #[test]
    fn incremental_on_empty_and_whitespace() {
        let tok = Tokenizer::default();
        let mut cache = PromptTokens::new();
        assert_eq!(tok.count_incremental(&mut cache, ""), 0);
        assert_eq!(tok.count_incremental(&mut cache, "  \n\t "), 0);
        assert_eq!(cache.count_prefix(&tok, 2), 0);
        assert_eq!(tok.count_incremental(&mut cache, ""), 0);
    }
}
