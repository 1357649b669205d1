//! Memory module: observation / action / dialogue stores with a capacity
//! window, retrieval latency, the paper's large-memory inconsistency effect
//! (Fig. 5), and the dual long/short-term structure of Rec. 5.

use crate::config::MemoryCapacity;
use crate::prompt::CountedText;
use embodied_llm::Tokenizer;
use embodied_profiler::SimDuration;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// What kind of information a record holds (paper §II-A: observation,
/// dialogue and action memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// World-state knowledge from sensing.
    Observation,
    /// The agent's own actions and their outcomes.
    Action,
    /// Messages exchanged with other agents.
    Dialogue,
}

/// One memory entry. Its prompt text lives in the module's line buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryRecord {
    /// Step the record was written.
    pub step: usize,
    /// Record category.
    pub kind: RecordKind,
    /// Entity names this record carries knowledge about.
    pub entities: Vec<String>,
    /// Where the record's `step N: text\n` line starts in the line buffer,
    /// as an offset from the first byte ever written (it stays valid when
    /// older lines are trimmed off the front). The line ends where the next
    /// record's starts.
    line_start: usize,
    /// Running token total of the line buffer before this line.
    tokens_before: u64,
}

/// What a retrieval pass measures. The text itself
/// [`MemoryModule::retrieve_write`] streams into a caller-owned buffer so
/// the steady-state step loop retrieves without heap allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrievalStats {
    /// Time the lookup took.
    pub latency: SimDuration,
    /// Quality penalty from memory inconsistency.
    pub inconsistency_penalty: f64,
    /// Records scanned by the lookup.
    pub records_scanned: usize,
    /// Tokens of the text appended to the caller's buffer.
    pub tokens: u64,
}

/// The memory module.
///
/// Each record is rendered once, at store time, into one line buffer
/// (`step N: text\n` per record, oldest first) and tokenized once there;
/// the record keeps its line's offset and the buffer's running token
/// total. The retained window is a suffix of the records, so a flat
/// retrieval is one contiguous slice of the buffer and its token count is a
/// difference of running totals. Lines that fell out of the window are
/// trimmed off the front once they make up half of the buffer.
#[derive(Debug, Clone)]
pub struct MemoryModule {
    enabled: bool,
    capacity: MemoryCapacity,
    dual: bool,
    summarize: bool,
    retrieval_mode: RetrievalMode,
    landmarks: HashSet<String>,
    records: Vec<MemoryRecord>,
    /// The records' rendered lines, from the oldest untrimmed one on.
    lines: String,
    /// Bytes trimmed off the front of `lines` so far.
    trimmed: usize,
    /// Running token total of every line ever written.
    tokens: u64,
    long_term: HashSet<String>,
    /// The long-term store again, kept sorted so retrieval renders the
    /// deterministic "known entities" line without collecting and sorting
    /// on every call. Insertions only happen for *new* entities, so the
    /// steady state never touches it.
    long_term_sorted: Vec<String>,
    /// Latest step at which each entity appeared in a stored record —
    /// the incremental index behind [`MemoryModule::knows`] /
    /// [`MemoryModule::known_entities`]. Records enter step-monotonically,
    /// so an entity is inside the retained window iff its latest sighting
    /// is at or past the window cutoff.
    last_seen: HashMap<String, usize>,
    stale: HashSet<String>,
    /// Action memory (paper §II-A): per-skill success counts — "knowledge
    /// on how to execute specific high-level plans", the JARVIS-1/VOYAGER
    /// skill library.
    skills: std::collections::HashMap<String, u32>,
    current_step: usize,
}

/// Retained window (in records) beyond which inconsistencies appear.
const INCONSISTENCY_ONSET: usize = 60;

embodied_profiler::record! {
    tags;
    /// How stored records are indexed for retrieval (paper Fig. 5 in-text:
    /// "retrieval based on multimodal states … outperforms approaches that rely
    /// solely on text embeddings").
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub enum RetrievalMode {
        /// Entity-indexed multimodal retrieval (vision + symbolic + action
        /// history): full recall — the suite default.
        #[default]
        Multimodal = "multimodal",
        /// Text-embedding similarity only: imperfect recall — entities whose
        /// descriptions embed poorly are missed at retrieval time.
        TextEmbedding = "text-embedding",
    }
}

/// Deterministic pseudo-embedding recall: a text-only index misses ~1 in 5
/// lookups, and *which* entities it misses shifts with the query context
/// (bucketed by step), the way embedding similarity drifts as the rest of
/// the prompt changes.
fn text_embedding_recalls(entity: &str, step: usize) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ (step as u64 / 4);
    for b in entity.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    !h.is_multiple_of(5)
}

impl MemoryModule {
    /// Creates a memory module.
    ///
    /// * `enabled: false` reproduces the Fig. 3 memory-off ablation: nothing
    ///   is stored, knowledge collapses to landmarks + current percept.
    /// * `dual: true` enables Rec. 5's long-term/short-term split.
    /// * `summarize: true` enables Rec. 6's context compression.
    pub fn new(
        enabled: bool,
        capacity: MemoryCapacity,
        dual: bool,
        summarize: bool,
        landmarks: Vec<String>,
    ) -> Self {
        MemoryModule {
            enabled,
            capacity,
            dual,
            summarize,
            retrieval_mode: RetrievalMode::default(),
            landmarks: landmarks.into_iter().collect(),
            records: Vec::new(),
            lines: String::new(),
            trimmed: 0,
            tokens: 0,
            long_term: HashSet::new(),
            long_term_sorted: Vec::new(),
            last_seen: HashMap::new(),
            stale: HashSet::new(),
            skills: std::collections::HashMap::new(),
            current_step: 0,
        }
    }

    /// Selects the retrieval index (builder-style).
    pub fn with_retrieval_mode(mut self, mode: RetrievalMode) -> Self {
        self.retrieval_mode = mode;
        self
    }

    /// Whether the module stores anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Marks the beginning of an environment step.
    pub fn begin_step(&mut self, step: usize) {
        self.current_step = step;
        // Stale markers persist only briefly; the world may change back.
        if step.is_multiple_of(6) {
            self.stale.clear();
        }
    }

    /// Stores a record. When the module is disabled the record still enters
    /// a 1-step working buffer — disabling the memory *module* removes
    /// storage and retrieval, not the agent's within-context awareness of
    /// the immediately preceding turn.
    pub fn store(&mut self, kind: RecordKind, text: impl AsRef<str>, entities: Vec<String>) {
        let text = text.as_ref();
        self.store_line(kind, text, Tokenizer::default().count(text), entities);
    }

    /// [`MemoryModule::store`] for text that arrives counted (a broadcast
    /// message is counted once, not once per recipient).
    pub fn store_counted(&mut self, kind: RecordKind, text: &CountedText, entities: Vec<String>) {
        self.store_line(kind, text.as_str(), text.tokens(), entities);
    }

    /// Stores a record whose `text` holds `tokens` tokens.
    fn store_line(&mut self, kind: RecordKind, text: &str, tokens: u64, entities: Vec<String>) {
        debug_assert!(
            self.records
                .last()
                .is_none_or(|r| r.step <= self.current_step),
            "records must be stored in step order"
        );
        if self.dual && self.enabled {
            for e in &entities {
                if !self.long_term.contains(e) {
                    self.long_term.insert(e.clone());
                    let pos = self
                        .long_term_sorted
                        .binary_search(e)
                        .unwrap_or_else(|pos| pos);
                    self.long_term_sorted.insert(pos, e.clone());
                }
            }
        }
        for e in &entities {
            if let Some(seen) = self.last_seen.get_mut(e) {
                *seen = (*seen).max(self.current_step);
            } else {
                self.last_seen.insert(e.clone(), self.current_step);
            }
        }
        let start = self.lines.len();
        let _ = write!(self.lines, "step {}: ", self.current_step);
        let tokens_before = self.tokens;
        self.tokens += Tokenizer::default().count(&self.lines[start..]) + tokens;
        self.lines.push_str(text);
        self.lines.push('\n');
        self.records.push(MemoryRecord {
            step: self.current_step,
            kind,
            entities,
            line_start: self.trimmed + start,
            tokens_before,
        });
        self.trim();
    }

    /// Drops the records below the window cutoff, and their lines, once
    /// those lines make up half of the buffer. The cutoff only moves
    /// forward, so a dropped record could never be retrieved again.
    fn trim(&mut self) {
        let cutoff = self.window_cutoff();
        let dead = self.records.partition_point(|r| r.step < cutoff);
        let dead_bytes = match self.records.get(dead) {
            Some(r) => r.line_start - self.trimmed,
            None => self.lines.len(),
        };
        if dead_bytes > 0 && 2 * dead_bytes >= self.lines.len() {
            self.lines.drain(..dead_bytes);
            self.records.drain(..dead);
            self.trimmed += dead_bytes;
        }
    }

    /// Records a successfully executed skill pattern in action memory
    /// (no-op when the module is disabled).
    pub fn record_skill(&mut self, pattern: &str) {
        if self.enabled {
            *self.skills.entry(pattern.to_owned()).or_insert(0) += 1;
        }
    }

    /// How often a skill pattern has succeeded before.
    pub fn skill_familiarity(&self, pattern: &str) -> u32 {
        if self.enabled {
            self.skills.get(pattern).copied().unwrap_or(0)
        } else {
            0
        }
    }

    /// Quality bonus from a practiced skill: accumulated procedural
    /// knowledge makes re-planning the same kind of step more reliable,
    /// saturating quickly (≤ +0.04).
    pub fn skill_bonus(&self, pattern: &str) -> f64 {
        (f64::from(self.skill_familiarity(pattern)) * 0.01).min(0.04)
    }

    /// Marks an entity's knowledge as stale (reflection discovered the
    /// world no longer matches memory); it is excluded from knowledge until
    /// re-observed or the marker expires.
    pub fn mark_stale(&mut self, entity: &str) {
        self.stale.insert(entity.to_owned());
    }

    /// First step inside the retained window.
    fn window_cutoff(&self) -> usize {
        let window_steps = if self.enabled {
            match self.capacity {
                MemoryCapacity::None => 0,
                MemoryCapacity::Steps(n) => n,
                MemoryCapacity::Full => usize::MAX,
            }
        } else {
            1 // working buffer only
        };
        self.current_step.saturating_sub(window_steps)
    }

    /// Records inside the retained window. Records are stored in step
    /// order, so the window is always a suffix of the store and one
    /// binary search finds it — no per-call scan or collection.
    fn retained(&self) -> &[MemoryRecord] {
        let cutoff = self.window_cutoff();
        let start = self.records.partition_point(|r| r.step < cutoff);
        &self.records[start..]
    }

    /// Whether one entity is currently known, without materializing the
    /// full known set: a point query against landmarks, the incremental
    /// last-seen index, and the long-term store.
    pub fn knows(&self, entity: &str) -> bool {
        if self.stale.contains(entity) {
            return false;
        }
        if self.landmarks.contains(entity)
            || (self.enabled && self.dual && self.long_term.contains(entity))
        {
            return true;
        }
        match self.last_seen.get(entity) {
            Some(&seen) => {
                seen >= self.window_cutoff()
                    && (self.retrieval_mode == RetrievalMode::Multimodal
                        || text_embedding_recalls(entity, self.current_step))
            }
            None => false,
        }
    }

    /// Entity names the agent currently *knows about*: landmarks, entities
    /// in the retained window, and (with dual memory) the long-term store —
    /// minus anything marked stale.
    pub fn known_entities(&self) -> HashSet<String> {
        let mut known = self.landmarks.clone();
        // The last-seen index collapses the per-record scan: an entity is
        // in the retained window (which is the 1-step working buffer when
        // the module is disabled) iff its latest sighting is.
        let cutoff = self.window_cutoff();
        for (e, &seen) in &self.last_seen {
            if seen >= cutoff
                && (self.retrieval_mode == RetrievalMode::Multimodal
                    || text_embedding_recalls(e, self.current_step))
            {
                known.insert(e.clone());
            }
        }
        if self.enabled && self.dual {
            known.extend(self.long_term.iter().cloned());
        }
        for s in &self.stale {
            known.remove(s);
        }
        known
    }

    /// Streams retrieval context into `out` (appending), returning the
    /// measured stats and the appended text's token count. Allocation-free
    /// in steady state. The retained records' lines are one contiguous
    /// slice of the line buffer, copied with one `push_str` and counted as a
    /// difference of running totals; the at most one line written ahead of
    /// them (the summary header, or the dual-memory long-term line) counts
    /// what it writes.
    pub fn retrieve_write(&self, out: &mut String) -> RetrievalStats {
        if !self.enabled {
            return RetrievalStats {
                latency: SimDuration::ZERO,
                inconsistency_penalty: 0.0,
                records_scanned: 0,
                tokens: 0,
            };
        }
        let retained = self.retained();
        let scanned = if self.dual {
            // Short-term scan plus an indexed long-term lookup.
            retained.len().min(4) + 2
        } else {
            retained.len()
        };
        let latency = SimDuration::from_millis(20) + SimDuration::from_millis(16) * scanned as u64;

        // The rendered view is a line sequence joined by `\n` — the dual
        // path is one long-term line plus the last ≤4 records; the flat
        // path is every retained record. Summarization keeps the last 6
        // lines behind a "[N earlier entries summarized]" header.
        let mut tail = if self.dual {
            &retained[retained.len() - retained.len().min(4)..]
        } else {
            retained
        };
        let n_lines = usize::from(self.dual) + tail.len();
        const KEEP_LAST: usize = 6;
        let start = out.len();
        let mut skip = 0;
        if self.summarize && n_lines > KEEP_LAST {
            skip = n_lines - KEEP_LAST;
            let _ = writeln!(out, "[{skip} earlier entries summarized: routine progress]");
        }
        if self.dual {
            if skip == 0 {
                out.push_str("long-term: known entities ");
                for (i, e) in self.long_term_sorted.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(e);
                }
                if !tail.is_empty() {
                    out.push('\n');
                }
            } else {
                skip -= 1;
            }
        }
        tail = &tail[skip..];
        let mut tokens = Tokenizer::default().count(&out[start..]);
        if let Some(first) = tail.first() {
            // `tail` is a suffix of the records, so its lines run to the end
            // of the buffer; the last line's `\n` is left off.
            out.push_str(&self.lines[first.line_start - self.trimmed..self.lines.len() - 1]);
            tokens += self.tokens - first.tokens_before;
        }

        let inconsistency_penalty = if self.dual || retained.len() <= INCONSISTENCY_ONSET {
            0.0
        } else {
            (0.006 * (retained.len() - INCONSISTENCY_ONSET) as f64).min(0.12)
        };

        RetrievalStats {
            latency,
            inconsistency_penalty,
            records_scanned: scanned,
            tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::summarize_history;
    use embodied_llm::Tokenizer;

    /// Retrieves into a fresh buffer.
    fn retrieve(m: &MemoryModule) -> (String, RetrievalStats) {
        let mut text = String::new();
        let stats = m.retrieve_write(&mut text);
        (text, stats)
    }

    fn module(capacity: MemoryCapacity) -> MemoryModule {
        MemoryModule::new(true, capacity, false, false, vec!["room_0".into()])
    }

    /// The pre-rework `known_entities`, verbatim: clone the landmark set
    /// and re-scan every retained record. The incremental index must match
    /// it exactly.
    fn known_entities_by_record_scan(m: &MemoryModule) -> HashSet<String> {
        let mut known = m.landmarks.clone();
        for r in m.retained() {
            for e in &r.entities {
                if m.retrieval_mode == RetrievalMode::Multimodal
                    || text_embedding_recalls(e, m.current_step)
                {
                    known.insert(e.clone());
                }
            }
        }
        if m.enabled && m.dual {
            known.extend(m.long_term.iter().cloned());
        }
        for s in &m.stale {
            known.remove(s);
        }
        known
    }

    /// A test-side copy of everything stored: `(step, text, entities)`.
    type Stored = Vec<(usize, String, Vec<String>)>;

    /// The retrieval text rendered from the test's own copy of the stored
    /// records (not from the module's line buffer): every retained line
    /// collected into a `Vec<String>` and joined, as the pre-rework
    /// `retrieve` did.
    fn reference_retrieval(
        (enabled, capacity, dual, summarize): (bool, MemoryCapacity, bool, bool),
        step: usize,
        stored: &Stored,
    ) -> String {
        if !enabled {
            return String::new();
        }
        let window = match capacity {
            MemoryCapacity::None => 0,
            MemoryCapacity::Steps(n) => n,
            MemoryCapacity::Full => usize::MAX,
        };
        let cutoff = step.saturating_sub(window);
        let retained: Vec<String> = stored
            .iter()
            .filter(|(at, ..)| *at >= cutoff)
            .map(|(at, text, _)| format!("step {at}: {text}"))
            .collect();
        let lines = if dual {
            let mut items: Vec<&str> = stored
                .iter()
                .flat_map(|(.., entities)| entities.iter().map(String::as_str))
                .collect();
            items.sort_unstable();
            items.dedup();
            let mut lines = vec![format!("long-term: known entities {}", items.join(", "))];
            lines.extend(retained.iter().rev().take(4).rev().cloned());
            lines
        } else {
            retained
        };
        if summarize {
            summarize_history(&lines, 6)
        } else {
            lines.join("\n")
        }
    }

    #[test]
    fn incremental_index_matches_record_scan_across_modes() {
        let tok = Tokenizer::default();
        for enabled in [true, false] {
            for dual in [false, true] {
                for summarize in [false, true] {
                    for mode in [RetrievalMode::Multimodal, RetrievalMode::TextEmbedding] {
                        for capacity in [
                            MemoryCapacity::None,
                            MemoryCapacity::Steps(3),
                            MemoryCapacity::Full,
                        ] {
                            let setup = (enabled, capacity, dual, summarize);
                            check_mode(&tok, setup, mode);
                        }
                    }
                }
            }
        }
    }

    fn check_mode(tok: &Tokenizer, setup: (bool, MemoryCapacity, bool, bool), mode: RetrievalMode) {
        let (enabled, capacity, dual, summarize) = setup;
        let mut m = MemoryModule::new(
            enabled,
            capacity,
            dual,
            summarize,
            vec!["room_0".into(), "goal_zone".into()],
        )
        .with_retrieval_mode(mode);
        let mut stored = Stored::new();
        let mut trims = 0;
        let mut buf = String::new();
        for step in 0..40 {
            m.begin_step(step);
            let records = [
                (
                    format!("saw object_{} at step {step}", step % 5),
                    vec![format!("object_{}", step % 5)],
                ),
                (
                    format!("moved {} toward the café 🍎", "far ".repeat(step % 7)),
                    Vec::new(),
                ),
            ];
            for (text, entities) in records.into_iter().take(1 + step % 2) {
                let before = m.trimmed;
                m.store(RecordKind::Observation, &text, entities.clone());
                trims += usize::from(m.trimmed != before);
                stored.push((step, text, entities));
            }
            if step % 7 == 3 {
                m.mark_stale(&format!("object_{}", step % 5));
            }
            let expect = known_entities_by_record_scan(&m);
            assert_eq!(m.known_entities(), expect, "known set diverged at {step}");
            for i in 0..5 {
                let e = format!("object_{i}");
                assert_eq!(
                    m.knows(&e),
                    expect.contains(&e),
                    "knows({e}) diverged at step {step}"
                );
            }
            buf.clear();
            buf.push_str("[map]\n");
            let stats = m.retrieve_write(&mut buf);
            let text = &buf["[map]\n".len()..];
            assert_eq!(
                text,
                reference_retrieval(setup, step, &stored),
                "{setup:?} {mode:?}: retrieval text diverged at step {step}"
            );
            assert_eq!(
                stats.tokens,
                tok.count(text),
                "{setup:?} {mode:?}: token count diverged at step {step}"
            );
        }
        if capacity != MemoryCapacity::Full || !enabled {
            assert!(
                trims >= 3,
                "{setup:?}: only {trims} trims of the line buffer"
            );
        } else {
            assert_eq!(trims, 0, "a full-history window never trims");
        }
    }

    #[test]
    fn line_buffer_stays_bounded_by_the_window() {
        let mut m = module(MemoryCapacity::Steps(8));
        let text = "observed the corridor and moved forward toward the kitchen";
        let line = format!("step 1000: {text}\n").len();
        for step in 0..1000 {
            m.begin_step(step);
            m.store(RecordKind::Observation, text, Vec::new());
            // The window holds 9 steps of lines; trimming waits until the
            // dead lines are half of the buffer.
            assert!(
                m.lines.len() <= 2 * 10 * line,
                "buffer grew to {}",
                m.lines.len()
            );
            assert!(m.records.len() <= 20);
        }
    }

    #[test]
    fn retrieve_write_appends_without_clearing() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Action, "picked up apple_1", vec![]);
        let mut buf = String::from("[map]\nroom_0: apple_1\n");
        let stats = m.retrieve_write(&mut buf);
        assert!(buf.starts_with("[map]\n"));
        assert!(buf.ends_with("step 1: picked up apple_1"));
        assert_eq!(stats.records_scanned, 1);
        assert_eq!(stats.latency, retrieve(&m).1.latency);
    }

    #[test]
    fn disabled_memory_keeps_only_a_one_step_working_buffer() {
        let mut m = MemoryModule::new(
            false,
            MemoryCapacity::Full,
            false,
            false,
            vec!["room_0".into()],
        );
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        // The immediately preceding turn is still in working context…
        assert!(m.known_entities().contains("apple_1"));
        assert_eq!(retrieve(&m).1.latency, SimDuration::ZERO);
        // …but two steps later it is gone, and landmarks remain.
        m.begin_step(3);
        let known = m.known_entities();
        assert!(known.contains("room_0"));
        assert!(!known.contains("apple_1"));
    }

    #[test]
    fn window_forgets_old_entities() {
        let mut m = module(MemoryCapacity::Steps(3));
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        assert!(m.known_entities().contains("apple_1"));
        m.begin_step(10);
        assert!(
            !m.known_entities().contains("apple_1"),
            "entity outside the window must be forgotten"
        );
    }

    #[test]
    fn full_capacity_never_forgets() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        m.begin_step(500);
        assert!(m.known_entities().contains("apple_1"));
    }

    #[test]
    fn retrieval_latency_grows_with_records() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(0);
        let early = retrieve(&m).1.latency;
        for i in 0..50 {
            m.begin_step(i);
            m.store(RecordKind::Action, format!("did thing {i}"), vec![]);
        }
        let late = retrieve(&m).1.latency;
        assert!(late > early);
    }

    #[test]
    fn inconsistency_appears_only_with_huge_windows() {
        let mut m = module(MemoryCapacity::Full);
        for i in 0..100 {
            m.begin_step(i);
            m.store(RecordKind::Observation, format!("obs {i}"), vec![]);
        }
        assert!(retrieve(&m).1.inconsistency_penalty > 0.0);

        let mut small = module(MemoryCapacity::Steps(8));
        for i in 0..100 {
            small.begin_step(i);
            small.store(RecordKind::Observation, format!("obs {i}"), vec![]);
        }
        assert_eq!(retrieve(&small).1.inconsistency_penalty, 0.0);
    }

    #[test]
    fn dual_memory_kills_inconsistency_and_keeps_knowledge() {
        let mut m = MemoryModule::new(true, MemoryCapacity::Full, true, false, vec![]);
        for i in 0..100 {
            m.begin_step(i);
            m.store(
                RecordKind::Observation,
                format!("obs {i}"),
                vec![format!("entity_{i}")],
            );
        }
        let (_, r) = retrieve(&m);
        assert_eq!(r.inconsistency_penalty, 0.0);
        // Long-term store retains everything…
        assert!(m.known_entities().contains("entity_0"));
        // …while retrieval stays cheap.
        assert!(r.latency < SimDuration::from_millis(200));
    }

    #[test]
    fn stale_entities_are_suppressed_then_recover() {
        let mut m = module(MemoryCapacity::Full);
        m.begin_step(1);
        m.store(RecordKind::Observation, "saw apple", vec!["apple_1".into()]);
        m.mark_stale("apple_1");
        assert!(!m.known_entities().contains("apple_1"));
        // Markers expire on a step divisible by 6.
        m.begin_step(6);
        assert!(m.known_entities().contains("apple_1"));
    }

    #[test]
    fn text_embedding_mode_misses_some_entities() {
        let entities: Vec<String> = (0..40).map(|i| format!("entity_{i}")).collect();
        let mut multi = module(MemoryCapacity::Full);
        let mut text =
            module(MemoryCapacity::Full).with_retrieval_mode(RetrievalMode::TextEmbedding);
        for m in [&mut multi, &mut text] {
            m.begin_step(1);
            m.store(RecordKind::Observation, "saw things", entities.clone());
        }
        let full = multi.known_entities().len();
        let partial = text.known_entities().len();
        assert!(partial < full, "text-only recall must miss entities");
        assert!(
            partial as f64 > full as f64 * 0.6,
            "but it should still recall most ({partial}/{full})"
        );
        // Deterministic at a given step…
        assert_eq!(text.known_entities(), text.known_entities());
        // …but the missed set shifts as the query context moves on.
        let before = text.known_entities();
        text.begin_step(9);
        assert_ne!(before, text.known_entities());
    }

    #[test]
    fn retrieval_text_contains_recent_records() {
        let mut m = module(MemoryCapacity::Steps(5));
        m.begin_step(2);
        m.store(RecordKind::Action, "picked up apple_1", vec![]);
        let (text, _) = retrieve(&m);
        assert!(text.contains("picked up apple_1"));
        assert!(text.contains("step 2"));
    }

    #[test]
    fn skill_library_accumulates_and_saturates() {
        let mut m = module(MemoryCapacity::Steps(4));
        assert_eq!(m.skill_bonus("pick"), 0.0);
        for _ in 0..10 {
            m.record_skill("pick");
        }
        assert_eq!(m.skill_familiarity("pick"), 10);
        assert!((m.skill_bonus("pick") - 0.04).abs() < 1e-12, "bonus caps");
        assert_eq!(m.skill_bonus("craft"), 0.0);
    }

    #[test]
    fn disabled_memory_has_no_skill_library() {
        let mut m = MemoryModule::new(false, MemoryCapacity::Full, false, false, vec![]);
        m.record_skill("pick");
        assert_eq!(m.skill_familiarity("pick"), 0);
        assert_eq!(m.skill_bonus("pick"), 0.0);
    }

    #[test]
    fn summarization_shrinks_retrieved_text() {
        let mut plain = module(MemoryCapacity::Full);
        let mut summ = MemoryModule::new(true, MemoryCapacity::Full, false, true, vec![]);
        for i in 0..30 {
            plain.begin_step(i);
            summ.begin_step(i);
            let text = format!("observed the corridor and moved forward at step {i}");
            plain.store(RecordKind::Observation, text.clone(), vec![]);
            summ.store(RecordKind::Observation, text, vec![]);
        }
        assert!(retrieve(&summ).0.len() < retrieve(&plain).0.len() / 2);
    }
}
