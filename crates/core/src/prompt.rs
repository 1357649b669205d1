//! Prompt assembly.
//!
//! Prompts are *real strings*: system preamble, goal, current percept,
//! retrieved memory, dialogue history, and the candidate action menu. Token
//! counts therefore grow exactly the way the paper's Fig. 6 describes —
//! retrieved context and concatenated multi-agent dialogue inflate the
//! prompt step after step.
//!
//! Each piece is tokenized once, where it is written: counting is additive
//! wherever two pieces meet at whitespace, and every section ends in `\n`,
//! so a prompt's token count is the sum of its sections' counts. Bodies
//! that already carry a count ([`CountedText`]: the preamble, the memory
//! window, the dialogue) are never re-scanned.

use embodied_env::Subgoal;
use embodied_llm::Tokenizer;
use std::fmt::{self, Write as _};

/// Prompt text together with its token count (`Tokenizer::count` of the
/// text), counted once when the text is produced and reused by every prompt
/// that embeds it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountedText {
    text: String,
    tokens: u64,
}

impl CountedText {
    /// Counts `text`.
    pub fn new(text: impl Into<String>) -> Self {
        let text = text.into();
        let tokens = Tokenizer::default().count(&text);
        CountedText { text, tokens }
    }

    /// The text.
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// The text's token count.
    pub fn tokens(&self) -> u64 {
        self.tokens
    }

    /// Rewrites the text in place, reusing its capacity: `render` writes
    /// into the cleared buffer and returns the token count of what it wrote
    /// (checked in debug builds) plus any value of its own.
    pub fn rewrite<T>(&mut self, render: impl FnOnce(&mut String) -> (u64, T)) -> T {
        self.text.clear();
        let (tokens, value) = render(&mut self.text);
        self.tokens = tokens;
        debug_assert_eq!(tokens, Tokenizer::default().count(&self.text));
        value
    }
}

/// Renders prompt sections straight into a caller-owned `String` and counts
/// its tokens — the per-step hot path reuses one buffer across an entire
/// episode and never re-tokenizes the whole prompt. The sections it
/// formats are counted together, one scan per run of them; bodies that
/// arrive counted are not scanned at all.
pub struct PromptWriter<'a> {
    out: &'a mut String,
    /// Tokens of `out[..counted]`; the bytes past it are not counted yet.
    tokens: u64,
    counted: usize,
}

impl<'a> PromptWriter<'a> {
    /// Clears `out` and starts a prompt with the workload's system preamble.
    pub fn new(out: &'a mut String, preamble: &CountedText) -> Self {
        out.clear();
        let mut w = PromptWriter {
            out,
            tokens: 0,
            counted: 0,
        };
        w.push_counted("system", preamble);
        w
    }

    /// Token count of everything written so far: exactly
    /// `Tokenizer::count` of the buffer.
    pub fn tokens(&self) -> u64 {
        self.tokens + Tokenizer::default().count(&self.out[self.counted..])
    }

    /// Appends a named section, its body rendered through [`fmt::Display`]
    /// straight into the buffer — no intermediate `to_string`. The section
    /// is skipped when the rendered body is empty or whitespace.
    pub fn push(&mut self, title: impl fmt::Display, body: impl fmt::Display) -> &mut Self {
        let start = self.out.len();
        let _ = writeln!(self.out, "[{title}]");
        let body_start = self.out.len();
        let _ = write!(self.out, "{body}");
        if self.out[body_start..].trim().is_empty() {
            self.out.truncate(start);
        } else {
            self.out.push('\n');
        }
        self
    }

    /// Appends a named section whose body arrives with its count: only the
    /// title line is tokenized. Same bytes as `push(title, body.as_str())`.
    pub fn push_counted(&mut self, title: impl fmt::Display, body: &CountedText) -> &mut Self {
        if !body.as_str().trim().is_empty() {
            let _ = writeln!(self.out, "[{title}]");
            self.tokens = self.tokens();
            self.out.push_str(body.as_str());
            self.out.push('\n');
            self.tokens += body.tokens();
            self.counted = self.out.len();
        }
        self
    }

    /// Appends the candidate-subgoal menu, formatted as a numbered list —
    /// the action-list formalization the paper describes in §II-A.
    pub fn push_candidates(&mut self, candidates: &[Subgoal]) -> &mut Self {
        if candidates.is_empty() {
            return self;
        }
        self.out.push_str("[available actions]\n");
        for (i, sg) in candidates.iter().enumerate() {
            let _ = writeln!(self.out, "({i}) {sg}");
        }
        self.out.push('\n');
        self
    }
}

/// Workload-specific flavor appended to the system preamble: each suite
/// member's real prompt carries its own framing (Minecraft crafting,
/// cooperative transport, kitchen orchestration, …), which is part of why
/// base prompt sizes differ across systems.
pub fn workload_flavor(workload: &str) -> &'static str {
    match workload {
        "EmbodiedGPT" => {
            "Your agent is a single robot arm in a physical kitchen rig; skills are executed by a learned low-level control policy."
        }
        "JARVIS-1" => {
            "Your agent lives in an open Minecraft world. Track your inventory, respect crafting prerequisites, and remember which biome holds which resource."
        }
        "DaDu-E" => {
            "Your agent is a wheeled household robot with a LiDAR map and a grasping arm; navigation and grasping are closed-loop."
        }
        "MP5" => {
            "Your agent perceives Minecraft through an active camera; decompose open-ended goals into situation-aware sub-objectives."
        }
        "DEPS" => {
            "Describe, explain, plan and select: diagnose failures from the symbolic game state before revising the plan."
        }
        "MindAgent" => {
            "You schedule an entire kitchen brigade: assign each cook a compatible dish stage and keep every station busy."
        }
        "OLA" => {
            "You lead an organized household team; structure who searches which room and who carries what to where."
        }
        "COHERENT" => {
            "You coordinate heterogeneous robots (quadrotor, arm, dog) via proposal-execution-feedback-adjustment."
        }
        "CMAS" => {
            "You are the central dispatcher of fixed robot arms along a conveyor of lettered zones; arms can only reach adjacent zones."
        }
        "CoELA" => {
            "You are one of several cooperative embodied agents; share what you discover, split the work, and avoid duplicated effort."
        }
        "COMBO" => {
            "Reconstruct the shared world state from egocentric views before proposing your next cooperative move."
        }
        "RoCo" => {
            "You are one robot arm in a multi-arm cell; negotiate waypoints with the other arms so trajectories do not collide."
        }
        "DMAS" => {
            "Dialogue proceeds in rounds of turn-taking; argue for the assignment you believe is globally best."
        }
        "HMAS" => {
            "A central plan primes the dialogue; give concise local feedback so the final joint plan is conflict-free."
        }
        _ => "",
    }
}

/// The standard system preamble for a workload, ~120–170 words so the base
/// prompt cost is realistic, with per-workload flavor.
pub fn system_preamble(workload: &str, role: &str) -> String {
    let flavor = workload_flavor(workload);
    format!(
        "You are the {role} module of the {workload} embodied agent system. You operate a physical agent in a partially observable environment and must pursue the long-horizon task goal efficiently. {flavor} Reason step by step about the current observation, your memory of the world, and any messages from teammates before committing to a decision. Respect the environment's physical constraints: objects must be reachable, prerequisites must be satisfied, and only one action executes per step. Prefer actions that make direct progress toward the goal; avoid repeating actions that recently failed. Answer with exactly one choice from the provided action list, followed by a brief justification of how it advances the task."
    )
}

/// A compact summarized rendering of a list of history lines (Rec. 6):
/// keeps the `keep_last` most recent verbatim and collapses the rest into a
/// single count line. The reference the memory window's summarized view is
/// tested against.
#[cfg(test)]
pub(crate) fn summarize_history(lines: &[String], keep_last: usize) -> String {
    if lines.len() <= keep_last {
        return lines.join("\n");
    }
    let omitted = lines.len() - keep_last;
    let mut out = format!("[{omitted} earlier entries summarized: routine progress]\n");
    out.push_str(&lines[lines.len() - keep_last..].join("\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use embodied_llm::Tokenizer;

    /// The owned-sections prompt builder the writer replaced, kept as the
    /// byte-level reference: collect `(title, body)` pairs, then render.
    #[derive(Default)]
    struct PromptBuilder {
        sections: Vec<(String, String)>,
    }

    impl PromptBuilder {
        fn new(preamble: &str) -> Self {
            let mut b = PromptBuilder::default();
            b.push("system", preamble);
            b
        }

        fn push(&mut self, title: &str, body: &str) -> &mut Self {
            if !body.trim().is_empty() {
                self.sections.push((title.to_owned(), body.to_owned()));
            }
            self
        }

        fn push_candidates(&mut self, candidates: &[Subgoal]) -> &mut Self {
            let mut body = String::new();
            for (i, sg) in candidates.iter().enumerate() {
                let _ = writeln!(body, "({i}) {sg}");
            }
            self.push("available actions", &body)
        }

        fn build(&self) -> String {
            let mut out = String::new();
            for (title, body) in &self.sections {
                let _ = write!(out, "[{title}]\n{body}\n");
            }
            out
        }
    }

    fn menu() -> [Subgoal; 2] {
        [
            Subgoal::Explore,
            Subgoal::Pick {
                object: "apple_1".into(),
            },
        ]
    }

    #[test]
    fn writer_matches_builder_byte_for_byte() {
        let candidates = menu();
        let mut b = PromptBuilder::new("be helpful");
        b.push("goal", "deliver things")
            .push("empty", "  ")
            .push("memory", "saw an apple")
            .push("proposed plan", &Subgoal::Explore.to_string())
            .push("dialogue", "agent 1: hi")
            .push_candidates(&candidates);
        let mut buf = String::from("stale");
        PromptWriter::new(&mut buf, &CountedText::new("be helpful"))
            .push("goal", "deliver things")
            .push(format_args!("{}", "empty"), "  ")
            .push("memory", "saw an apple")
            .push("proposed plan", &Subgoal::Explore)
            .push_counted("dialogue", &CountedText::new("agent 1: hi"))
            .push_candidates(&candidates);
        assert_eq!(buf, b.build());
        assert!(buf.starts_with("[system]\nbe helpful\n[goal]"));
        // Empty candidate menus are skipped by both paths.
        let mut b = PromptBuilder::new("x");
        b.push_candidates(&[]);
        PromptWriter::new(&mut buf, &CountedText::new("x")).push_candidates(&[]);
        assert_eq!(buf, b.build());
    }

    #[test]
    fn writer_tokens_equal_a_full_recount_for_every_push_kind() {
        let tok = Tokenizer::default();
        let preamble = CountedText::new("You are the planning module. Plan well.");
        let memory = CountedText::new("[map]\nroom_0: apple_1\nstep 3: saw 🍎 in the café");
        let mut buf = String::new();
        let mut w = PromptWriter::new(&mut buf, &preamble);
        let mut expect_steps = vec![w.tokens()];
        w.push("task goal", "deliver the apple to the table");
        expect_steps.push(w.tokens());
        w.push("skipped", " \t\n ");
        w.push_counted("skipped too", &CountedText::new("\u{3000}\n"));
        w.push("skipped display", format_args!("{}", "  "));
        w.push(
            format_args!("agent {} observation", 3),
            "émigré robots 🤖 naïveté",
        );
        w.push("attempted action", &Subgoal::Explore);
        w.push_counted("memory", &memory);
        w.push_candidates(&menu());
        w.push("long", "extraordinarily ".repeat(40));
        let total = w.tokens();
        expect_steps.push(total);
        assert_eq!(total, tok.count(&buf), "{buf:?}");
        assert!(!buf.contains("skipped"));
        // The preamble section alone: `[system]` plus the preamble's count.
        assert_eq!(expect_steps[0], 3 + preamble.tokens);
        assert!(expect_steps.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn candidates_are_numbered() {
        let mut buf = String::new();
        PromptWriter::new(&mut buf, &CountedText::new("x")).push_candidates(&menu());
        assert!(buf.contains("(0) explore"));
        assert!(buf.contains("(1) pick up apple_1"));
    }

    #[test]
    fn preamble_costs_realistic_tokens() {
        let tok = Tokenizer::default();
        let n = tok.count(&system_preamble("CoELA", "planning"));
        assert!(
            (100..300).contains(&n),
            "preamble should cost ~120-250 tokens, got {n}"
        );
    }

    #[test]
    fn every_suite_member_has_flavor() {
        for name in [
            "EmbodiedGPT",
            "JARVIS-1",
            "DaDu-E",
            "MP5",
            "DEPS",
            "MindAgent",
            "OLA",
            "COHERENT",
            "CMAS",
            "CoELA",
            "COMBO",
            "RoCo",
            "DMAS",
            "HMAS",
        ] {
            assert!(
                !workload_flavor(name).is_empty(),
                "{name} missing prompt flavor"
            );
        }
        assert!(workload_flavor("SomethingElse").is_empty());
    }

    #[test]
    fn flavors_differentiate_prompts() {
        let a = system_preamble("JARVIS-1", "planning");
        let b = system_preamble("CoELA", "planning");
        assert_ne!(a, b);
        assert!(a.contains("Minecraft"));
        assert!(b.contains("cooperative"));
    }

    #[test]
    fn summarization_collapses_old_lines() {
        let lines: Vec<String> = (0..20).map(|i| format!("step {i}: moved")).collect();
        let full = lines.join("\n");
        let summary = summarize_history(&lines, 4);
        assert!(summary.len() < full.len());
        assert!(summary.contains("16 earlier entries"));
        assert!(summary.contains("step 19"));
        assert!(!summary.contains("step 3:"));
    }

    #[test]
    fn summarization_noop_when_short() {
        let lines = vec!["a".to_owned(), "b".to_owned()];
        assert_eq!(summarize_history(&lines, 5), "a\nb");
    }
}
