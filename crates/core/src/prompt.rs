//! Prompt assembly.
//!
//! Prompts are *real strings*: system preamble, goal, current percept,
//! retrieved memory, dialogue history, and the candidate action menu. Token
//! counts therefore grow exactly the way the paper's Fig. 6 describes —
//! retrieved context and concatenated multi-agent dialogue inflate the
//! prompt step after step.

use embodied_env::Subgoal;
use std::fmt::Write as _;

/// Builder for one module's prompt at one step.
#[derive(Debug, Clone, Default)]
pub struct PromptBuilder {
    sections: Vec<(String, String)>,
}

impl PromptBuilder {
    /// Starts a prompt with the workload's system preamble.
    pub fn new(preamble: &str) -> Self {
        let mut b = PromptBuilder::default();
        b.push("system", preamble);
        b
    }

    /// Appends a named section (skipped when `body` is empty).
    pub fn push(&mut self, title: &str, body: &str) -> &mut Self {
        if !body.trim().is_empty() {
            self.sections.push((title.to_owned(), body.to_owned()));
        }
        self
    }

    /// Appends the candidate-subgoal menu, formatted as a numbered list —
    /// the action-list formalization the paper describes in §II-A.
    pub fn push_candidates(&mut self, candidates: &[Subgoal]) -> &mut Self {
        if candidates.is_empty() {
            return self;
        }
        let mut body = String::new();
        for (i, sg) in candidates.iter().enumerate() {
            let _ = writeln!(body, "({i}) {sg}");
        }
        self.push("available actions", &body)
    }

    /// Renders the final prompt text.
    pub fn build(&self) -> String {
        let mut out = String::new();
        self.build_into(&mut out);
        out
    }

    /// Renders the prompt into `out`, clearing it first. Callers on the
    /// per-step hot path hold one buffer across steps so the prompt's
    /// capacity is allocated once per episode instead of once per call.
    pub fn build_into(&self, out: &mut String) {
        out.clear();
        let needed: usize = self
            .sections
            .iter()
            .map(|(title, body)| title.len() + body.len() + 4)
            .sum();
        out.reserve(needed);
        for (title, body) in &self.sections {
            let _ = write!(out, "[{title}]\n{body}\n");
        }
    }
}

/// Zero-copy sibling of [`PromptBuilder`]: renders sections straight into a
/// caller-owned `String` instead of collecting owned `(title, body)` pairs
/// first. Produces byte-identical text to building a [`PromptBuilder`] with
/// the same pushes and calling [`PromptBuilder::build`], but performs no
/// per-section allocations — the per-step hot path reuses one buffer across
/// an entire episode.
pub struct PromptWriter<'a> {
    out: &'a mut String,
}

impl<'a> PromptWriter<'a> {
    /// Clears `out` and starts a prompt with the workload's system preamble.
    pub fn new(out: &'a mut String, preamble: &str) -> Self {
        out.clear();
        let mut w = PromptWriter { out };
        w.push("system", preamble);
        w
    }

    /// Appends a named section (skipped when `body` is empty).
    pub fn push(&mut self, title: &str, body: &str) -> &mut Self {
        if !body.trim().is_empty() {
            let _ = write!(self.out, "[{title}]\n{body}\n");
        }
        self
    }

    /// Appends a named section whose body is rendered through [`fmt::Display`]
    /// straight into the buffer — no intermediate `to_string`. Produces the
    /// same bytes as `push(title, &body.to_string())`, including skipping
    /// the section when the rendered body is empty or whitespace.
    ///
    /// [`fmt::Display`]: std::fmt::Display
    pub fn push_display(&mut self, title: &str, body: &impl std::fmt::Display) -> &mut Self {
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

    /// Appends the candidate-subgoal menu, numbered like
    /// [`PromptBuilder::push_candidates`].
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
/// single count line.
pub fn summarize_history(lines: &[String], keep_last: usize) -> String {
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

    #[test]
    fn sections_render_in_order() {
        let mut b = PromptBuilder::new("be helpful");
        b.push("goal", "deliver things")
            .push("memory", "saw an apple");
        let text = b.build();
        let goal_at = text.find("[goal]").unwrap();
        let mem_at = text.find("[memory]").unwrap();
        assert!(goal_at < mem_at);
        assert!(text.starts_with("[system]"));
    }

    #[test]
    fn build_into_reuses_buffer_and_matches_build() {
        let mut b = PromptBuilder::new("be helpful");
        b.push("goal", "deliver things");
        let mut buf = String::from("stale content from the previous step");
        b.build_into(&mut buf);
        assert_eq!(buf, b.build());
        // A second render into the same buffer is identical too.
        let before_ptr = buf.as_ptr();
        b.build_into(&mut buf);
        assert_eq!(buf, b.build());
        assert_eq!(before_ptr, buf.as_ptr(), "capacity should be reused");
    }

    #[test]
    fn empty_sections_skipped() {
        let mut b = PromptBuilder::new("x");
        b.push("empty", " ");
        assert!(!b.build().contains("[empty]"));
    }

    #[test]
    fn writer_matches_builder_byte_for_byte() {
        let candidates = [
            Subgoal::Explore,
            Subgoal::Pick {
                object: "apple_1".into(),
            },
        ];
        let mut b = PromptBuilder::new("be helpful");
        b.push("goal", "deliver things")
            .push("empty", "  ")
            .push("memory", "saw an apple")
            .push_candidates(&candidates);
        let mut buf = String::from("stale");
        PromptWriter::new(&mut buf, "be helpful")
            .push("goal", "deliver things")
            .push("empty", "  ")
            .push("memory", "saw an apple")
            .push_candidates(&candidates);
        assert_eq!(buf, b.build());
        // Empty candidate menus are skipped by both paths.
        let mut b = PromptBuilder::new("x");
        b.push_candidates(&[]);
        PromptWriter::new(&mut buf, "x").push_candidates(&[]);
        assert_eq!(buf, b.build());
    }

    #[test]
    fn candidates_are_numbered() {
        let mut b = PromptBuilder::new("x");
        b.push_candidates(&[
            Subgoal::Explore,
            Subgoal::Pick {
                object: "apple_1".into(),
            },
        ]);
        let text = b.build();
        assert!(text.contains("(0) explore"));
        assert!(text.contains("(1) pick up apple_1"));
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
