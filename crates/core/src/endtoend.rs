//! The end-to-end paradigm (paper §II-C, Fig. 1c): a single
//! vision-language-action model maps observations directly to actions —
//! no modular pipeline, no explicit memory, communication or reflection.
//!
//! The paper taxonomizes these systems (RT-2, RoboVLMs, Octo, …) but its
//! measured suite covers the modularized paradigms; this runner exists to
//! make the taxonomy executable and to demonstrate the paradigm's
//! characteristic trade-off: *much lower per-step latency* (one compact
//! forward pass instead of several LLM calls) against *degrading
//! reliability on long-horizon tasks* (no decomposition, memory or
//! self-correction to lean on).

use crate::orchestrator::Paradigm;
use embodied_env::{Environment, LowLevel, Subgoal, TaskDifficulty};
use embodied_llm::{Deployment, LlmEngine, LlmRequest, ModelProfile, Purpose, QualityModel};
use embodied_profiler::{
    EpisodeReport, LatencyBreakdown, MessageStats, ModuleKind, Outcome, Phase, PurposeLedger,
    StepRecord, Trace,
};

/// An RT-2-style vision-language-action profile: fast, compact action
/// decoding; competent on short horizons, brittle on long ones.
pub fn vla_profile() -> ModelProfile {
    ModelProfile {
        name: "VLA (RT-2-like)".into(),
        params_b: 55.0,
        deployment: Deployment::Local {
            // Action tokens decode quickly; the visual prefix dominates.
            prefill_tok_per_s: 900.0,
            decode_tok_per_s: 120.0,
        },
        context_window: 2_048,
        base_capability: 0.88,
        verbosity: 0.15, // a handful of action tokens
    }
}

/// The quality model for a VLA: identical structure, but long horizons
/// (difficulty) bite much harder — there is no planner to decompose the
/// task, so reliability decays per *remaining depth*, not per decision.
pub fn vla_quality_model() -> QualityModel {
    QualityModel {
        difficulty_weight: 0.85,
        ..Default::default()
    }
}

/// One end-to-end system: environment + one VLA model.
pub struct EndToEndSystem {
    env: Box<dyn Environment>,
    engine: LlmEngine,
    low: LowLevel,
    trace: Trace,
    step_records: Vec<StepRecord>,
    step: usize,
    /// Last failed action and the length of the failure streak: with no
    /// reflection module, a VLA has nothing to break perseveration loops.
    last_failure: Option<Subgoal>,
    failure_streak: usize,
}

impl std::fmt::Debug for EndToEndSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EndToEndSystem")
            .field("env", &self.env.name())
            .field("step", &self.step)
            .finish_non_exhaustive()
    }
}

impl EndToEndSystem {
    /// Wraps an environment with a VLA policy.
    pub fn new(env: Box<dyn Environment>, seed: u64) -> Self {
        EndToEndSystem {
            env,
            engine: LlmEngine::new(vla_profile(), seed ^ 0xe2e)
                .with_quality_model(vla_quality_model()),
            low: LowLevel::controller(seed ^ 0xe2f),
            trace: Trace::new(),
            step_records: Vec::new(),
            step: 0,
            last_failure: None,
            failure_streak: 0,
        }
    }

    /// Runs the episode: per step, one forward pass straight from pixels to
    /// an action.
    pub fn run(&mut self) -> EpisodeReport {
        let max_steps = self.env.max_steps();
        let mut by_purpose = PurposeLedger::default();
        while self.step < max_steps && !self.env.is_complete() {
            self.trace.begin_step(self.step);
            let before = self.trace.elapsed();

            // The whole pipeline is one model: the observation is the
            // prompt, the action tokens are the completion.
            let obs = self.env.observe(0);
            let prompt = format!(
                "[instruction]\n{}\n[camera]\n{}\naction tokens:",
                self.env.goal_text(),
                obs.to_prompt_text()
            );
            let response = self
                .engine
                .infer(
                    LlmRequest::new(Purpose::ActionSelection, &prompt, 60)
                        .with_difficulty(self.env.difficulty().scalar()),
                )
                .expect("observation prompt is never empty");
            // The forward pass is sensing+planning+execution fused; bill it
            // to planning (the closest single bucket, as the paper's Fig. 1c
            // collapses the pipeline into the model).
            self.trace.record(
                ModuleKind::Planning,
                Phase::LlmInference,
                0,
                response.latency,
            );
            by_purpose.record(
                response.purpose.as_str(),
                response.latency,
                response.prompt_tokens,
                response.output_tokens,
            );

            let oracle = self.env.oracle_subgoals(0);
            let candidates = self.env.candidate_subgoals(0);
            // No reflection: an unexplained failure both pulls the policy
            // into repeating itself and erodes its effective quality — the
            // compounding that makes end-to-end models short-horizon tools.
            let confusion = (0.15 * self.failure_streak as f64).min(0.45);
            // Compounding drift: without replanning or memory, a VLA's
            // reliability decays along the episode — fine for the
            // short-horizon tasks it is built for, fatal for deep chains.
            let horizon_decay = 1.0 / (1.0 + 0.03 * self.step as f64);
            let quality = (response.quality * (1.0 - confusion) * horizon_decay).clamp(0.02, 0.99);
            let perseverate = self.last_failure.clone().filter(|_| {
                let p = (0.4 + 0.15 * self.failure_streak as f64).min(0.7);
                self.engine.sample_correct(p)
            });
            let action = if let Some(repeat) = perseverate {
                repeat
            } else if self.engine.sample_correct(quality) && !oracle.is_empty() {
                oracle[0].clone()
            } else if candidates.is_empty() {
                Subgoal::Wait
            } else {
                candidates[self.engine.sample_index(candidates.len())].clone()
            };
            let outcome = self.env.execute(0, &action, &mut self.low);
            if outcome.completed || outcome.made_progress {
                self.last_failure = None;
                self.failure_streak = 0;
            } else {
                self.last_failure = Some(action.clone());
                self.failure_streak += 1;
            }
            self.trace.record(
                ModuleKind::Execution,
                Phase::Actuation,
                0,
                outcome.total_time(),
            );

            self.step_records.push(StepRecord {
                step: self.step,
                latency: self.trace.elapsed().saturating_sub(before),
                max_prompt_tokens: response.prompt_tokens,
                llm_calls: 1,
                progress: outcome.made_progress,
            });
            self.step += 1;
        }

        let outcome = if self.env.is_complete() {
            Outcome::Success
        } else if self.env.progress() == 0.0 {
            Outcome::Stuck
        } else {
            Outcome::StepLimit
        };
        let mut by_phase = PurposeLedger::default();
        for span in self.trace.spans() {
            by_phase.record(span.phase.as_str(), span.duration, 0, 0);
        }
        EpisodeReport {
            workload: format!("VLA on {}", self.env.name()),
            outcome,
            steps: self.step,
            latency: self.trace.elapsed(),
            breakdown: LatencyBreakdown::from_trace(&self.trace),
            tokens: self.engine.usage(),
            by_purpose,
            by_phase,
            messages: MessageStats::default(),
            resilience: embodied_profiler::ResilienceStats::default(),
            agent_faults: embodied_profiler::AgentFaultStats::default(),
            channel: embodied_profiler::ChannelStats::default(),
            repairs: embodied_profiler::RepairStats::default(),
            serving: embodied_profiler::ServingStats::default(),
            serving_faults: embodied_profiler::ServingFaultStats::default(),
            env_faults: embodied_profiler::EnvFaultStats::default(),
            recovery: embodied_profiler::RecoveryStats::default(),
            step_records: self.step_records.clone(),
            agents: 1,
        }
    }
}

/// Convenience: run one VLA episode on an environment kind.
pub fn run_vla_episode(
    env: crate::workloads::EnvKind,
    difficulty: TaskDifficulty,
    seed: u64,
) -> EpisodeReport {
    EndToEndSystem::new(env.build(difficulty, 1, seed), seed).run()
}

/// Marker: which paradigm this module implements.
pub const PARADIGM_NOTE: (&str, Paradigm) = ("end-to-end (Fig. 1c)", Paradigm::SingleModular);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::EnvKind;

    #[test]
    fn vla_is_fast_per_step_on_short_horizons() {
        let report = run_vla_episode(EnvKind::Kitchen, TaskDifficulty::Easy, 3);
        assert!(report.steps > 0);
        // One compact forward pass per step: far under the modular 10-30 s.
        assert!(
            report.latency_per_step().as_secs_f64() < 8.0,
            "VLA step took {}",
            report.latency_per_step()
        );
    }

    #[test]
    fn vla_succeeds_on_short_horizon_tasks() {
        let successes = (0..6)
            .filter(|&seed| {
                run_vla_episode(EnvKind::Kitchen, TaskDifficulty::Easy, seed)
                    .outcome
                    .is_success()
            })
            .count();
        assert!(successes >= 4, "only {successes}/6 easy-kitchen successes");
    }

    #[test]
    fn vla_collapses_on_long_horizons() {
        // The diamond-pickaxe chain is exactly what §II-C says end-to-end
        // models are not built for.
        let successes = (0..6)
            .filter(|&seed| {
                run_vla_episode(EnvKind::Craft, TaskDifficulty::Hard, seed)
                    .outcome
                    .is_success()
            })
            .count();
        assert!(
            successes <= 2,
            "VLA should mostly fail long-horizon crafting ({successes}/6 succeeded)"
        );
    }

    #[test]
    fn single_llm_call_per_step() {
        let report = run_vla_episode(EnvKind::Kitchen, TaskDifficulty::Easy, 1);
        assert_eq!(report.tokens.calls as usize, report.steps);
        assert!(report.step_records.iter().all(|r| r.llm_calls == 1));
    }

    #[test]
    fn deterministic() {
        let a = run_vla_episode(EnvKind::Kitchen, TaskDifficulty::Medium, 9);
        let b = run_vla_episode(EnvKind::Kitchen, TaskDifficulty::Medium, 9);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.latency, b.latency);
    }
}
