//! The metric catalogue and the totals each metric is computed from.

use crate::spans::{self_time_ns, Layer, Span};
use embodied_agents::FleetSummary;
use embodied_profiler::{EpisodeReport, ModuleKind, Outcome};

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name as `BENCHMARK.json` and the result line spell it.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    def("episodes_per_s", "1/s", "higher"),
    def("sim_steps_per_s", "1/s", "higher"),
    def("op_ms_p50", "ms", "lower"),
    def("op_ms_p95", "ms", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, measured in the traced run.
pub const PER_LAYER: [MetricDef; 39] = [
    def("core.step_self_ns_per_step", "ns", "lower"),
    def("core.host_ns_per_prompt_token", "ns", "lower"),
    def("core.host_ns_per_llm_call", "ns", "lower"),
    def("env.observe_ns_per_step", "ns", "lower"),
    def("env.observe_calls_per_step", "count", "lower"),
    def("env.execute_ns_per_step", "ns", "lower"),
    def("env.execute_calls_per_step", "count", "lower"),
    def("env.query_ns_per_step", "ns", "lower"),
    def("setup.build_env_us", "us", "lower"),
    def("setup.system_new_us", "us", "lower"),
    def("fleet.host_ns_per_event", "ns", "lower"),
    def("fleet.events_per_op", "count", "lower"),
    def("fleet.decode_events_per_op", "count", "lower"),
    def("fleet.peak_in_flight", "count", "higher"),
    def("serving.queue_delay_s_per_episode", "s", "lower"),
    def("serving.queued_per_episode", "count", "lower"),
    def("serving.prefix_hit_rate", "ratio", "higher"),
    def("faults.injected_per_episode", "count", "lower"),
    def("faults.llm_retries_per_episode", "count", "lower"),
    def("guardrail.rejections_per_episode", "count", "lower"),
    def("guardrail.repair_success_ratio", "ratio", "higher"),
    def("recovery.actions_per_episode", "count", "lower"),
    def("recovery.tokens_per_episode", "count", "lower"),
    def("profiler.report_us", "us", "lower"),
    def("profiler.spans_per_episode", "count", "lower"),
    def("core.steps_per_episode", "count", "lower"),
    def("core.progress_step_ratio", "ratio", "higher"),
    def("llm.calls_per_episode", "count", "lower"),
    def("llm.prompt_tokens_per_episode", "count", "lower"),
    def("llm.completion_tokens_per_episode", "count", "lower"),
    def("llm.max_prompt_tokens", "count", "lower"),
    def("llm.overflows_per_episode", "count", "lower"),
    def("comm.messages_per_episode", "count", "lower"),
    def("comm.useful_ratio", "ratio", "higher"),
    def("sim.success_rate", "ratio", "higher"),
    def("sim.latency_s_per_episode", "s", "lower"),
    def("sim.planning_share", "ratio", "lower"),
    def("sim.communication_share", "ratio", "lower"),
    def("trace.overhead_ratio", "ratio", "higher"),
];

/// `a / b`, or 0 when `b` is 0 (nothing to divide by: the layer did no
/// work on this workload).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Simulated statistics summed over episode reports. Deterministic for a
/// given seed and op count: a host-only change must leave them identical.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SimTotals {
    /// Episodes.
    pub episodes: u64,
    /// Successful episodes.
    pub successes: u64,
    /// Env steps.
    pub steps: u64,
    /// Steps on which some agent made progress.
    pub progress_steps: u64,
    /// Simulated end-to-end latency, s.
    pub latency_s: f64,
    /// Simulated module time, s (the share denominators).
    pub module_s: f64,
    /// Simulated planning time, s.
    pub planning_s: f64,
    /// Simulated communication time, s.
    pub communication_s: f64,
    /// LLM calls.
    pub calls: u64,
    /// Prompt tokens.
    pub prompt_tokens: u64,
    /// Completion tokens.
    pub completion_tokens: u64,
    /// Largest prompt of any step.
    pub max_prompt_tokens: u64,
    /// Context-window overflows.
    pub overflows: u64,
    /// Messages generated.
    pub messages: u64,
    /// Messages judged useful.
    pub useful_messages: u64,
    /// Simulated serving queue delay, s.
    pub queue_delay_s: f64,
    /// Requests that queued for a serving slot.
    pub queued: u64,
    /// Batched requests.
    pub batched: u64,
    /// Batched requests that hit the shared prefix.
    pub prefix_hits: u64,
    /// Injected faults: LLM, agent, channel, serving and embodied planes
    /// (the semantic plane shows as guardrail rejections).
    pub faults_injected: u64,
    /// LLM retries.
    pub llm_retries: u64,
    /// Guardrail rejections.
    pub rejections: u64,
    /// Guardrail repair attempts.
    pub repair_attempts: u64,
    /// Successful repairs.
    pub repaired: u64,
    /// Recovery interventions: re-observations, re-groundings, action
    /// retries, replan escalations.
    pub recovery_actions: u64,
    /// Tokens the recovery stack spent.
    pub recovery_tokens: u64,
    /// Virtual-time spans the program's profiler recorded (traced episode
    /// ops only).
    pub program_spans: u64,
}

impl SimTotals {
    /// Adds one episode.
    pub fn add(&mut self, r: &EpisodeReport) {
        self.episodes += 1;
        self.successes += u64::from(r.outcome == Outcome::Success);
        self.steps += r.steps as u64;
        self.progress_steps += r.step_records.iter().filter(|s| s.progress).count() as u64;
        self.latency_s += r.latency.as_secs_f64();
        self.module_s += r.breakdown.total().as_secs_f64();
        self.planning_s += r.breakdown.module(ModuleKind::Planning).as_secs_f64();
        self.communication_s += r.breakdown.module(ModuleKind::Communication).as_secs_f64();
        self.calls += r.tokens.calls;
        self.prompt_tokens += r.tokens.prompt_tokens;
        self.completion_tokens += r.tokens.completion_tokens;
        let step_max = r.step_records.iter().map(|s| s.max_prompt_tokens).max();
        self.max_prompt_tokens = self.max_prompt_tokens.max(step_max.unwrap_or(0));
        self.overflows += r.tokens.overflows;
        self.messages += r.messages.generated;
        self.useful_messages += r.messages.useful;
        self.queue_delay_s += r.serving.queue_delay.as_secs_f64();
        self.queued += r.serving.queued;
        self.batched += r.serving.batched_requests;
        self.prefix_hits += r.serving.prefix_hits;
        self.faults_injected += r.resilience.faults()
            + r.agent_faults.faults()
            + r.channel.events()
            + r.serving_faults.faults()
            + r.env_faults.faults();
        self.llm_retries += r.resilience.retries;
        self.rejections += r.repairs.rejections();
        self.repair_attempts += r.repairs.repair_attempts;
        self.repaired += r.repairs.repaired;
        self.recovery_actions += r.recovery.watchdog_reobserves
            + r.recovery.phantom_regrounds
            + r.recovery.act_retries
            + r.recovery.replan_escalations;
        self.recovery_tokens += r.recovery.recovery_tokens;
    }

    fn per_episode(&self, v: f64) -> f64 {
        ratio(v, self.episodes as f64)
    }
}

/// Host time and counts the traced run attributes to each layer. Span
/// times are on-CPU ns scaled to the reference host, as op times are.
#[derive(Debug, Default, Clone, Copy)]
pub struct HostTotals {
    /// Ops traced.
    pub ops: u64,
    /// Ops that built one system (episode ops).
    pub episode_ops: u64,
    /// `build_env` (+ fault wrap) time.
    pub build_env_ns: f64,
    /// `EmbodiedSystem::new` time.
    pub system_new_ns: f64,
    /// `report()` time.
    pub report_ns: f64,
    /// `step_once` self time: step spans minus their env children.
    pub core_self_ns: f64,
    /// `observe` time and calls inside steps.
    pub observe_ns: f64,
    /// See `observe_ns`.
    pub observe_calls: u64,
    /// `execute` time and calls inside steps.
    pub execute_ns: f64,
    /// See `execute_ns`.
    pub execute_calls: u64,
    /// Other env calls' time inside steps.
    pub query_ns: f64,
    /// `run_fleet` time.
    pub fleet_ns: f64,
    /// Event-core events across fleet ops.
    pub events: u64,
    /// `DecodeFinish` events across fleet ops.
    pub decode_events: u64,
    /// Sum over fleet ops of their peak in-flight placements.
    pub peak_in_flight: u64,
    /// On-CPU time of the untraced ops.
    pub untraced_ns: u64,
    /// On-CPU time of the same ops, traced.
    pub traced_ns: u64,
}

impl HostTotals {
    /// Attributes one op's spans, scaling their times by `factor` (the
    /// speed probe's factor when the op started).
    pub fn add_spans(&mut self, spans: &[Span], factor: f64) {
        let mut children: Vec<Vec<Span>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p as usize].push(*s);
            }
        }
        for s in spans {
            let d = s.duration_ns() as f64 * factor;
            let in_step = s.parent.map(|p| spans[p as usize].layer) == Some(Layer::Step);
            match s.layer {
                Layer::BuildEnv => self.build_env_ns += d,
                Layer::SystemNew => self.system_new_ns += d,
                Layer::Report => self.report_ns += d,
                Layer::Fleet => self.fleet_ns += d,
                Layer::Step => {
                    self.core_self_ns += self_time_ns(s, &children[s.id as usize]) as f64 * factor
                }
                Layer::Observe if in_step => {
                    self.observe_ns += d;
                    self.observe_calls += 1;
                }
                Layer::Execute if in_step => {
                    self.execute_ns += d;
                    self.execute_calls += 1;
                }
                Layer::EnvQuery if in_step => self.query_ns += d,
                Layer::Observe | Layer::Execute | Layer::EnvQuery => {}
            }
        }
        self.episode_ops += u64::from(spans.iter().any(|s| s.layer == Layer::SystemNew));
    }

    /// Adds one fleet op's summary.
    pub fn add_fleet(&mut self, summary: &FleetSummary) {
        self.events += summary.events;
        self.decode_events += summary.decode_events;
        self.peak_in_flight += u64::from(summary.peak_in_flight);
    }
}

/// Everything the traced run measured.
#[derive(Debug, Clone, Copy)]
pub struct Traced<'a> {
    /// Host attribution over every traced op.
    pub host: &'a HostTotals,
    /// Simulated totals over every traced op (host-rate denominators).
    pub all: &'a SimTotals,
    /// Simulated totals over the fixed op prefix (the exact counts).
    pub prefix: &'a SimTotals,
}

/// Values of every [`PER_LAYER`] metric, in catalogue order. A metric of a
/// layer the workload does not reach reads 0.
pub fn per_layer_values(t: Traced<'_>) -> Vec<f64> {
    let (h, a, p) = (t.host, t.all, t.prefix);
    let steps = a.steps as f64;
    let episode_ops = h.episode_ops as f64;
    let fleet_ops = (h.ops - h.episode_ops) as f64;
    let values = [
        ratio(h.core_self_ns, steps),
        ratio(h.core_self_ns, a.prompt_tokens as f64),
        ratio(h.core_self_ns, a.calls as f64),
        ratio(h.observe_ns, steps),
        ratio(h.observe_calls as f64, steps),
        ratio(h.execute_ns, steps),
        ratio(h.execute_calls as f64, steps),
        ratio(h.query_ns, steps),
        ratio(h.build_env_ns / 1e3, episode_ops),
        ratio(h.system_new_ns / 1e3, episode_ops),
        ratio(h.fleet_ns, h.events as f64),
        ratio(h.events as f64, fleet_ops),
        ratio(h.decode_events as f64, fleet_ops),
        ratio(h.peak_in_flight as f64, fleet_ops),
        p.per_episode(p.queue_delay_s),
        p.per_episode(p.queued as f64),
        ratio(p.prefix_hits as f64, p.batched as f64),
        p.per_episode(p.faults_injected as f64),
        p.per_episode(p.llm_retries as f64),
        p.per_episode(p.rejections as f64),
        ratio(p.repaired as f64, p.repair_attempts as f64),
        p.per_episode(p.recovery_actions as f64),
        p.per_episode(p.recovery_tokens as f64),
        ratio(h.report_ns / 1e3, episode_ops),
        p.per_episode(p.program_spans as f64),
        p.per_episode(p.steps as f64),
        ratio(p.progress_steps as f64, p.steps as f64),
        p.per_episode(p.calls as f64),
        p.per_episode(p.prompt_tokens as f64),
        p.per_episode(p.completion_tokens as f64),
        p.max_prompt_tokens as f64,
        p.per_episode(p.overflows as f64),
        p.per_episode(p.messages as f64),
        ratio(p.useful_messages as f64, p.messages as f64),
        p.per_episode(p.successes as f64),
        p.per_episode(p.latency_s),
        ratio(p.planning_s, p.module_s),
        ratio(p.communication_s, p.module_s),
        ratio(h.untraced_ns as f64, h.traced_ns as f64),
    ];
    values.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let first = name.chars().next();
        name.len() <= 64
            && first.is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<MetricDef> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let mut seen = std::collections::BTreeSet::new();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            assert!(matches!(m.better, "higher" | "lower"));
        }
        assert!(!valid_name("op ms"));
        assert!(!valid_name(".hidden"));
    }

    #[test]
    fn step_self_time_excludes_env_children() {
        let span = |id, parent, layer, start_ns, end_ns| Span {
            op: 0,
            id,
            parent,
            layer,
            start_ns,
            end_ns,
        };
        let spans = [
            span(0, None, Layer::Step, 0, 1000),
            span(1, Some(0), Layer::Observe, 100, 300),
            span(2, Some(0), Layer::Execute, 400, 450),
            span(3, Some(0), Layer::EnvQuery, 500, 510),
            span(4, None, Layer::Report, 1000, 1100),
            span(5, Some(4), Layer::EnvQuery, 1010, 1020),
        ];
        let mut h = HostTotals::default();
        h.add_spans(&spans, 1.0);
        assert_eq!(h.core_self_ns, f64::from(1000 - 200 - 50 - 10));
        assert_eq!((h.observe_ns, h.observe_calls), (200.0, 1));
        assert_eq!((h.execute_ns, h.execute_calls), (50.0, 1));
        assert_eq!(
            h.query_ns, 10.0,
            "env calls outside steps are not per-step work"
        );
        assert_eq!(h.report_ns, 100.0);
        let mut scaled = HostTotals::default();
        scaled.add_spans(&spans, 0.5);
        assert_eq!(scaled.core_self_ns, 370.0);
        assert_eq!(scaled.observe_ns, 100.0);
    }
}
