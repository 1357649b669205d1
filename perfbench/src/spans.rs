//! Host-time spans recorded at layer boundaries, from the benchmark's own
//! code: around the calls it makes into the library, and inside a timing
//! decorator around the environment. Spans are stamped with the process's
//! on-CPU clock, the clock ops are timed with.

use crate::calib::process_cpu_ns;
use embodied_env::{
    AffordanceSet, Environment, ExecOutcome, LowLevel, Observation, Subgoal, TaskDifficulty,
};
use embodied_profiler::EnvFaultStats;
use std::cell::RefCell;
use std::rc::Rc;

/// The layer a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `build_env` plus the fault wrap, when the profile is not none.
    BuildEnv,
    /// `EmbodiedSystem::new`.
    SystemNew,
    /// One `step_once` call (orchestrators, agent modules, LLM, serving,
    /// guardrail, recovery) including its env children.
    Step,
    /// `Environment::observe`.
    Observe,
    /// `Environment::execute` (the embodied-exec controllers run inside).
    Execute,
    /// Every other env call: subgoal menus, affordances, progress, hooks.
    EnvQuery,
    /// `EmbodiedSystem::report`.
    Report,
    /// One whole `run_fleet` call.
    Fleet,
}

impl Layer {
    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::BuildEnv => "setup.build_env",
            Layer::SystemNew => "setup.system_new",
            Layer::Step => "core.step",
            Layer::Observe => "env.observe",
            Layer::Execute => "env.execute",
            Layer::EnvQuery => "env.query",
            Layer::Report => "profiler.report",
            Layer::Fleet => "fleet.run",
        }
    }
}

/// One closed span. `id` indexes the op's span list; spans of one op share
/// `op`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The op the span belongs to.
    pub op: u32,
    /// Index within the op.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// What the span covers.
    pub layer: Layer,
    /// Start, in on-CPU ns since the recorder was made.
    pub start_ns: u64,
    /// End, in on-CPU ns since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    /// Span length in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects the current op's spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: u64,
    op: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// The recorder, shared between the measuring loop and the env decorator.
pub type Shared = Rc<RefCell<Recorder>>;

impl Recorder {
    /// An empty recorder, shared.
    pub fn shared() -> Shared {
        Rc::new(RefCell::new(Recorder {
            origin: process_cpu_ns(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        process_cpu_ns() - self.origin
    }

    /// Clears the span list for op `op`, and any span a panicking op left
    /// open.
    pub fn start_op(&mut self, op: u32) {
        self.op = op;
        self.spans.clear();
        self.open.clear();
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn begin(&mut self, layer: Layer) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            id,
            parent: self.open.last().copied(),
            layer,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = end_ns;
    }

    /// The current op's spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of `parent`: its duration minus the part of its interval that
/// the union of `children` covers.
pub fn self_time_ns<'a>(parent: &Span, children: impl IntoIterator<Item = &'a Span>) -> u64 {
    let mut covered: Vec<(u64, u64)> = children
        .into_iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    covered.sort_unstable();
    let mut union = 0;
    let mut reach = parent.start_ns;
    for (s, e) in covered {
        let s = s.max(reach);
        if e > s {
            union += e - s;
            reach = e;
        }
    }
    parent.duration_ns() - union
}

/// A transparent `Environment` decorator recording one span per call.
/// Every trait method forwards to the wrapped env, defaults included, so
/// the episode is byte-identical to an undecorated one.
pub struct TimedEnv {
    inner: Box<dyn Environment>,
    rec: Shared,
}

impl TimedEnv {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Environment>, rec: Shared) -> Self {
        TimedEnv { inner, rec }
    }
}

fn span<T>(rec: &Shared, layer: Layer, f: impl FnOnce() -> T) -> T {
    let id = rec.borrow_mut().begin(layer);
    let out = f();
    rec.borrow_mut().end(id);
    out
}

impl Environment for TimedEnv {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn num_agents(&self) -> usize {
        self.inner.num_agents()
    }
    fn max_steps(&self) -> usize {
        self.inner.max_steps()
    }
    fn difficulty(&self) -> TaskDifficulty {
        self.inner.difficulty()
    }
    fn goal_text(&self) -> String {
        span(&self.rec, Layer::EnvQuery, || self.inner.goal_text())
    }
    fn landmarks(&self) -> Vec<String> {
        span(&self.rec, Layer::EnvQuery, || self.inner.landmarks())
    }
    fn observe(&self, agent: usize) -> Observation {
        span(&self.rec, Layer::Observe, || self.inner.observe(agent))
    }
    fn oracle_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        span(&self.rec, Layer::EnvQuery, || {
            self.inner.oracle_subgoals(agent)
        })
    }
    fn candidate_subgoals(&self, agent: usize) -> Vec<Subgoal> {
        span(&self.rec, Layer::EnvQuery, || {
            self.inner.candidate_subgoals(agent)
        })
    }
    fn affordances(&self, agent: usize) -> AffordanceSet {
        span(&self.rec, Layer::EnvQuery, || self.inner.affordances(agent))
    }
    fn execute(&mut self, agent: usize, subgoal: &Subgoal, low: &mut LowLevel) -> ExecOutcome {
        span(&self.rec, Layer::Execute, || {
            self.inner.execute(agent, subgoal, low)
        })
    }
    fn is_complete(&self) -> bool {
        span(&self.rec, Layer::EnvQuery, || self.inner.is_complete())
    }
    fn progress(&self) -> f64 {
        span(&self.rec, Layer::EnvQuery, || self.inner.progress())
    }
    fn begin_step(&mut self, step: usize) {
        span(&self.rec, Layer::EnvQuery, || self.inner.begin_step(step))
    }
    fn refresh_perception(&mut self, agent: usize) {
        span(&self.rec, Layer::EnvQuery, || {
            self.inner.refresh_perception(agent)
        })
    }
    fn env_fault_stats(&self) -> EnvFaultStats {
        self.inner.env_fault_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            id,
            parent: Some(0),
            layer: Layer::Observe,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = Span {
            parent: None,
            layer: Layer::Step,
            ..at(0, 100, 200)
        };
        let children = [at(1, 110, 130), at(2, 150, 160)];
        assert_eq!(self_time_ns(&parent, &children), 100 - 20 - 10);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        let parent = at(0, 100, 200);
        // 90..120 clips to 100..120; 115..140 overlaps it; 190..250 clips
        // to 190..200: covered = 40 + 10.
        let children = [at(1, 90, 120), at(2, 115, 140), at(3, 190, 250)];
        assert_eq!(self_time_ns(&parent, &children), 50);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        assert_eq!(self_time_ns(&parent, &[at(1, 0, 500)]), 0);
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_one() {
        let rec = Recorder::shared();
        let mut r = rec.borrow_mut();
        r.start_op(7);
        let step = r.begin(Layer::Step);
        let obs = r.begin(Layer::Observe);
        r.end(obs);
        r.end(step);
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(step));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
    }
}
