//! The three workloads and the inputs each generates from the seed.
//!
//! An op is one `run_episode` call (`team-hard`, `solo-faults`) or one
//! `run_fleet` call (`fleet-contention`). Op `i` runs system
//! `rotation[i % rotation.len()]` at seed `episode_seed(seed, i)`: the
//! rotation keeps every run's system mix balanced, and the seed alone picks
//! the episodes.

use crate::spans::{Layer, Shared, TimedEnv};
use embodied_agents::{
    episode_seed, run_episode, run_fleet, workloads, AgentFaultProfile, ChannelProfile,
    EmbodiedSystem, FleetConfig, FleetReport, RecoveryPolicy, RepairPolicy, RunOverrides,
    WorkloadSpec,
};
use embodied_env::{EnvFaultProfile, FaultyEnv, TaskDifficulty};
use embodied_llm::{
    FaultProfile, RetryPolicy, SemanticFaultProfile, ServingConfig, ServingFaultProfile,
};
use embodied_profiler::{EpisodeReport, SimDuration};

/// Per-plane fault rates of `fault_sweep --all-planes`: LLM, agent/channel,
/// semantic, serving, embodied.
const ALL_PLANES_RATES: (f64, f64, f64, f64, f64) = (0.05, 0.02, 0.10, 0.08, 0.08);

/// Episodes per `fleet-contention` op, all on one shared service.
const FLEET_EPISODES: usize = 8;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8-agent decentralized teams on hard tasks, no faults, serving
    /// pass-through: prompt, memory and dialogue work.
    TeamHard,
    /// Single-agent systems on hard tasks with all five fault planes and
    /// per-episode limited serving: env, fault and scheduler work.
    SoloFaults,
    /// 8 staggered 4-agent centralized/hybrid episodes on one shared
    /// `limited(2)` service: the event core and cross-episode queueing.
    FleetContention,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::TeamHard,
        Workload::SoloFaults,
        Workload::FleetContention,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TeamHard => "team-hard",
            Workload::SoloFaults => "solo-faults",
            Workload::FleetContention => "fleet-contention",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops set-up runs to warm up: every rotation member at least once, and
    /// enough short ops that set-up time does not hinge on a few episodes.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::TeamHard => 4,
            Workload::SoloFaults => 20,
            Workload::FleetContention => 8,
        }
    }

    /// Ops after which `peak_rss_mb` is read: about two thirds of what a
    /// 20 s run completes in a slow host phase, and enough ops that the
    /// high-water mark no longer hinges on which episodes the seed drew.
    pub fn rss_ops(self) -> usize {
        match self {
            Workload::TeamHard => 150,
            Workload::SoloFaults => 4000,
            Workload::FleetContention => 400,
        }
    }

    fn systems(self) -> &'static [&'static str] {
        match self {
            Workload::TeamHard => &["DMAS", "CoELA", "RoCo", "COMBO"],
            Workload::SoloFaults => &["DEPS", "JARVIS-1", "MP5", "DaDu-E", "EmbodiedGPT"],
            Workload::FleetContention => &["COHERENT", "HMAS", "MindAgent", "CMAS"],
        }
    }

    /// The overrides every op of this workload shares. `tiny` shrinks the
    /// inputs (easy tasks, small teams) for the self-tests.
    fn overrides(self, tiny: bool) -> RunOverrides {
        let difficulty = Some(if tiny {
            TaskDifficulty::Easy
        } else if self == Workload::FleetContention {
            TaskDifficulty::Medium
        } else {
            TaskDifficulty::Hard
        });
        let team = |n: usize| Some(if tiny { 2 } else { n });
        match self {
            Workload::TeamHard => RunOverrides {
                difficulty,
                num_agents: team(8),
                ..Default::default()
            },
            Workload::SoloFaults => {
                let (llm, agent, semantic, serving, env) = ALL_PLANES_RATES;
                RunOverrides {
                    difficulty,
                    fault_profile: Some(FaultProfile::uniform(llm)),
                    retry_policy: Some(RetryPolicy::standard()),
                    agent_faults: Some(AgentFaultProfile::uniform_with_failover(agent)),
                    channel: Some(ChannelProfile::lossy(agent)),
                    semantic_faults: Some(SemanticFaultProfile::uniform(semantic)),
                    repair_policy: Some(RepairPolicy::Reprompt { max_attempts: 2 }),
                    serving: Some(ServingConfig::limited(2).with_replicas(2)),
                    serving_faults: Some(ServingFaultProfile::stressed(serving)),
                    env_faults: Some(EnvFaultProfile::uniform(env)),
                    recovery_policy: Some(RecoveryPolicy::standard()),
                    ..Default::default()
                }
            }
            Workload::FleetContention => RunOverrides {
                difficulty,
                num_agents: team(4),
                serving: Some(ServingConfig::limited(2)),
                ..Default::default()
            },
        }
    }
}

/// What one op produced.
#[derive(Debug)]
pub enum OpOutput {
    /// One episode's report.
    Episode(Box<EpisodeReport>),
    /// One fleet's reports and summary.
    Fleet(FleetReport),
}

impl OpOutput {
    /// Every episode report the op produced.
    pub fn reports(&self) -> &[EpisodeReport] {
        match self {
            OpOutput::Episode(report) => std::slice::from_ref(report),
            OpOutput::Fleet(fleet) => &fleet.reports,
        }
    }

    /// Simulated env steps across the op's episodes.
    pub fn steps(&self) -> u64 {
        self.reports().iter().map(|r| r.steps as u64).sum()
    }

    /// The Debug rendering the byte-identity checks compare.
    pub fn rendering(&self) -> String {
        format!("{self:?}")
    }
}

/// The generated inputs of one run: the only things the program receives.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The systems ops rotate through.
    pub rotation: Vec<WorkloadSpec>,
    /// Overrides every op shares.
    pub overrides: RunOverrides,
    /// Fleet shape (`fleet-contention` only): episodes per op and config.
    pub fleet: Option<(usize, FleetConfig)>,
    /// The workload seed.
    pub seed: u64,
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64, tiny: bool) -> Inputs {
        let rotation = workload
            .systems()
            .iter()
            .map(|name| workloads::find(name).expect("every rotation member is a suite system"))
            .collect();
        let fleet = (workload == Workload::FleetContention).then(|| {
            let episodes = if tiny { 2 } else { FLEET_EPISODES };
            let config = FleetConfig::default().with_stagger(SimDuration::from_millis(500));
            (episodes, config)
        });
        Inputs {
            rotation,
            overrides: workload.overrides(tiny),
            fleet,
            seed,
        }
    }

    /// System and seed of op `i`.
    pub fn op(&self, i: usize) -> (&WorkloadSpec, u64) {
        (
            &self.rotation[i % self.rotation.len()],
            episode_seed(self.seed, i),
        )
    }

    /// Runs op `i` the way a user of the library would.
    pub fn run(&self, i: usize) -> OpOutput {
        let (spec, seed) = self.op(i);
        match self.fleet {
            Some((episodes, config)) => {
                OpOutput::Fleet(run_fleet(spec, &self.overrides, episodes, seed, config))
            }
            None => OpOutput::Episode(Box::new(run_episode(spec, &self.overrides, seed))),
        }
    }

    /// Runs op `i` with spans at the layer boundaries. Episode ops are
    /// assembled exactly as `run_episode` assembles them (env, optional
    /// fault wrap, `EmbodiedSystem::new`), with the env behind a timing
    /// decorator; a fleet op is one opaque span. Also returns how many
    /// virtual-time spans the program's own profiler recorded (0 for a
    /// fleet op).
    pub fn run_traced(&self, i: usize, rec: &Shared) -> (OpOutput, u64) {
        let (spec, seed) = self.op(i);
        if self.fleet.is_some() {
            let op = rec.borrow_mut().begin(Layer::Fleet);
            let out = self.run(i);
            rec.borrow_mut().end(op);
            return (out, 0);
        }
        let config = self.overrides.apply(spec);
        let difficulty = self.overrides.difficulty.unwrap_or_default();
        let agents = self.overrides.num_agents.unwrap_or(spec.default_agents);

        let span = rec.borrow_mut().begin(Layer::BuildEnv);
        let mut env = spec.build_env(difficulty, agents, seed);
        if !config.env_fault_profile.is_none() {
            env = Box::new(FaultyEnv::new(env, config.env_fault_profile, seed));
        }
        rec.borrow_mut().end(span);
        let env = Box::new(TimedEnv::new(env, rec.clone()));

        let span = rec.borrow_mut().begin(Layer::SystemNew);
        let mut system = EmbodiedSystem::new(spec.name, env, &config, spec.paradigm, seed);
        rec.borrow_mut().end(span);

        loop {
            let span = rec.borrow_mut().begin(Layer::Step);
            let more = system.step_once();
            rec.borrow_mut().end(span);
            if !more {
                break;
            }
        }

        let span = rec.borrow_mut().begin(Layer::Report);
        let report = system.report();
        rec.borrow_mut().end(span);
        let program_spans = system.trace().spans().len() as u64;
        (OpOutput::Episode(Box::new(report)), program_spans)
    }

    /// Step budget of every episode op `i` runs, in report order.
    pub fn max_steps(&self, i: usize) -> Vec<usize> {
        let (spec, seed) = self.op(i);
        let difficulty = self.overrides.difficulty.unwrap_or_default();
        let agents = self.overrides.num_agents.unwrap_or(spec.default_agents);
        let budget = |seed| spec.build_env(difficulty, agents, seed).max_steps();
        match self.fleet {
            Some((episodes, _)) => (0..episodes)
                .map(|j| budget(episode_seed(seed, j)))
                .collect(),
            None => vec![budget(seed)],
        }
    }
}
