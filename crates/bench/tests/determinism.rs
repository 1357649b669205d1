//! Determinism contracts of every fault and serving plane, as one table.
//!
//! Each [`Plane`] names the overrides that exercise it and the workloads
//! that cover its paradigms. Three checks run over the whole table:
//!
//! 1. aggregate Debug bytes at 1 worker equal those at 4 workers — every
//!    draw is a pure function of the episode seed;
//! 2. `SweepPlan::run_with(4)` equals the sequential per-episode loop;
//! 3. explicitly configuring a plane as quiet is byte-identical to never
//!    mentioning it, and the plane's counters stay quiet.
//!
//! Plane-specific contracts (batched replay and counts, queue-delay
//! monotonicity, SLO-tier firing, the throughput workload and the
//! `EMBODIED_JOBS`-driven sweep) follow the table. Fleet determinism lives
//! in `fleet_determinism.rs`.

use embodied_agents::{
    episode_seed, run_episode, run_fleet, workloads, AgentFaultProfile, ChannelProfile,
    FleetConfig, RecoveryPolicy, RepairPolicy, RunOverrides,
};
use embodied_bench::{par_map_with, SweepPlan};
use embodied_env::{EnvFaultProfile, TaskDifficulty};
use embodied_llm::{SemanticFaultProfile, ServingConfig, ServingFaultProfile};
use embodied_profiler::{Aggregate, EpisodeReport, SimDuration};

const EPISODES: usize = 4;
const BASE_SEED: u64 = 42;

/// One plane's row of the determinism table.
struct Plane {
    name: &'static str,
    /// Overrides the plane runs under; several when they take distinct RNG
    /// paths (e.g. re-prompt repairs draw inferences, constrain draws none).
    overrides: Vec<RunOverrides>,
    /// Workloads the worker-count check covers.
    workloads: &'static [&'static str],
    /// Text the aggregate's Debug rendering must contain, proving the
    /// plane's counters are part of the compared bytes.
    marker: &'static str,
    /// Workload and seed bases of the `SweepPlan` check (first overrides).
    plan: Option<(&'static str, &'static [u64])>,
    /// The explicit-quiet check, when the plane has an off switch.
    quiet: Option<Quiet>,
}

/// An explicitly quiet configuration and the run it must equal.
struct Quiet {
    explicit: RunOverrides,
    baseline: RunOverrides,
    workloads: &'static [&'static str],
    /// The plane's counters on the explicit run must report quiet.
    is_quiet: fn(&EpisodeReport) -> bool,
}

fn stressed_serving() -> RunOverrides {
    RunOverrides {
        serving: Some(
            ServingConfig::limited(1)
                .with_replicas(3)
                .with_deadline(SimDuration::from_secs(45))
                .with_hedging(SimDuration::from_secs(2))
                .with_shedding(2),
        ),
        serving_faults: Some(ServingFaultProfile::stressed(0.6)),
        ..Default::default()
    }
}

fn env_faulted() -> RunOverrides {
    RunOverrides {
        difficulty: Some(TaskDifficulty::Medium),
        env_faults: Some(EnvFaultProfile::uniform(0.12)),
        recovery_policy: Some(RecoveryPolicy::standard()),
        ..Default::default()
    }
}

fn serving(config: ServingConfig) -> RunOverrides {
    RunOverrides {
        serving: Some(config),
        ..Default::default()
    }
}

fn semantic(policy: RepairPolicy) -> RunOverrides {
    RunOverrides {
        semantic_faults: Some(SemanticFaultProfile::uniform(0.3)),
        repair_policy: Some(policy),
        ..Default::default()
    }
}

fn planes() -> Vec<Plane> {
    vec![
        Plane {
            name: "fault-free",
            overrides: vec![RunOverrides::default()],
            workloads: &["DEPS", "MindAgent", "CoELA"],
            marker: "mean_latency",
            plan: Some(("DEPS", &[BASE_SEED, 1000])),
            quiet: None,
        },
        Plane {
            name: "agent+channel faults",
            overrides: vec![RunOverrides {
                num_agents: Some(4),
                agent_faults: Some(AgentFaultProfile::uniform_with_failover(0.05)),
                channel: Some(ChannelProfile::lossy(0.10)),
                ..Default::default()
            }],
            workloads: &["MindAgent", "CoELA", "RoCo"],
            marker: "agent_faults",
            plan: Some(("MindAgent", &[BASE_SEED])),
            quiet: None,
        },
        Plane {
            name: "guardrail",
            overrides: vec![
                semantic(RepairPolicy::Reprompt { max_attempts: 2 }),
                semantic(RepairPolicy::Constrain),
            ],
            workloads: &["DEPS", "MindAgent", "CoELA"],
            marker: "repair_attempts",
            plan: Some(("DEPS", &[BASE_SEED])),
            quiet: Some(Quiet {
                explicit: RunOverrides {
                    semantic_faults: Some(SemanticFaultProfile::none()),
                    repair_policy: Some(RepairPolicy::Off),
                    ..Default::default()
                },
                baseline: RunOverrides::default(),
                workloads: &["DEPS", "MindAgent"],
                is_quiet: |r| r.repairs.is_quiet(),
            }),
        },
        Plane {
            name: "serving",
            overrides: vec![
                serving(ServingConfig::disabled()),
                serving(ServingConfig::limited(1)),
                serving(ServingConfig::batched()),
            ],
            workloads: &["CoELA", "COHERENT"],
            marker: "queue_delay",
            plan: None,
            quiet: Some(Quiet {
                explicit: serving(ServingConfig::disabled()),
                baseline: RunOverrides::default(),
                workloads: &["DEPS", "MindAgent", "CoELA", "HMAS", "COHERENT"],
                is_quiet: |r| r.serving.is_quiet(),
            }),
        },
        Plane {
            name: "serving faults + SLO tier",
            overrides: vec![stressed_serving()],
            workloads: &["CoELA", "COHERENT"],
            marker: "hedges_won",
            plan: None,
            quiet: Some(Quiet {
                explicit: RunOverrides {
                    serving: Some(ServingConfig::disabled().with_replicas(1)),
                    serving_faults: Some(ServingFaultProfile::none()),
                    ..Default::default()
                },
                baseline: RunOverrides::default(),
                workloads: &["CoELA", "COHERENT"],
                is_quiet: |r| r.serving_faults.is_quiet(),
            }),
        },
        Plane {
            name: "env faults + recovery",
            overrides: vec![env_faulted()],
            workloads: &["DEPS", "MindAgent", "CoELA"],
            marker: "env_faults",
            plan: Some(("CoELA", &[BASE_SEED])),
            quiet: Some(Quiet {
                explicit: RunOverrides {
                    difficulty: Some(TaskDifficulty::Medium),
                    env_faults: Some(EnvFaultProfile::none()),
                    recovery_policy: Some(RecoveryPolicy::Off),
                    ..Default::default()
                },
                baseline: RunOverrides {
                    difficulty: Some(TaskDifficulty::Medium),
                    ..Default::default()
                },
                workloads: &["DEPS", "MindAgent", "CoELA"],
                is_quiet: |r| r.env_faults.is_quiet() && r.recovery.is_quiet(),
            }),
        },
    ]
}

/// Debug rendering of the aggregate — every latency, token and per-plane
/// counter — so any cross-worker divergence is a byte diff.
fn agg_bytes(spec_name: &str, overrides: &RunOverrides, workers: usize) -> String {
    let spec = workloads::find(spec_name).expect("suite member");
    let reports = par_map_with(workers, EPISODES, |i| {
        run_episode(&spec, overrides, episode_seed(BASE_SEED, i))
    });
    format!("{:?}", Aggregate::from_reports(spec_name, &reports))
}

#[test]
fn every_plane_is_bit_identical_across_worker_counts() {
    for plane in planes() {
        for (k, overrides) in plane.overrides.iter().enumerate() {
            for name in plane.workloads {
                let seq = agg_bytes(name, overrides, 1);
                let par = agg_bytes(name, overrides, 4);
                assert_eq!(
                    seq, par,
                    "{}/{name} (overrides #{k}): jobs=4 diverged from jobs=1",
                    plane.name
                );
                assert!(
                    seq.contains(plane.marker),
                    "{}: aggregate Debug output lost `{}`",
                    plane.name,
                    plane.marker
                );
            }
        }
    }
}

#[test]
fn every_plane_sweep_plan_matches_sequential_loop() {
    for plane in planes() {
        let Some((name, bases)) = plane.plan else {
            continue;
        };
        let spec = workloads::find(name).expect("suite member");
        let overrides = &plane.overrides[0];
        let mut plan = SweepPlan::new();
        for &base in bases {
            plan.add_seeded(&spec, overrides, EPISODES, base);
        }
        let mut results = plan.run_with(4);
        for &base in bases {
            let expected: Vec<String> = (0..EPISODES)
                .map(|i| format!("{:?}", run_episode(&spec, overrides, episode_seed(base, i))))
                .collect();
            let got: Vec<String> = results.take().iter().map(|r| format!("{r:?}")).collect();
            assert_eq!(
                expected, got,
                "{}/{name}: seed base {base} diverged from its sequential reference",
                plane.name
            );
        }
    }
}

#[test]
fn explicitly_quiet_planes_match_default_runs() {
    for plane in planes() {
        let Some(quiet) = plane.quiet else {
            continue;
        };
        for name in quiet.workloads {
            let spec = workloads::find(name).expect("suite member");
            for i in 0..EPISODES {
                let seed = episode_seed(BASE_SEED, i);
                let a = run_episode(&spec, &quiet.explicit, seed);
                let b = run_episode(&spec, &quiet.baseline, seed);
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{}/{name} episode {i}: explicit quiet config changed bytes",
                    plane.name
                );
                assert!(
                    (quiet.is_quiet)(&a),
                    "{}/{name} episode {i}: quiet plane recorded activity",
                    plane.name
                );
            }
        }
    }
}

/// The throughput harness (`step_throughput`) drives DEPS/easy with a plain
/// additive seed schedule; pin that exact workload byte-identical across
/// worker counts so its episodes/hour numbers always measure the same work.
#[test]
fn throughput_workload_bit_identical_across_worker_counts() {
    let spec = workloads::find("DEPS").expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        ..Default::default()
    };
    let run = |workers: usize| -> Vec<String> {
        par_map_with(workers, 8, |i| {
            format!(
                "{:?}",
                run_episode(&spec, &overrides, 0x5eed_0000 + i as u64)
            )
        })
    };
    assert_eq!(run(1), run(4), "jobs=4 diverged from jobs=1 on DEPS/easy");
}

/// The env-driven path (`embodied_bench::sweep` reading `EMBODIED_JOBS`)
/// must agree with an explicit one-worker map. Run under
/// `EMBODIED_JOBS=4` (as scripts/verify.sh does) this exercises the
/// pool; under the default it still checks the seed schedule.
#[test]
fn env_driven_sweep_matches_sequential_reference() {
    let spec = workloads::find("MindAgent").expect("suite member");
    let overrides = RunOverrides::default();
    let reports = embodied_bench::sweep(&spec, &overrides, EPISODES);
    let base = embodied_bench::base_seed();
    let expected: Vec<String> = (0..EPISODES)
        .map(|i| {
            format!(
                "{:?}",
                run_episode(&spec, &overrides, episode_seed(base, i))
            )
        })
        .collect();
    let got: Vec<String> = reports.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(expected, got);
}

/// Batched runs replay deterministically and actually batch: same bytes on
/// a second run, nonzero batch/prefix counters, ties broken by tenant id.
#[test]
fn batched_runs_replay_and_count() {
    for name in ["CoELA", "COHERENT"] {
        let spec = workloads::find(name).expect("suite member");
        let o = serving(ServingConfig::batched());
        let seed = episode_seed(BASE_SEED, 0);
        let a = run_episode(&spec, &o, seed);
        let b = run_episode(&spec, &o, seed);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{name}: batched replay diverged"
        );
        assert!(a.serving.batches > 0, "{name}: no batches were closed");
        assert!(
            a.serving.batched_requests > a.serving.batches,
            "{name}: batches never held more than one request"
        );
        assert!(a.serving.prefix_hits > 0, "{name}: prefix cache never hit");
    }
}

/// The reports of one `EPISODES`-episode fleet sharing one service, where
/// the episodes contend for its slots.
fn fleet_reports(spec_name: &str, overrides: &RunOverrides) -> Vec<EpisodeReport> {
    let spec = workloads::find(spec_name).expect("suite member");
    run_fleet(
        &spec,
        overrides,
        EPISODES,
        BASE_SEED,
        FleetConfig::default(),
    )
    .reports
}

/// Queueing delay is monotone as slots get scarcer, and unbounded
/// concurrency never queues.
#[test]
fn queue_delay_monotone_in_scarcity() {
    let mut delays = Vec::new();
    for concurrency in [1, 2, 8] {
        let reports = fleet_reports("CoELA", &serving(ServingConfig::limited(concurrency)));
        let total: u64 = reports
            .iter()
            .map(|r| r.serving.queue_delay.as_micros())
            .sum();
        delays.push(total);
    }
    assert!(
        delays[0] >= delays[1] && delays[1] >= delays[2],
        "queue delay not monotone in scarcity: {delays:?}"
    );
    assert!(delays[0] > 0, "one slot for a team must queue");

    let unbounded = fleet_reports("CoELA", &serving(ServingConfig::disabled()));
    for (i, r) in unbounded.iter().enumerate() {
        assert!(
            r.serving.queue_delay.is_zero(),
            "unbounded concurrency queued on episode {i}"
        );
    }
}

/// The same seeds replay byte-identically in-process, and the serving fault
/// plane plus both resilience mechanisms genuinely fire.
#[test]
fn slo_runs_replay_and_fire() {
    let overrides = stressed_serving();
    for name in ["CoELA", "COHERENT"] {
        let a = fleet_reports(name, &overrides);
        let b = fleet_reports(name, &overrides);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{name}: faulted+resilient replay diverged"
        );
        let agg = Aggregate::from_reports(name, &a);
        assert!(
            agg.serving_faults.faults() > 0,
            "{name}: stressed profile injected nothing"
        );
        assert!(
            agg.serving_faults.hedges() > 0,
            "{name}: hedging never fired"
        );
        assert!(agg.serving_faults.shed > 0, "{name}: shedding never fired");
        assert!(
            agg.serving_faults.slo_total > 0,
            "{name}: no placement was measured against the deadline"
        );
    }
}
