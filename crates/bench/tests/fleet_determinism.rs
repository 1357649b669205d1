//! The virtual-time fleet must be deterministic in every direction that
//! matters:
//!
//! * a fleet grid fanned across worker threads is byte-identical to the
//!   one-worker loop (each cell's fleet is single-threaded; `EMBODIED_JOBS`
//!   only schedules whole cells);
//! * with serving pass-through, the fleet is pure re-plumbing — every
//!   episode's report matches the per-episode runner byte-for-byte, which
//!   pins all pre-existing `results/*.md` (produced fleet-off) unchanged;
//! * a fleet of one books the same serving timeline as a standalone
//!   episode, so its report matches `run_episode` under every
//!   non-batching serving configuration;
//! * events colliding on one virtual instant replay in sequence-id order,
//!   so a zero-stagger fleet is exactly reproducible.

use embodied_agents::{episode_seed, run_episode, run_fleet, workloads, FleetConfig, RunOverrides};
use embodied_bench::par_map_with;
use embodied_env::TaskDifficulty;
use embodied_llm::{ServingConfig, ServingFaultProfile};
use embodied_profiler::SimDuration;

const BASE_SEED: u64 = 42;

fn contention_overrides(serving: ServingConfig) -> RunOverrides {
    RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        serving: Some(serving),
        ..Default::default()
    }
}

/// One fleet run rendered to bytes (reports + substrate summary).
fn fleet_bytes(serving: ServingConfig, episodes: usize, fleet: FleetConfig) -> String {
    let spec = workloads::find("CoELA").expect("suite member");
    let out = run_fleet(
        &spec,
        &contention_overrides(serving),
        episodes,
        BASE_SEED,
        fleet,
    );
    format!("{:?}|{:?}", out.reports, out.summary)
}

/// A contention-sweep-shaped grid: fleet size × serving policy. Each cell
/// is one whole fleet run; the worker pool schedules cells, never the
/// inside of a fleet.
fn grid_bytes(workers: usize) -> Vec<String> {
    let cells: Vec<(usize, ServingConfig)> = [2usize, 3]
        .into_iter()
        .flat_map(|n| {
            [
                ServingConfig::disabled(),
                ServingConfig::limited(1),
                ServingConfig::batched(),
            ]
            .into_iter()
            .map(move |s| (n, s))
        })
        .collect();
    par_map_with(workers, cells.len(), |i| {
        let (episodes, serving) = cells[i];
        let fleet = FleetConfig::default().with_stagger(SimDuration::from_millis(500));
        fleet_bytes(serving, episodes, fleet)
    })
}

#[test]
fn fleet_grid_bit_identical_at_one_and_four_workers() {
    assert_eq!(
        grid_bytes(1),
        grid_bytes(4),
        "EMBODIED_JOBS=4 diverged from EMBODIED_JOBS=1 on the fleet grid"
    );
}

/// The serving configurations the one-episode differential covers: the
/// pass-through, scarce slots, shedding with no headroom, replicas with
/// hedging, and the determinism table's stressed SLO tier (faults,
/// deadline, hedging, shedding).
fn differential_configs() -> Vec<(ServingConfig, Option<ServingFaultProfile>)> {
    vec![
        (ServingConfig::disabled(), None),
        (ServingConfig::limited(1), None),
        (ServingConfig::limited(2), None),
        (ServingConfig::limited(1).with_shedding(1), None),
        (
            ServingConfig::limited(1)
                .with_replicas(2)
                .with_hedging(SimDuration::from_secs(5)),
            None,
        ),
        (
            ServingConfig::limited(1)
                .with_replicas(3)
                .with_deadline(SimDuration::from_secs(45))
                .with_hedging(SimDuration::from_secs(2))
                .with_shedding(2),
            Some(ServingFaultProfile::stressed(0.6)),
        ),
    ]
}

#[test]
fn fleet_off_is_a_strict_pass_through_of_the_per_episode_runner() {
    // Serving pass-through: N multiplexed episodes must reproduce the N
    // solo runs byte-for-byte — the guarantee that keeps every
    // pre-existing results/*.md (generated fleet-off) unchanged.
    let spec = workloads::find("DEPS").expect("suite member");
    let overrides = RunOverrides {
        difficulty: Some(TaskDifficulty::Easy),
        ..Default::default()
    };
    let fleet = run_fleet(&spec, &overrides, 3, BASE_SEED, FleetConfig::default());
    for (i, report) in fleet.reports.iter().enumerate() {
        let solo = run_episode(&spec, &overrides, episode_seed(BASE_SEED, i));
        assert_eq!(
            format!("{report:?}"),
            format!("{solo:?}"),
            "episode {i}: fleet multiplexing changed a pass-through report"
        );
    }

    // A fleet of one books the same serving timeline as a standalone
    // episode, in every serving mode. Batching presets are exempt: a fleet keeps each serving window open
    // for `batch_window` so other episodes' co-arrivals can join it, while
    // a standalone episode closes its window at its own fan-out.
    //
    // A standalone episode also never contends with itself: its calls are
    // issued one after another, so nothing is ever shed, and without
    // faults or hedges no call waits for a slot. Admission control and
    // slot queueing need a shared service (a fleet of two or more).
    let configs = differential_configs();
    let specs = workloads::registry();
    let cells: Vec<(usize, usize)> = (0..specs.len())
        .flat_map(|s| (0..configs.len()).map(move |c| (s, c)))
        .collect();
    let mismatches = par_map_with(embodied_bench::jobs(), cells.len(), |i| {
        let (s, c) = cells[i];
        let (serving, faults) = configs[c];
        let overrides = RunOverrides {
            difficulty: Some(TaskDifficulty::Easy),
            serving: Some(serving),
            serving_faults: faults,
            ..Default::default()
        };
        let spec = &specs[s];
        let solo = run_episode(spec, &overrides, BASE_SEED);
        let fleet = run_fleet(spec, &overrides, 1, BASE_SEED, FleetConfig::default());
        let contended = solo.serving_faults.shed > 0
            || (faults.is_none()
                && serving.hedge_after.is_none()
                && !solo.serving.queue_delay.is_zero());
        let diverged = format!("{:?}", fleet.reports[0]) != format!("{solo:?}");
        (contended || diverged).then(|| {
            format!(
                "{} under {serving:?} + {faults:?}: shed {}, queue {}, fleet diverged: {diverged}",
                spec.name, solo.serving_faults.shed, solo.serving.queue_delay
            )
        })
    });
    let mismatches: Vec<String> = mismatches.into_iter().flatten().collect();
    assert!(
        mismatches.is_empty(),
        "standalone episode contended with itself or one-episode fleet diverged \
         from run_episode in {} cells: {mismatches:#?}",
        mismatches.len()
    );
}

#[test]
fn per_episode_queue_delay_grows_with_fleet_size() {
    // One slot shared by more episodes can only queue each of them longer:
    // the fleet-of-one baseline is the standalone episode itself.
    let spec = workloads::find("CoELA").expect("suite member");
    let overrides = contention_overrides(ServingConfig::limited(1));
    let fleet = FleetConfig::default().with_stagger(SimDuration::from_millis(500));
    let per_episode: Vec<f64> = [1usize, 2, 4]
        .into_iter()
        .map(|n| {
            let out = run_fleet(&spec, &overrides, n, BASE_SEED, fleet);
            let total: f64 = out
                .reports
                .iter()
                .map(|r| r.serving.queue_delay.as_secs_f64())
                .sum();
            total / n as f64
        })
        .collect();
    assert!(
        per_episode.windows(2).all(|w| w[0] <= w[1]),
        "per-episode queue delay fell as the fleet grew: {per_episode:?}"
    );
    let solo = run_episode(&spec, &overrides, BASE_SEED);
    assert_eq!(per_episode[0], solo.serving.queue_delay.as_secs_f64());
}

#[test]
fn equal_instant_events_replay_in_sequence_order() {
    // Zero stagger collides every arrival on the epoch instant; the
    // (virtual-time, sequence-id) tie-break must order them by push
    // sequence, reproducibly.
    let fleet = FleetConfig::default()
        .with_stagger(SimDuration::ZERO)
        .with_batch_window(SimDuration::from_secs(45));
    let a = fleet_bytes(ServingConfig::batched(), 3, fleet);
    let b = fleet_bytes(ServingConfig::batched(), 3, fleet);
    assert_eq!(a, b, "zero-stagger fleet failed to replay identically");
}

#[test]
fn contended_fleet_queues_across_episodes() {
    // The cross-episode effect itself, end to end: the same episode 0, on
    // the same one-slot serving stack, must wait longer when two more
    // episodes contend for the slot than when it runs alone.
    let spec = workloads::find("CoELA").expect("suite member");
    let overrides = contention_overrides(ServingConfig::limited(1));
    let fleet = FleetConfig::default().with_stagger(SimDuration::from_millis(500));
    let alone = run_fleet(&spec, &overrides, 1, BASE_SEED, fleet);
    let contended = run_fleet(&spec, &overrides, 3, BASE_SEED, fleet);
    let queue_alone = alone.reports[0].serving.queue_delay;
    let queue_contended = contended.reports[0].serving.queue_delay;
    assert!(
        queue_contended > queue_alone,
        "two extra in-flight episodes must add queueing to episode 0: \
         {queue_contended} vs {queue_alone} alone"
    );
    assert!(
        contended.summary.peak_in_flight >= 2,
        "{:?}",
        contended.summary
    );
    // The shared backend booked exactly the placements the episodes'
    // ledgers report: one per cohort request, one per closed batch.
    let booked: u64 = contended
        .reports
        .iter()
        .map(|r| r.serving.cohort_requests + r.serving.batches)
        .sum();
    assert_eq!(
        contended.summary.decode_events, booked,
        "{:?}",
        contended.summary
    );
}
