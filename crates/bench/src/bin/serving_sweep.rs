//! Serving sweep — the shared inference service (paper Rec. 1/2: batching,
//! shared endpoints) across team size, fleet size, serving faults and
//! resilience policy. Three sections, built from one cell type:
//!
//! * **batching × team size** — CoELA and COHERENT at 2/4/8 agents,
//!   standalone episodes: co-arriving same-phase requests share one batched
//!   bill with amortized attribution and prefix reuse. A fleet keeps its
//!   batch windows open for other episodes by design, so this section stays
//!   standalone;
//! * **contention** — N staggered CoELA episodes on one shared service
//!   (`run_fleet`): backend queues and batch windows span episodes, and a
//!   session cap trades per-episode queue delay against fleet makespan;
//! * **SLO policy** — 4 agents under four serving-fault scenarios × five
//!   hedging/shedding policies, at fleet size 1 (the standalone episodes,
//!   which equal one-episode fleets) and at fleet size n (one fleet of the
//!   same n seeds), where placements overlap and admission control can
//!   fire.
//!
//! A row whose measured cells equal an earlier row of its group is not
//! printed; the table's note names the row it folded into.
//!
//! ```text
//! cargo run --release -p embodied-bench --bin serving_sweep [-- --smoke]
//! ```
//!
//! `--smoke` shrinks the grid and episode count for a fast correctness
//! pass (CI / `scripts/verify.sh`); the full run regenerates
//! `results/serving_sweep.md`. Standalone cells fan out per episode and
//! fleet cells per fleet across `EMBODIED_JOBS` workers; each fleet is
//! single-threaded, so the output is bit-identical at any worker count.

use embodied_agents::{
    episode_seed, run_episode, run_fleet, workloads, FleetConfig, FleetSummary, RunOverrides,
};
use embodied_bench::{banner, base_seed, episodes, par_map, ExperimentOutput};
use embodied_env::TaskDifficulty;
use embodied_llm::{ServingConfig, ServingFaultProfile};
use embodied_profiler::{pct, Aggregate, EpisodeReport, ModuleKind, SimDuration, Table};

/// One workload per multi-agent paradigm: CoELA (decentralized dialogue)
/// and COHERENT (centralized with per-agent feedback extraction) — the two
/// step loops with genuine same-phase fan-outs for the service to batch.
const SYSTEMS: [&str; 2] = ["CoELA", "COHERENT"];

/// The contention section's system: per-step planning fan-outs give the
/// shared window real cross-episode material to batch.
const CONTENDED: &str = "CoELA";

/// Team size of the SLO section.
const SLO_TEAM: usize = 4;

/// Per-request completion deadline: generous enough that a healthy replica
/// set meets it almost always, tight enough that a 3× brownout or a
/// cold-restart failover blows through it.
const DEADLINE: SimDuration = SimDuration::from_secs(30);

/// Hedge trigger: duplicate a placement once its primary is browned out or
/// more than this far behind.
const HEDGE_AFTER: SimDuration = SimDuration::from_secs(2);

/// Every fleet: arrivals 500 ms apart, serving windows open for 60 s.
fn fleet(max_sessions: u32) -> FleetConfig {
    FleetConfig::default()
        .with_stagger(SimDuration::from_millis(500))
        .with_batch_window(SimDuration::from_secs(60))
        .with_sessions(max_sessions)
}

/// Serving configuration: label × configuration. The smoke grid skips C=2.
fn servings(smoke: bool) -> Vec<(&'static str, ServingConfig)> {
    [
        ("off", ServingConfig::disabled()),
        ("C=1", ServingConfig::limited(1)),
        ("C=2", ServingConfig::limited(2)),
        ("batched", ServingConfig::batched()),
    ]
    .into_iter()
    .filter(|&(label, _)| !smoke || label != "C=2")
    .collect()
}

/// Fault scenario: label × injected profile × replica count.
fn scenarios(smoke: bool) -> Vec<(&'static str, ServingFaultProfile, u32)> {
    if smoke {
        vec![("brownout 0.6 ×3", ServingFaultProfile::brownouts(0.6), 3)]
    } else {
        vec![
            ("brownout 0.3 ×3", ServingFaultProfile::brownouts(0.3), 3),
            ("brownout 0.6 ×3", ServingFaultProfile::brownouts(0.6), 3),
            ("brownout 0.6 ×2", ServingFaultProfile::brownouts(0.6), 2),
            ("stressed 0.6 ×3", ServingFaultProfile::stressed(0.6), 3),
        ]
    }
}

/// Resilience policy: label × serving configuration.
fn policies(replicas: u32) -> Vec<(&'static str, ServingConfig)> {
    let base = ServingConfig::limited(2)
        .with_replicas(replicas)
        .with_deadline(DEADLINE);
    vec![
        ("none", base),
        ("hedge", base.with_hedging(HEDGE_AFTER)),
        ("shed", base.with_shedding(3)),
        (
            "hedge+shed",
            base.with_hedging(HEDGE_AFTER).with_shedding(3),
        ),
        // Admission control with no headroom: everything past the first
        // placement is shed, planning included — the degenerate point
        // where latency is cut by refusing to do the work.
        ("shed-all", base.with_shedding(1)),
    ]
}

/// One grid cell: `episodes` seeds of `system` under `overrides`, run as
/// standalone episodes or, with `fleet`, as one fleet on a shared service.
struct Cell {
    system: &'static str,
    overrides: RunOverrides,
    episodes: usize,
    fleet: Option<FleetConfig>,
}

impl Cell {
    /// Worker-pool jobs: one per standalone episode, one per whole fleet.
    fn jobs(&self) -> usize {
        if self.fleet.is_some() {
            1
        } else {
            self.episodes
        }
    }
}

/// What one cell measured.
struct Measured {
    reports: Vec<EpisodeReport>,
    agg: Aggregate,
    /// What the shared service saw; `None` for standalone cells.
    fleet: Option<FleetSummary>,
}

/// Runs every cell's jobs across the worker pool and returns the outcomes
/// in cell order, each cell's reports in seed order.
fn run(cells: &[Cell]) -> Vec<Measured> {
    let jobs: Vec<(usize, usize)> = cells
        .iter()
        .enumerate()
        .flat_map(|(c, cell)| (0..cell.jobs()).map(move |e| (c, e)))
        .collect();
    let mut runs = par_map(jobs.len(), |j| {
        let (c, e) = jobs[j];
        let cell = &cells[c];
        let spec = workloads::find(cell.system).expect("suite member");
        match cell.fleet {
            Some(fleet) => {
                let out = run_fleet(&spec, &cell.overrides, cell.episodes, base_seed(), fleet);
                (out.reports, Some(out.summary))
            }
            None => {
                let seed = episode_seed(base_seed(), e);
                (vec![run_episode(&spec, &cell.overrides, seed)], None)
            }
        }
    })
    .into_iter();
    cells
        .iter()
        .map(|cell| {
            let (mut reports, mut fleet) = (Vec::new(), None);
            for (r, f) in runs.by_ref().take(cell.jobs()) {
                reports.extend(r);
                fleet = f;
            }
            let agg = Aggregate::from_reports(cell.system, &reports);
            Measured {
                reports,
                agg,
                fleet,
            }
        })
        .collect()
}

/// `v` relative to `base` as a signed percentage; "—" without a base.
fn delta(v: f64, base: f64) -> String {
    if base == 0.0 {
        "—".to_string()
    } else {
        format!("{:+.0}%", (v / base - 1.0) * 100.0)
    }
}

/// p95 of per-step wall-clock latency across every step of every episode.
fn p95_step_secs(reports: &[EpisodeReport]) -> f64 {
    let mut lat: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.step_records.iter().map(|s| s.latency.as_secs_f64()))
        .collect();
    if lat.is_empty() {
        return 0.0;
    }
    lat.sort_by(|a, b| a.partial_cmp(b).expect("step latencies are finite"));
    let idx = ((lat.len() as f64) * 0.95).ceil() as usize;
    lat[idx.clamp(1, lat.len()) - 1]
}

/// Episodes completed per virtual hour of fleet makespan.
fn eps_per_vhour(episodes: usize, makespan: SimDuration) -> f64 {
    if makespan.is_zero() {
        0.0
    } else {
        episodes as f64 / (makespan.as_secs_f64() / 3600.0)
    }
}

/// A table whose first `group` columns split its rows into groups and whose
/// next `label` columns name a row; every later column is a measurement.
struct Grid {
    header: Vec<String>,
    group: usize,
    label: usize,
    rows: Vec<Vec<String>>,
}

impl Grid {
    /// A grid with the columns of `header`, separated by `" | "`.
    fn new(header: &str, group: usize, label: usize) -> Self {
        Grid {
            header: header.split(" | ").map(str::to_string).collect(),
            group,
            label,
            rows: Vec::new(),
        }
    }

    /// For each row, the earlier row of its group whose measured cells it
    /// repeats. The first match never folds itself, so it is printed.
    fn folds(&self) -> Vec<Option<usize>> {
        let (g, m) = (self.group, self.group + self.label);
        (0..self.rows.len())
            .map(|i| {
                let row = &self.rows[i];
                (0..i).find(|&j| self.rows[j][..g] == row[..g] && self.rows[j][m..] == row[m..])
            })
            .collect()
    }

    /// The rows that measure something new, then a note naming each folded
    /// row and the earlier row it equals.
    fn render(&self) -> String {
        let (g, m) = (self.group, self.group + self.label);
        // Label columns keep the width of the full label set, so a printed
        // row reads the same bytes whatever else folds.
        let width = |c: usize| self.rows.iter().map(|r| r[c].chars().count()).max();
        let widths: Vec<usize> = (0..m).map(|c| width(c).unwrap_or(0)).collect();
        let mut table = Table::new(self.header.iter().cloned());
        let mut notes: Vec<(String, Vec<String>)> = Vec::new();
        for (row, fold) in self.rows.iter().zip(self.folds()) {
            let Some(j) = fold else {
                let mut printed = row.clone();
                for c in g..m {
                    printed[c] = format!("{:<w$}", row[c], w = widths[c]);
                }
                table.row(printed);
                continue;
            };
            let (this, that) = (&row[g..m], &self.rows[j][g..m]);
            let shared = this.iter().zip(that).take_while(|(a, b)| a == b).count();
            let entry = format!("{} = {}", this.join(" "), that[shared..].join(" "));
            let at = row[..g].join(" ");
            match notes.iter_mut().find(|(e, _)| *e == entry) {
                Some((_, groups)) => groups.push(at),
                None => notes.push((entry, vec![at])),
            }
        }
        let mut text = table.render();
        if !notes.is_empty() {
            let named: Vec<String> = notes
                .into_iter()
                .map(|(entry, groups)| match g {
                    0 => entry,
                    _ => format!(
                        "{entry} ({} {})",
                        self.header[..g].join(" "),
                        groups.join(", ")
                    ),
                })
                .collect();
            text.push_str(&format!(
                "\nNot printed (every measured cell equals an earlier row of its group): {}.\n",
                named.join("; ")
            ));
        }
        text
    }
}

/// One fleet as a contention row: what its episodes saw and what the
/// shared service saw.
fn fleet_row(first: String, serving: &str, m: &Measured) -> Vec<String> {
    let summary = m.fleet.expect("contention cells run as fleets");
    vec![
        first,
        serving.to_string(),
        pct(m.agg.success_rate),
        format!("{:.1}", m.agg.mean_steps),
        format!("{:.0}s", m.agg.mean_latency.as_secs_f64()),
        format!("{:.1}s", m.agg.queue_delay_per_episode().as_secs_f64()),
        summary.cross_episode_batches.to_string(),
        summary.peak_in_flight.to_string(),
        format!("{:.0}s", summary.makespan.as_secs_f64()),
        format!("{:.1}", eps_per_vhour(m.reports.len(), summary.makespan)),
    ]
}

/// The columns of [`fleet_row`] after its first.
const FLEET_COLUMNS: &str = "serving | success | steps | ep latency | queue s/ep | \
                             x-ep batches | peak in-flight | makespan | eps/vh";

fn main() {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");
    let n = if smoke { 2 } else { episodes() };
    let sizes: &[usize] = if smoke { &[2, 4] } else { &[2, 4, 8] };
    let servings = servings(smoke);
    let scenarios = scenarios(smoke);
    let cap_fleet = if smoke { 4 } else { 8 };
    let caps: &[u32] = if smoke { &[0, 1] } else { &[0, 2, 1] };
    let mut slo_fleets = vec![1, n];
    slo_fleets.dedup();

    // Plan every section's cells up front, in render order, so the worker
    // pool balances across the whole experiment.
    let overrides = |difficulty, num_agents, serving, serving_faults| RunOverrides {
        difficulty: Some(difficulty),
        num_agents,
        serving: Some(serving),
        serving_faults,
        ..Default::default()
    };
    let mut cells = Vec::new();
    for system in SYSTEMS {
        for &team in sizes {
            for &(_, serving) in &servings {
                cells.push(Cell {
                    system,
                    overrides: overrides(TaskDifficulty::Medium, Some(team), serving, None),
                    episodes: n,
                    fleet: None,
                });
            }
        }
    }
    let contended = |episodes, serving, max_sessions| Cell {
        system: CONTENDED,
        overrides: overrides(TaskDifficulty::Easy, None, serving, None),
        episodes,
        fleet: Some(fleet(max_sessions)),
    };
    for &size in sizes {
        for &(_, serving) in &servings {
            cells.push(contended(size, serving, 0));
        }
    }
    for &cap in caps {
        cells.push(contended(cap_fleet, ServingConfig::limited(1), cap));
    }
    for system in SYSTEMS {
        for &size in &slo_fleets {
            for &(_, faults, replicas) in &scenarios {
                for (_, serving) in policies(replicas) {
                    cells.push(Cell {
                        system,
                        overrides: overrides(
                            TaskDifficulty::Medium,
                            Some(SLO_TEAM),
                            serving,
                            Some(faults),
                        ),
                        episodes: n,
                        fleet: (size > 1).then(|| fleet(0)),
                    });
                }
            }
        }
    }
    let mut measured = run(&cells).into_iter();
    let mut next = || measured.next().expect("one outcome per planned cell");

    let mut out = ExperimentOutput::new("serving_sweep");
    banner(
        &mut out,
        "Serving sweep",
        "Shared inference service: batching x team size, contention x fleet size, \
         SLO policy x serving faults x fleet size",
    );

    for system in SYSTEMS {
        let spec = workloads::find(system).expect("suite member");
        out.section(&format!(
            "Batching x team size: {system} ({}), standalone episodes",
            spec.paradigm
        ));
        let mut grid = Grid::new(
            "agents | serving | success | steps | plan s/step | Δ plan | comm s/step | Δ comm | \
             queue s/ep | batches/ep | occupancy | prefix hits",
            1,
            1,
        );
        for &team in sizes {
            let mut baseline = None;
            for &(label, _) in &servings {
                let agg = next().agg;
                let total_steps = (agg.mean_steps * agg.episodes as f64).max(1.0);
                let per_step = |module| agg.breakdown.module(module).as_secs_f64() / total_steps;
                let plan = per_step(ModuleKind::Planning);
                let comm = per_step(ModuleKind::Communication);
                let (plan_base, comm_base) = *baseline.get_or_insert((plan, comm));
                grid.rows.push(vec![
                    team.to_string(),
                    label.to_string(),
                    pct(agg.success_rate),
                    format!("{:.1}", agg.mean_steps),
                    format!("{plan:.1}s"),
                    delta(plan, plan_base),
                    format!("{comm:.1}s"),
                    delta(comm, comm_base),
                    format!("{:.1}s", agg.queue_delay_per_episode().as_secs_f64()),
                    format!("{:.1}", agg.serving.batches as f64 / agg.episodes as f64),
                    format!("{:.1}", agg.batch_occupancy()),
                    pct(agg.prefix_hit_rate()),
                ]);
            }
        }
        out.line(grid.render());
    }

    out.section(&format!(
        "Contention: {CONTENDED}, fleet size x serving policy (easy, 500 ms stagger)"
    ));
    let mut grid = Grid::new(&format!("episodes | {FLEET_COLUMNS}"), 1, 1);
    for &size in sizes {
        for &(label, _) in &servings {
            grid.rows.push(fleet_row(size.to_string(), label, &next()));
        }
    }
    out.line(grid.render());

    out.section(&format!(
        "Contention: {CONTENDED}, admission cap at {cap_fleet} arrivals, C=1"
    ));
    let mut grid = Grid::new(&format!("max sessions | {FLEET_COLUMNS}"), 0, 2);
    for &cap in caps {
        let label = if cap == 0 {
            "∞".to_string()
        } else {
            cap.to_string()
        };
        grid.rows.push(fleet_row(label, "C=1", &next()));
    }
    out.line(grid.render());

    for system in SYSTEMS {
        let spec = workloads::find(system).expect("suite member");
        for &size in &slo_fleets {
            let shape = if size == 1 {
                "standalone episodes (fleets of 1)".to_string()
            } else {
                format!("one fleet of {size}")
            };
            out.section(&format!(
                "SLO policy: {system} ({}), {SLO_TEAM} agents, {shape}",
                spec.paradigm
            ));
            let mut grid = Grid::new(
                "faults | policy | success | steps | p95 step | Δ p95 | SLO | hedges/ep | won | \
                 shed/ep | miss/ep | Δ cost",
                0,
                2,
            );
            for &(scenario, _, replicas) in &scenarios {
                let mut baseline = None;
                for (label, _) in policies(replicas) {
                    let m = next();
                    let agg = &m.agg;
                    let eps = agg.episodes.max(1) as f64;
                    let p95 = p95_step_secs(&m.reports);
                    let cost = agg.tokens.cost_usd / eps;
                    let (p95_base, cost_base) = *baseline.get_or_insert((p95, cost));
                    grid.rows.push(vec![
                        scenario.to_string(),
                        label.to_string(),
                        pct(agg.success_rate),
                        format!("{:.1}", agg.mean_steps),
                        format!("{p95:.1}s"),
                        delta(p95, p95_base),
                        pct(agg.slo_attainment()),
                        format!("{:.1}", agg.hedges_per_episode()),
                        format!("{:.1}", agg.serving_faults.hedges_won as f64 / eps),
                        format!("{:.1}", agg.shed_per_episode()),
                        format!("{:.1}", agg.serving_faults.deadline_misses as f64 / eps),
                        delta(cost, cost_base),
                    ]);
                }
            }
            out.line(grid.render());
        }
    }

    out.line(READING);
}

/// The reading printed under the tables.
const READING: &str = "Reading: batching folds a step's co-arriving planning (CoELA) or \
     feedback-extraction (COHERENT) fan-out into one shared bill, so the batched module's \
     per-step latency drops as the team grows, and every batch member past the first reuses \
     the shared system-preamble prefix. On the decentralized loop this is a semantic shift, \
     not just cheaper accounting: concurrently-planned agents cannot see teammates' same-step \
     executions, so CoELA trades per-step latency against extra steps; centralized extraction \
     has no such coupling, so COHERENT keeps identical decisions. C=1 and C=2 fold into \
     serving-off because a standalone episode issues its calls one after another (agent i+1's \
     prompt depends on agent i's message or execution): each request finds the previous one \
     finished, so slots never queue, nothing is shed, and two replicas equal three. Slots \
     become scarce only when episodes share a service. In the contention tables, C=1 queue \
     delay per episode grows with fleet size, a serving window opened by one episode collects \
     its neighbours' fan-outs (cross-episode batches), and capping concurrent sessions drains \
     the queue admitted episodes see while arrivals wait outside and makespan stretches. In \
     the SLO tables replicas brown out (service time inflated 3x) or crash and cold-restart, \
     and each placement is scored against a 30 s deadline. Standalone, hedging races a \
     browned-out placement against a duplicate on a healthy peer and takes the first \
     completion: p95 step latency drops, and the loser's billed tokens are the cost premium. \
     In one fleet of the same seeds placements overlap: duplicates hold slots other episodes \
     need, so hedges lose races and buy less tail, or add to it. Shedding fires there: past 3 \
     placements in service it refuses low-priority calls (reflection, communication, \
     summarization); shed-all refuses planning too, so latency and cost fall because the work \
     is not done, and success collapses.";

#[cfg(test)]
mod tests {
    use super::Grid;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|c| c.to_string()).collect()
    }

    fn grid(rows: &[&[&str]]) -> Grid {
        let mut grid = Grid::new("agents | serving | steps | queue", 1, 1);
        grid.rows = rows.iter().map(|r| row(r)).collect();
        grid
    }

    #[test]
    fn a_row_equal_to_an_earlier_row_of_its_group_folds_into_it() {
        let grid = grid(&[&["2", "off", "13.7", "0.0s"], &["2", "C=1", "13.7", "0.0s"]]);
        assert_eq!(grid.folds(), vec![None, Some(0)]);
        let text = grid.render();
        assert_eq!(
            text.matches("| 2 ").count(),
            1,
            "folded row printed:\n{text}"
        );
        assert!(
            text.contains("C=1 = off (agents 2)"),
            "fold not named:\n{text}"
        );
    }

    #[test]
    fn a_row_differing_in_any_one_measured_cell_is_kept() {
        for cell in 2..4 {
            let mut other = row(&["2", "C=1", "13.7", "0.0s"]);
            other[cell].push('1');
            let mut grid = grid(&[&["2", "off", "13.7", "0.0s"]]);
            grid.rows.push(other);
            assert_eq!(grid.folds(), vec![None, None], "cell {cell}");
            assert!(!grid.render().contains("Not printed"));
        }
    }

    #[test]
    fn the_first_row_of_a_group_is_always_kept() {
        let grid = grid(&[
            &["2", "off", "13.7", "0.0s"],
            &["4", "C=1", "13.7", "0.0s"],
            &["4", "C=2", "13.7", "0.0s"],
        ]);
        assert_eq!(grid.folds(), vec![None, None, Some(1)]);
        let text = grid.render();
        assert!(
            text.contains("| 4      | C=1"),
            "first row of group 4:\n{text}"
        );
        assert!(text.contains("C=2 = C=1 (agents 4)"), "{text}");
    }
}
