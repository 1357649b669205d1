//! Set-up, the closed-loop measuring loops, and the correctness checks.
//!
//! One worker issues op `i + 1` only once op `i` has returned. Each op runs
//! under `catch_unwind`; a panic or a failed check counts as a failed op.
//! A simulated task failure (Stuck, StepLimit) is a modelled outcome, not a
//! failed op.

use crate::calib::{process_cpu_ns, SpeedProbe, PROBE_REF_NS};
use crate::host;
use crate::ledger::{
    per_layer_values, ratio, HostTotals, SimTotals, Traced, END_TO_END, PER_LAYER,
};
use crate::spans::{Recorder, Span};
use crate::stats::{median, tail, Tail};
use crate::workload::{Inputs, OpOutput, Workload};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Ops whose spans the traced run keeps for the span file.
const KEPT_SPAN_OPS: usize = 4;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed; every input derives from it.
    pub seed: u64,
    /// How long the loop measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Small inputs (easy tasks, 2-agent teams, 2-episode fleets), for the
    /// self-tests.
    pub tiny: bool,
    /// The fixed op prefix that the simulated fingerprint and exact counts
    /// cover; the loop runs at least this many ops.
    pub prefix_ops: usize,
    /// Where the traced run writes its kept spans, if anywhere.
    pub span_file: Option<PathBuf>,
}

/// A metric's measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed and no op failed.
    pub correct: bool,
    /// Ops attempted in the measuring loop.
    pub attempted: u64,
    /// Ops that panicked or failed a check.
    pub failed: u64,
    /// End-to-end (untraced) or per-layer (traced) metrics, in catalogue
    /// order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        let msg = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned());
        format!("panicked: {}", msg.unwrap_or_default())
    })
}

/// Checks every episode of op `i` ended within its env's step budget.
fn check_budget(inputs: &Inputs, i: usize, out: &OpOutput) -> Result<(), String> {
    let budgets = inputs.max_steps(i);
    for (report, budget) in out.reports().iter().zip(budgets) {
        if report.steps > budget {
            return Err(format!("{} steps over a budget of {budget}", report.steps));
        }
    }
    Ok(())
}

/// FNV-1a, 64-bit: a stable digest of rendered outputs.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `text` in.
    fn write(&mut self, text: &str) {
        for b in text.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The generated inputs plus what set-up found.
pub struct Prepared {
    /// The run's inputs.
    pub inputs: Inputs,
    /// Failed set-up checks.
    pub problems: Vec<String>,
}

/// Generates the inputs and warms up: the workload's warm-up ops, op 0
/// again (same seed must give an identical rendering), and op 0 traced
/// (must render identically to untraced).
pub fn prepare(cfg: &Config) -> Prepared {
    let inputs = Inputs::generate(cfg.workload, cfg.seed, cfg.tiny);
    let mut problems = Vec::new();
    let mut first = None;
    for i in 0..cfg.workload.warmup_ops() {
        match guarded(|| inputs.run(i)) {
            Ok(out) if i == 0 => first = Some(out.rendering()),
            Ok(_) => {}
            Err(e) => problems.push(format!("warm-up op {i}: {e}")),
        }
    }
    let again = guarded(|| inputs.run(0)).map(|o| o.rendering());
    if first.is_none() || again.as_ref().ok() != first.as_ref() {
        problems.push("op 0 rendered differently on a re-run with the same seed".into());
    }
    let rec = Recorder::shared();
    let traced = guarded(|| inputs.run_traced(0, &rec).0.rendering());
    if first.is_none() || traced.as_ref().ok() != first.as_ref() {
        problems.push("op 0 rendered differently traced and untraced".into());
    }
    Prepared { inputs, problems }
}

fn fingerprint_line(workload: Workload, ops: usize, digest: Digest, sim: &SimTotals) -> String {
    let eps = sim.episodes as f64;
    format!(
        "fingerprint {}: first {ops} ops, {} episodes, digest {:016x}, success_rate {:.4}, \
         sim_latency_s_per_episode {:.3}, tokens_per_episode {:.1}",
        workload.name(),
        sim.episodes,
        digest.0,
        ratio(sim.successes as f64, eps),
        ratio(sim.latency_s, eps),
        ratio((sim.prompt_tokens + sim.completion_tokens) as f64, eps),
    )
}

/// Runs the benchmark. Set-up time is on-CPU time from here to the end of
/// [`prepare`]; it leaves out the `exec` work a launcher's forked copy pays
/// before `main` runs (~17 ms under `cargo run`), which is not the program's.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let cpu_start = process_cpu_ns();
    let load_before = host::loadavg_1m();
    let prepared = prepare(cfg);
    let setup_cpu_ns = process_cpu_ns() - cpu_start;
    let mut out = if cfg.trace {
        traced(cfg, &prepared.inputs)?
    } else {
        untraced(cfg, &prepared.inputs, setup_cpu_ns)
    };
    if !prepared.problems.is_empty() {
        out.correct = false;
    }
    for p in &prepared.problems {
        out.lines.push(format!("CHECK FAILED: {p}"));
    }
    out.lines.push(host::metadata_json(
        cfg.workload.name(),
        cfg.seed,
        cfg.trace,
        out.attempted,
        load_before,
    ));
    Ok(out)
}

/// The loop condition shared by both loops.
fn more(cfg: &Config, loop_start: Instant, i: usize) -> bool {
    i < cfg.prefix_ops || loop_start.elapsed().as_secs_f64() < cfg.seconds
}

/// `episodes_per_s`, `sim_steps_per_s`, `op_ms_p50` and the tail of
/// per-op times `op_ms`.
fn timing(episodes: u64, steps: u64, op_ms: &[f64]) -> ([f64; 4], Option<Tail>) {
    if op_ms.is_empty() {
        return ([0.0; 4], None);
    }
    let secs = op_ms.iter().sum::<f64>() / 1e3;
    let t = tail(op_ms);
    let values = [
        episodes as f64 / secs,
        steps as f64 / secs,
        median(op_ms),
        t.value,
    ];
    (values, Some(t))
}

fn untraced(cfg: &Config, inputs: &Inputs, setup_cpu_ns: u64) -> Outcome {
    let (mut wall_op_ms, mut cpu_op_ms, mut scaled_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut episodes, mut steps, mut failed) = (0u64, 0u64, 0u64);
    let mut prefix = SimTotals::default();
    let mut digest = Digest::default();
    let mut lines = Vec::new();
    let mut speed = SpeedProbe::new();
    let setup_s = setup_cpu_ns as f64 / 1e9 * speed.factor();
    let mut peak_rss_mb = None;
    let loop_start = Instant::now();
    let mut i = 0;
    while more(cfg, loop_start, i) {
        speed.tick();
        let (wall, cpu) = (Instant::now(), process_cpu_ns());
        let result = guarded(|| inputs.run(i));
        let cpu_ms = (process_cpu_ns() - cpu) as f64 / 1e6;
        let wall_ms = wall.elapsed().as_nanos() as f64 / 1e6;
        match result.and_then(|o| check_budget(inputs, i, &o).map(|()| o)) {
            Ok(o) => {
                wall_op_ms.push(wall_ms);
                cpu_op_ms.push(cpu_ms);
                scaled_ms.push(cpu_ms * speed.factor());
                episodes += o.reports().len() as u64;
                steps += o.steps();
                if i < cfg.prefix_ops {
                    o.reports().iter().for_each(|r| prefix.add(r));
                    digest.write(&o.rendering());
                }
            }
            Err(e) => {
                failed += 1;
                lines.push(format!("FAILED op {i}: {e}"));
            }
        }
        i += 1;
        // The high-water mark creeps up with the number of ops run, and a
        // faster host or program runs more: read it at a fixed op count.
        if i == cfg.workload.rss_ops() {
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    let attempted = i as u64;
    let (scaled, p95) = timing(episodes, steps, &scaled_ms);
    let (cpu, _) = timing(episodes, steps, &cpu_op_ms);
    let (wall, _) = timing(episodes, steps, &wall_op_ms);
    let rest = [
        setup_s,
        peak_rss_mb.or_else(host::peak_rss_mb).unwrap_or(0.0),
    ];
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip(scaled.into_iter().chain(rest))
        .map(|(d, value)| Metric {
            name: d.name,
            value,
            unit: d.unit,
        })
        .collect();
    lines.push(format!(
        "op times are on-CPU times scaled to the reference host: {} speed probes, mean \
         {:.1} us against {:.1} us",
        speed.probes,
        speed.total_ns as f64 / speed.probes as f64 / 1e3,
        PROBE_REF_NS / 1e3,
    ));
    for (label, v) in [("unscaled on-CPU", cpu), ("wall-clock", wall)] {
        lines.push(format!(
            "{label}: episodes_per_s {}, sim_steps_per_s {}, op_ms_p50 {}, op_ms_p95 {}",
            v[0], v[1], v[2], v[3]
        ));
    }
    if let Some(t) = p95 {
        lines.push(format!(
            "op_ms_p95 is the p{:.2} of {} ops ({} beyond it)",
            t.percentile, t.samples, t.beyond
        ));
    }
    lines.push(format!(
        "setup_s: {} s on-CPU from the start of set-up to the first timed op, unscaled",
        setup_cpu_ns as f64 / 1e9
    ));
    lines.push(format!(
        "op_fail_ratio = {} ({failed} of {attempted} ops)",
        ratio(failed as f64, attempted as f64)
    ));
    lines.push(fingerprint_line(
        cfg.workload,
        cfg.prefix_ops.min(i),
        digest,
        &prefix,
    ));
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0);
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
        lines,
    }
}

fn traced(cfg: &Config, inputs: &Inputs) -> Result<Outcome, String> {
    let rec = Recorder::shared();
    let mut host_totals = HostTotals::default();
    let (mut all, mut prefix) = (SimTotals::default(), SimTotals::default());
    let mut digest = Digest::default();
    let mut kept: Vec<Span> = Vec::new();
    let mut lines = Vec::new();
    let mut failed = 0u64;
    let mut speed = SpeedProbe::new();
    let loop_start = Instant::now();
    let mut i = 0;
    while more(cfg, loop_start, i) {
        speed.tick();
        let factor = speed.factor();
        let t = process_cpu_ns();
        let plain = guarded(|| inputs.run(i));
        let plain_ns = process_cpu_ns() - t;
        rec.borrow_mut().start_op(i as u32);
        let t = process_cpu_ns();
        let traced = guarded(|| inputs.run_traced(i, &rec));
        let traced_ns = process_cpu_ns() - t;
        let checked = plain.and_then(|plain| {
            let (o, program_spans) = traced?;
            check_budget(inputs, i, &o)?;
            let rendering = o.rendering();
            if rendering != plain.rendering() {
                return Err("traced report differs from untraced".into());
            }
            Ok((o, program_spans, rendering))
        });
        match checked {
            Ok((o, program_spans, rendering)) => {
                host_totals.ops += 1;
                host_totals.untraced_ns += plain_ns;
                host_totals.traced_ns += traced_ns;
                let spans = rec.borrow();
                host_totals.add_spans(spans.spans(), factor);
                if i < KEPT_SPAN_OPS {
                    kept.extend_from_slice(spans.spans());
                }
                if let OpOutput::Fleet(fleet) = &o {
                    host_totals.add_fleet(&fleet.summary);
                }
                o.reports().iter().for_each(|r| all.add(r));
                all.program_spans += program_spans;
                if i < cfg.prefix_ops {
                    o.reports().iter().for_each(|r| prefix.add(r));
                    prefix.program_spans += program_spans;
                    digest.write(&rendering);
                }
            }
            Err(e) => {
                failed += 1;
                lines.push(format!("FAILED op {i}: {e}"));
            }
        }
        i += 1;
    }
    let values = per_layer_values(Traced {
        host: &host_totals,
        all: &all,
        prefix: &prefix,
    });
    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .zip(values)
        .map(|(d, value)| Metric {
            name: d.name,
            value,
            unit: d.unit,
        })
        .collect();
    lines.push(format!(
        "traced {} ops; simulated counts cover the first {} ops, host rates every op",
        host_totals.ops,
        cfg.prefix_ops.min(i)
    ));
    lines.push(fingerprint_line(
        cfg.workload,
        cfg.prefix_ops.min(i),
        digest,
        &prefix,
    ));
    if let Some(path) = &cfg.span_file {
        write_spans(path, &kept).map_err(|e| format!("writing {}: {e}", path.display()))?;
        lines.push(format!(
            "spans of the first {KEPT_SPAN_OPS} ops written to {}",
            path.display()
        ));
    }
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok(Outcome {
        correct,
        attempted: i as u64,
        failed,
        metrics,
        lines,
    })
}

/// Writes spans as tab-separated lines: op, id, parent (-1 for none),
/// layer, start and end in ns.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut text = String::from("op\tid\tparent\tlayer\tstart_ns\tend_ns\n");
    for s in spans {
        let parent = s.parent.map_or(-1, i64::from);
        let _ = writeln!(
            text,
            "{}\t{}\t{parent}\t{}\t{}\t{}",
            s.op,
            s.id,
            s.layer.name(),
            s.start_ns,
            s.end_ns
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
