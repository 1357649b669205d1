//! Self-tests of the benchmark: tiny runs emit every declared metric, and
//! the catalogue matches `BENCHMARK.json`.

use embodied_profiler::JsonValue;
use perfbench::bench::{run, Config};
use perfbench::ledger::{MetricDef, END_TO_END, PER_LAYER};
use perfbench::workload::Workload;

fn tiny(workload: Workload, trace: bool) -> Config {
    Config {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        tiny: true,
        prefix_ops: 2,
        span_file: None,
    }
}

#[test]
fn tiny_runs_emit_every_metric_and_pass_their_checks() {
    for workload in Workload::ALL {
        for (trace, catalogue) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let out = run(&tiny(workload, trace)).expect("tiny run completes");
            let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let expected: Vec<&str> = catalogue.iter().map(|m| m.name).collect();
            assert_eq!(names, expected, "{} trace={trace}", workload.name());
            assert!(
                out.correct,
                "{} trace={trace}: {:?}",
                workload.name(),
                out.lines
            );
            assert_eq!(out.failed, 0);
            assert!(out.attempted >= 2);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
        }
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String, String)> {
        json.field(key)
            .and_then(|v| {
                v.as_array()
                    .ok_or_else(|| embodied_profiler::JsonError::msg(key))
            })
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.field(k)
                        .ok()
                        .and_then(|v| v.as_str())
                        .unwrap()
                        .to_string()
                };
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    };
    let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), ours(&END_TO_END));
    assert_eq!(declared("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<String> = json
        .field("workloads")
        .ok()
        .and_then(|v| v.as_array())
        .expect("workload list")
        .iter()
        .map(|w| {
            w.field("name")
                .ok()
                .and_then(|v| v.as_str())
                .unwrap()
                .to_string()
        })
        .collect();
    let names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, names);
}
