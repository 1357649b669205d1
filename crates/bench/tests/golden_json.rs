//! Golden JSON for every record config and tag enum.
//!
//! `golden/json.txt` holds the exact rendered bytes of each type's
//! `default()`/`none()`, one non-trivial constructor, and every tag. The
//! test renders the same table, compares it byte for byte, and round-trips
//! every entry. A second table checks that one out-of-range value per
//! validated type is rejected with an error naming both the type and the
//! field.

use embodied_agents::{AgentFaultProfile, ChannelProfile, ModuleToggles, Optimizations};
use embodied_bench::{RetryPreset, ServingPreset};
use embodied_env::{BoxVariant, EnvFaultProfile, TaskDifficulty, TrajectoryPlanner};
use embodied_llm::{
    FaultProfile, FleetConfig, FleetSummary, ModelProfile, Quantization, RetryPolicy,
    SemanticFaultProfile, ServingConfig, ServingFaultProfile, MAX_SERVING_WIDTH,
};
use embodied_profiler::{FromJson, JsonValue, SimDuration, ToJson};
use std::fmt::Debug;

const GOLDEN: &str = include_str!("golden/json.txt");

/// Appends one labelled rendering to `doc` and checks it round-trips to an
/// equal value with identical bytes.
fn case<T: ToJson + FromJson + PartialEq + Debug>(doc: &mut String, label: &str, value: T) {
    let text = value.to_json().render_pretty();
    let back = T::from_json(&JsonValue::parse(&text).expect("rendered JSON parses"))
        .unwrap_or_else(|e| panic!("{label}: round trip failed: {e}"));
    assert_eq!(back, value, "{label}: round trip changed the value");
    assert_eq!(
        back.to_json().render_pretty(),
        text,
        "{label}: bytes drifted"
    );
    doc.push_str(&format!("== {label} ==\n{text}"));
}

fn golden_document() -> String {
    let mut doc = String::new();
    let d = &mut doc;
    case(d, "FaultProfile::none", FaultProfile::none());
    case(d, "FaultProfile::uniform(0.1)", FaultProfile::uniform(0.1));
    case(d, "AgentFaultProfile::none", AgentFaultProfile::none());
    case(
        d,
        "AgentFaultProfile::uniform_with_failover(0.05)",
        AgentFaultProfile::uniform_with_failover(0.05),
    );
    case(d, "ChannelProfile::none", ChannelProfile::none());
    case(d, "ChannelProfile::lossy(0.1)", ChannelProfile::lossy(0.1));
    case(
        d,
        "SemanticFaultProfile::none",
        SemanticFaultProfile::none(),
    );
    case(
        d,
        "SemanticFaultProfile::uniform(0.3)",
        SemanticFaultProfile::uniform(0.3),
    );
    case(d, "ServingFaultProfile::none", ServingFaultProfile::none());
    case(
        d,
        "ServingFaultProfile::stressed(0.6)",
        ServingFaultProfile::stressed(0.6),
    );
    case(d, "EnvFaultProfile::none", EnvFaultProfile::none());
    case(
        d,
        "EnvFaultProfile::uniform(0.12)",
        EnvFaultProfile::uniform(0.12),
    );
    case(d, "ModelProfile::gpt4_api", ModelProfile::gpt4_api());
    case(
        d,
        "ModelProfile::llama_7b_embodied",
        ModelProfile::llama_7b_embodied(),
    );
    case(d, "RetryPolicy::none", RetryPolicy::none());
    case(d, "RetryPolicy::default", RetryPolicy::default());
    case(d, "RetryPolicy::aggressive", RetryPolicy::aggressive());
    // The default leaves `deadline` and `hedge_after` unset: both `null`.
    case(d, "ServingConfig::default", ServingConfig::default());
    case(
        d,
        "ServingConfig::guarded",
        ServingConfig::limited(2)
            .with_replicas(3)
            .with_faults(ServingFaultProfile::stressed(0.2))
            .with_deadline(SimDuration::from_secs(30))
            .with_hedging(SimDuration::from_millis(2_500))
            .with_shedding(3),
    );
    case(d, "FleetConfig::default", FleetConfig::default());
    case(
        d,
        "FleetConfig::tuned",
        FleetConfig::default()
            .with_sessions(4)
            .with_stagger(SimDuration::from_millis(500))
            .with_batch_window(SimDuration::ZERO),
    );
    case(d, "FleetSummary::default", FleetSummary::default());
    case(
        d,
        "FleetSummary::busy",
        FleetSummary {
            sessions: 8,
            events: 1_014,
            peak_in_flight: 6,
            decode_events: 377,
            restarts: 2,
            cross_episode_batches: 11,
            makespan: SimDuration::from_millis(812_345),
        },
    );
    case(d, "ModuleToggles::default", ModuleToggles::default());
    case(
        d,
        "ModuleToggles::without_execution",
        ModuleToggles::without_execution(),
    );
    case(d, "Optimizations::default", Optimizations::default());
    case(
        d,
        "Optimizations::tuned",
        Optimizations {
            batching: true,
            quantization: Quantization::Awq4Bit,
            kv_cache: true,
            summarization: true,
            plan_horizon: 3,
            plan_then_communicate: true,
            cluster_size: 4,
            ..Optimizations::default()
        },
    );
    for tag in TaskDifficulty::ALL {
        case(d, &format!("TaskDifficulty::{tag:?}"), tag);
    }
    for tag in [
        TrajectoryPlanner::Rrt,
        TrajectoryPlanner::RrtStar,
        TrajectoryPlanner::RrtConnect,
    ] {
        case(d, &format!("TrajectoryPlanner::{tag:?}"), tag);
    }
    for tag in [Quantization::None, Quantization::Awq4Bit] {
        case(d, &format!("Quantization::{tag:?}"), tag);
    }
    for tag in RetryPreset::ALL {
        case(d, &format!("RetryPreset::{tag:?}"), tag);
    }
    for tag in ServingPreset::ALL {
        case(d, &format!("ServingPreset::{tag:?}"), tag);
    }
    for tag in [
        BoxVariant::BoxNet1,
        BoxVariant::BoxNet2,
        BoxVariant::Warehouse,
        BoxVariant::BoxLift,
    ] {
        case(d, &format!("BoxVariant::{tag:?}"), tag);
    }
    for tag in [
        embodied_agents::modules::RetrievalMode::Multimodal,
        embodied_agents::modules::RetrievalMode::TextEmbedding,
    ] {
        case(d, &format!("RetrievalMode::{tag:?}"), tag);
    }
    doc
}

#[test]
fn records_render_golden_bytes_and_round_trip() {
    let doc = golden_document();
    assert_eq!(doc, GOLDEN, "rendered JSON drifted from golden/json.txt");
}

/// Replaces `field` in `value`'s JSON with `bad` and asserts the parse is
/// rejected with an error that names both the type and the field.
fn rejects<T: ToJson + FromJson + Debug>(ty: &str, value: T, field: &str, bad: JsonValue) {
    let mut json = value.to_json();
    let JsonValue::Object(fields) = &mut json else {
        panic!("{ty} does not render as an object");
    };
    let slot = fields
        .iter_mut()
        .find(|(k, _)| k == field)
        .unwrap_or_else(|| panic!("{ty} has no field `{field}`"));
    slot.1 = bad;
    let err = T::from_json(&json)
        .map(|v| format!("accepted {v:?}"))
        .expect_err(&format!("{ty}.{field}: out-of-range value accepted"))
        .to_string();
    assert!(
        err.contains(ty) && err.contains(field),
        "{ty}.{field}: error does not name the type and field: {err}"
    );
}

#[test]
fn out_of_range_values_are_rejected_by_name() {
    let num = JsonValue::Num;
    rejects("FaultProfile", FaultProfile::none(), "timeout", num(1.5));
    rejects(
        "AgentFaultProfile",
        AgentFaultProfile::none(),
        "crash",
        num(-0.1),
    );
    rejects(
        "ChannelProfile",
        ChannelProfile::none(),
        "partition",
        num(2.0),
    );
    rejects(
        "SemanticFaultProfile",
        SemanticFaultProfile::none(),
        "malformed",
        num(1.01),
    );
    rejects(
        "ServingFaultProfile",
        ServingFaultProfile::none(),
        "brownout_factor",
        num(0.5),
    );
    rejects(
        "EnvFaultProfile",
        EnvFaultProfile::none(),
        "dropout",
        num(-1.0),
    );
    rejects(
        "ModelProfile",
        ModelProfile::gpt4_api(),
        "base_capability",
        num(1.2),
    );
    rejects("RetryPolicy", RetryPolicy::standard(), "jitter", num(3.0));
    rejects(
        "ServingConfig",
        ServingConfig::default(),
        "faults",
        ServingFaultProfile {
            crash_rate: 4.0,
            ..ServingFaultProfile::none()
        }
        .to_json(),
    );
    rejects(
        "FleetConfig",
        FleetConfig::default(),
        "stagger",
        SimDuration::from_secs(601).to_json(),
    );
    rejects(
        "Optimizations",
        Optimizations::default(),
        "plan_horizon",
        num(0.0),
    );
    rejects(
        "FleetSummary",
        FleetSummary::default(),
        "decode_events",
        num(5.0),
    );
}

#[test]
fn serving_widths_past_the_ceiling_are_rejected() {
    // One slot per unit of concurrency on every replica: a width past the
    // ceiling would allocate without bound, so it never parses.
    let past = JsonValue::Num(f64::from(MAX_SERVING_WIDTH) + 1.0);
    rejects(
        "ServingConfig",
        ServingConfig::default(),
        "concurrency",
        past.clone(),
    );
    rejects("ServingConfig", ServingConfig::default(), "replicas", past);
}

#[test]
fn u32_fields_reject_overflow() {
    let too_big = JsonValue::Num(f64::from(u32::MAX) + 1.0);
    rejects(
        "ServingConfig",
        ServingConfig::default(),
        "concurrency",
        too_big.clone(),
    );
    rejects(
        "RetryPolicy",
        RetryPolicy::standard(),
        "max_attempts",
        too_big.clone(),
    );
    rejects(
        "FleetConfig",
        FleetConfig::default(),
        "max_sessions",
        too_big.clone(),
    );
    rejects(
        "FleetSummary",
        FleetSummary::default(),
        "peak_in_flight",
        too_big,
    );
}
