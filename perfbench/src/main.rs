//! The Global-MMCS benchmark: one generator process that drives the
//! program through its public calls, checks every output, and prints
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod churn;
mod common;
mod frontier;
mod live;
mod media;
mod replay;

use std::fmt::Write as _;
use std::process::ExitCode;

use common::Report;

/// End-to-end metrics, printed by every untraced run: (name, unit).
const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "deliveries/s"),
];

/// Per-layer metrics, printed by every traced run: (name, unit). A
/// layer a workload does not exercise reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("sharded.publish_ns", "ns"),
    ("sharded.drain_ns_per_event", "ns"),
    ("sharded.subscribe_ns", "ns"),
    ("sharded.quiesce_ms", "ms"),
    ("sharded.queue_depth_max", "count"),
    ("sharded.batch_size_mean", "count"),
    ("sharded.cross_shard_forwards_per_publish", "count"),
    ("node.route_cache_hit_ratio", "ratio"),
    ("node.fanout_mean", "count"),
    ("node.route_warm_ns", "ns"),
    ("node.route_cold_ns", "ns"),
    ("node.subscribe_ns", "ns"),
    ("topic.match_ns", "ns"),
    ("wire.encode_ns", "ns"),
    ("wire.parse_ns", "ns"),
    ("pool.hit_ratio", "ratio"),
    ("rtp.encode_ns", "ns"),
    ("rtp.parse_ns", "ns"),
    ("cluster.publish_ns", "ns"),
    ("cluster.subscribe_ns", "ns"),
    ("cluster.gossip_round_ms", "ms"),
    ("cluster.rounds_to_converge", "count"),
    ("cluster.inter_node_forwards_per_publish", "count"),
    ("cluster.relays_per_publish", "count"),
    ("cluster.hop_mean", "count"),
    ("cluster.frame_encode_ns", "ns"),
    ("cluster.frame_parse_ns", "ns"),
    ("cluster.reconnects", "count"),
    ("cluster.duplicate_frames", "count"),
    ("gossip.entries_applied", "count"),
    ("gossip.targets_for_ns", "ns"),
    ("core.sip_invite_us", "us"),
    ("core.sip_bye_us", "us"),
    ("core.h323_call_us", "us"),
    ("core.xgsp_join_us", "us"),
    ("sip.parse_us", "us"),
    ("h323.decode_us", "us"),
    ("xgsp.parse_us", "us"),
    ("sim.point_ms", "ms"),
    ("sim.scenario_ms.broadcast_1m", "ms"),
    ("sim.scenario_ms.conference_100k", "ms"),
    ("sim.scenario_ms.federation_audio_3node", "ms"),
];

const WORKLOADS: &[&str] = &[
    "audio_conferences",
    "video_broadcast",
    "federated_churn",
    "frontier_sim",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn metrics_json(
    out: &mut String,
    names: &[(&str, &str)],
    values: &std::collections::BTreeMap<&'static str, f64>,
) {
    out.push('{');
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = values.get(name).copied().unwrap_or(0.0);
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i > 0 { ", " } else { "" }
        );
    }
    out.push('}');
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report: Report = match args.workload.as_str() {
        "audio_conferences" => live::run(
            &live::Plan::audio(args.seed),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "video_broadcast" => live::run(
            &live::Plan::video(args.seed),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "federated_churn" => churn::run(args.seed, args.seconds, args.trace),
        "frontier_sim" => frontier::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated above"),
    };
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for line in &report.info {
        println!("  {line}");
    }
    let tagged = if args.trace {
        "traced end-to-end"
    } else {
        "end-to-end"
    };
    for (name, unit) in E2E {
        if let Some(v) = report.e2e.get(name) {
            println!("  {tagged}: {name} {v:.6} {unit}");
        }
    }
    for v in &report.violations {
        println!("  CHECK FAILED: {v}");
    }
    let finite = report
        .e2e
        .values()
        .chain(report.layers.values())
        .all(|v| v.is_finite());
    let correct = report.violations.is_empty() && finite;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        report.attempted.max(1),
        report.failed
    );
    if args.trace {
        metrics_json(&mut json, LAYERS, &report.layers);
    } else {
        metrics_json(&mut json, E2E, &report.e2e);
    }
    json.push('}');
    println!("{json}");
    ExitCode::SUCCESS
}
