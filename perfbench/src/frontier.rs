//! The `frontier_sim` workload: the capacity frontier's reduced report
//! (the CI sweep set plus the million-subscriber, 100k-conference and
//! federation scenarios) on the sequential simulator engine, repeated
//! as whole reports for the run's length. The live runtime is idle.
//!
//! The points are exactly `reduced_report()`'s (`FrontierConfig::reduced`
//! and the library's scenario configurations, simulator seed 77); the
//! run's seed orders the report's eleven jobs, so every seed does the
//! same simulation work.

use std::time::Instant;

use mmcs_bench::capacity::knee_index;
use mmcs_bench::frontier::{
    self, conference_100k, federation_point, million_broadcast, FrontierConfig, FrontierPoint,
};

use crate::common::{self, median, permutation, quantile, Clock, Report};

/// Warm-up runs of the smallest point before the first report; one
/// more runs before every report, and the median of all is `setup_s`.
const SETUPS: usize = 5;

/// One point as the benchmark saw it.
struct Timed {
    label: String,
    /// Whether the point lies at or below its sweep's knee (scenarios
    /// count as below).
    below_knee: bool,
    lan_latency_ms: f64,
    point: FrontierPoint,
    ms: f64,
}

fn timed(label: String, f: impl FnOnce() -> (FrontierPoint, f64)) -> Timed {
    let start = Instant::now();
    let (point, lan_latency_ms) = f();
    Timed {
        label,
        below_knee: true,
        lan_latency_ms,
        point,
        ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn sweep_config(spec: &frontier::SweepSpec, clients: u64) -> FrontierConfig {
    FrontierConfig::reduced(spec.media, spec.shards, clients, spec.fanout)
}

type Scenario = fn() -> frontier::ScenarioResult;

/// The reduced report's jobs: every sweep, then the three headline
/// scenarios.
const SCENARIOS: [(&str, Scenario); 3] = [
    ("broadcast_1m", million_broadcast),
    ("conference_100k", conference_100k),
    ("federation_audio_3node", federation_point),
];

/// One reduced report, its jobs in `order`, every point timed.
fn report_once(order: &[usize]) -> Vec<Timed> {
    let specs = frontier::reduced_sweep_specs();
    let mut points = Vec::new();
    for &job in order {
        let Some(spec) = specs.get(job) else {
            let (name, run) = SCENARIOS[job - specs.len()];
            points.push(timed(name.to_owned(), || {
                let s = run();
                (s.point, s.config.lan_latency.as_nanos() as f64 / 1e6)
            }));
            continue;
        };
        let first = points.len();
        for &clients in &spec.ladder {
            let config = sweep_config(spec, clients);
            let lan = config.lan_latency.as_nanos() as f64 / 1e6;
            points.push(timed(format!("{}/clients={clients}", spec.key()), || {
                (frontier::run_point(&config), lan)
            }));
        }
        let goods: Vec<bool> = points[first..].iter().map(|t| t.point.good).collect();
        let knee = knee_index(&goods);
        for (i, t) in points[first..].iter_mut().enumerate() {
            t.below_knee = knee.is_some_and(|k| i <= k);
        }
    }
    points
}

fn same(a: &FrontierPoint, b: &FrontierPoint) -> bool {
    a.delivered == b.delivered
        && a.expected == b.expected
        && a.spot_delivered == b.spot_delivered
        && a.good == b.good
        && a.shard_delay == b.shard_delay
}

/// The per-point checks; returns the reason a point fails, if it does.
fn point_fault(t: &Timed) -> Option<String> {
    let p = &t.point;
    if t.below_knee && p.delivered != p.expected {
        return Some(format!(
            "{} is at or below its knee but delivered {}/{}",
            t.label, p.delivered, p.expected
        ));
    }
    if t.below_knee && !p.spot_exact() {
        return Some(format!(
            "{}: spot receivers got {}/{}",
            t.label, p.spot_delivered, p.spot_expected
        ));
    }
    if t.label == "broadcast_1m" && (p.expected != 20_000_000 || p.delivered != p.expected) {
        return Some(format!(
            "broadcast_1m delivered {}/{} of 20 M copies",
            p.delivered, p.expected
        ));
    }
    if p.delivered > 0 && p.p99_delay_ms < 2.0 * t.lan_latency_ms {
        return Some(format!(
            "{}: pooled p99 {:.4} ms is below the two-hop floor {:.4} ms",
            t.label,
            p.p99_delay_ms,
            2.0 * t.lan_latency_ms
        ));
    }
    None
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report = Report::default();
    let start = Instant::now();

    // Set-up: warm the engine on the smallest sweep point, SETUPS
    // times, and again before every report, so the set-up figure
    // samples the host over the whole run as the other figures do; the
    // median is the figure. The results must be identical: the engine
    // is deterministic per seed.
    let clock = Clock::start();
    let specs = frontier::reduced_sweep_specs();
    let warm_config = sweep_config(&specs[0], specs[0].ladder[0]);
    let mut warm = Vec::new();
    let (mut setup_s, ()) = common::set_up_repeatedly(clock, SETUPS, || {
        warm.push(frontier::run_point(&warm_config));
    });
    let initial_setups = setup_s.len();

    // Whole reports until the run's time is spent, their jobs in a
    // seeded order.
    let order = permutation(specs.len() + SCENARIOS.len(), seed ^ 0xF207);
    let measure = Instant::now();
    let mut reports: Vec<(Vec<Timed>, f64)> = Vec::new();
    while reports.is_empty() || measure.elapsed().as_secs() < seconds {
        let (s, ()) = common::set_up_repeatedly(clock, 1, || {
            warm.push(frontier::run_point(&warm_config));
        });
        setup_s.extend(s);
        let t0 = Instant::now();
        let points = report_once(&order);
        reports.push((points, t0.elapsed().as_secs_f64()));
    }
    report.e2e.insert("setup_s", median(&setup_s));
    if !warm.iter().all(|p| same(p, &warm[0])) {
        report.violations.push(
            "two in-process runs of one point differ: the engine is not seed-deterministic".into(),
        );
    }

    // Each point's median over the run's reports, then quantiles over
    // the points: a stall spoils one report's copy of a point, not the
    // point's figure.
    let mut point_ms: Vec<f64> = (0..reports[0].0.len())
        .map(|i| {
            median(
                &reports
                    .iter()
                    .map(|(points, _)| points[i].ms)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();
    let mut rates = Vec::new();
    let mut passed = 0u64;
    let (first, _) = &reports[0];
    for (points, wall_s) in &reports {
        let delivered: u64 = points.iter().map(|t| t.point.delivered).sum();
        rates.push(delivered as f64 / wall_s);
        for (t, reference) in points.iter().zip(first) {
            report.attempted += 1;
            match point_fault(t) {
                Some(fault) => {
                    report.failed += 1;
                    if report.failed <= 5 {
                        report.info(format!("point failed: {fault}"));
                    }
                }
                None => passed += 1,
            }
            if !same(&t.point, &reference.point) {
                report.violations.push(format!(
                    "{} differs between two reports of one seed",
                    t.label
                ));
            }
        }
    }
    point_ms.sort_by(f64::total_cmp);
    let rate = median(&rates);
    report
        .e2e
        .insert("latency_p50_ms", quantile(&point_ms, 0.5));
    report
        .e2e
        .insert("latency_p90_ms", quantile(&point_ms, 0.9));
    report.e2e.insert("throughput_per_s", rate);
    report.info(format!(
        "setup: warm-up point {} {initial_setups} times, then before each report: {:?} s",
        specs[0].key(),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    ));
    report.info(format!(
        "{} reports of {} points ({} sweeps) in {:.2} s; sim_deliveries_per_s {rate:.0} deliveries/s (median of {:?})",
        reports.len(),
        first.len(),
        specs.len(),
        start.elapsed().as_secs_f64(),
        rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>(),
    ));
    report.info(format!(
        "point wall time (each point's median over the reports): p50 {:.3} ms, p99 {:.3} ms over {} points",
        quantile(&point_ms, 0.5),
        quantile(&point_ms, 0.99),
        point_ms.len()
    ));
    report.info(format!(
        "accounting: simulator points {} passed their checks {passed}",
        report.attempted
    ));

    if traced {
        let sweep_ms: Vec<f64> = reports
            .iter()
            .flat_map(|(points, _)| {
                points
                    .iter()
                    .filter(|t| t.label.contains('/'))
                    .map(|t| t.ms)
            })
            .collect();
        report.layer("sim.point_ms", common::mean(&sweep_ms));
        for (name, metric) in [
            ("broadcast_1m", "sim.scenario_ms.broadcast_1m"),
            ("conference_100k", "sim.scenario_ms.conference_100k"),
            (
                "federation_audio_3node",
                "sim.scenario_ms.federation_audio_3node",
            ),
        ] {
            let ms: Vec<f64> = reports
                .iter()
                .flat_map(|(points, _)| points.iter().filter(|t| t.label == name).map(|t| t.ms))
                .collect();
            report.layer(metric, median(&ms));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmcs_telemetry::Histogram;

    fn point(delivered: u64, p99_delay_ms: f64) -> FrontierPoint {
        let delays = Histogram::new();
        delays.record(1_000_000);
        FrontierPoint {
            clients: 40,
            shards: 1,
            fanout: 10,
            mean_delay_ms: 1.0,
            p99_delay_ms,
            loss: 0.0,
            expected: 4_000,
            delivered,
            spot_expected: 0,
            spot_delivered: 0,
            good: true,
            shard_delay: vec![delays.snapshot()],
        }
    }

    fn timed_point(label: &str, below_knee: bool, p: FrontierPoint) -> Timed {
        Timed {
            label: label.to_owned(),
            below_knee,
            lan_latency_ms: 0.2,
            point: p,
            ms: 1.0,
        }
    }

    #[test]
    fn an_exact_point_passes() {
        assert_eq!(
            point_fault(&timed_point("a/clients=40", true, point(4_000, 1.0))),
            None
        );
    }

    #[test]
    fn a_below_knee_point_short_of_expected_fails() {
        let fault = point_fault(&timed_point("a/clients=40", true, point(3_999, 1.0)));
        assert!(fault.unwrap().contains("at or below its knee"));
        // Past the knee, loss is allowed.
        assert_eq!(
            point_fault(&timed_point("a/clients=40", false, point(3_999, 1.0))),
            None
        );
    }

    #[test]
    fn a_p99_under_the_two_hop_floor_fails() {
        let fault = point_fault(&timed_point("a/clients=40", true, point(4_000, 0.3)));
        assert!(fault.unwrap().contains("two-hop floor"));
    }

    #[test]
    fn two_runs_of_one_point_that_differ_are_caught() {
        assert!(same(&point(4_000, 1.0), &point(4_000, 1.0)));
        assert!(!same(&point(4_000, 1.0), &point(3_998, 1.0)));
        let mut other = point(4_000, 1.0);
        let delays = Histogram::new();
        delays.record(2_000_000);
        other.shard_delay = vec![delays.snapshot()];
        assert!(!same(&point(4_000, 1.0), &other));
    }

    #[test]
    fn the_engine_repeats_a_point_exactly() {
        let specs = frontier::reduced_sweep_specs();
        let config = sweep_config(&specs[0], specs[0].ladder[0]);
        assert!(same(
            &frontier::run_point(&config),
            &frontier::run_point(&config)
        ));
    }
}
