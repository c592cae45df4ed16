//! Shared pieces: the run clock, seeded input generation, quantiles,
//! the repeated set-up, the open-loop schedule and the saturation burst
//! every live workload runs, the in-memory span recorder and the report
//! every workload returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::check::Delivery;

/// Nanoseconds since the run's time origin. Every timestamp a workload
/// records (intended send, actual send, drain) is on this one clock.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Sleeps or spins until `deadline_ns`: sleeps while more than
    /// 300 µs remain, then yields, so the generator wakes on time
    /// without holding a core while it waits.
    pub fn wait_until(&self, deadline_ns: u64) {
        loop {
            let now = self.ns();
            if now >= deadline_ns {
                return;
            }
            let left = deadline_ns - now;
            if left > 300_000 {
                std::thread::sleep(std::time::Duration::from_nanos(left - 250_000));
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// SplitMix64: the generator behind every seeded input.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic permutation of `0..n` drawn from `key`.
pub fn permutation(n: usize, key: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(key ^ (i as u64).wrapping_mul(0x1000_0001)) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The send offset of slot `slot` of `slots`, spread evenly over
/// `period_ns`.
pub fn spread_phase(slot: usize, slots: u32, period_ns: u64) -> u64 {
    slot as u64 * period_ns / u64::from(slots)
}

/// The `q`-quantile (0..=1) of `sorted` by nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Latency samples of one open-loop phase, each tagged with the time
/// its operation was due.
#[derive(Default)]
pub struct Samples {
    due_ns: Vec<u64>,
    latency_ns: Vec<u64>,
}

/// Window length for [`Samples::window_median_ms`]: short enough that a
/// run has dozens of windows.
const WINDOW_NS: u64 = 100_000_000;

impl Samples {
    pub fn push(&mut self, due_ns: u64, latency_ns: u64) {
        self.due_ns.push(due_ns);
        self.latency_ns.push(latency_ns);
    }

    pub fn len(&self) -> usize {
        self.latency_ns.len()
    }

    /// The whole phase's `q`-quantile, in ms.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let mut all: Vec<f64> = self.latency_ns.iter().map(|&l| l as f64 / 1e6).collect();
        all.sort_by(f64::total_cmp);
        quantile(&all, q)
    }

    /// The median over 100 ms windows (by due time) of each window's
    /// `q`-quantile, in ms; windows with fewer than 100 samples are
    /// left out (the whole phase's quantile if none is left). A stall
    /// of the shared host that spoils a few windows leaves it alone,
    /// while a change in the program's own latency moves every window.
    pub fn window_median_ms(&self, q: f64) -> f64 {
        let mut windows: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for (&due, &lat) in self.due_ns.iter().zip(&self.latency_ns) {
            windows
                .entry(due / WINDOW_NS)
                .or_default()
                .push(lat as f64 / 1e6);
        }
        let per_window: Vec<f64> = windows
            .into_values()
            .filter(|w| w.len() >= 100)
            .map(|mut w| {
                w.sort_by(f64::total_cmp);
                quantile(&w, q)
            })
            .collect();
        if per_window.is_empty() {
            return self.quantile_ms(q);
        }
        median(&per_window)
    }

    /// The delivery figures by name, for the report's lines.
    pub fn describe(&self) -> String {
        format!(
            "delivery_p50_ms {:.4} ms; median window's p90 {:.4} ms; whole phase p90 {:.4} ms, \
             p95 {:.4} ms, delivery_p99_ms {:.4} ms, p99.9 {:.4} ms over {} samples",
            self.quantile_ms(0.5),
            self.window_median_ms(0.9),
            self.quantile_ms(0.9),
            self.quantile_ms(0.95),
            self.quantile_ms(0.99),
            self.quantile_ms(0.999),
            self.len()
        )
    }
}

/// Generator lateness: actual minus intended send time of every
/// open-loop operation.
#[derive(Default)]
pub struct Lateness(Vec<u64>);

impl Lateness {
    pub fn record(&mut self, intended_ns: u64, actual_ns: u64) {
        self.0.push(actual_ns.saturating_sub(intended_ns));
    }

    pub fn summary(&self) -> String {
        let mut ms: Vec<f64> = self.0.iter().map(|&l| l as f64 / 1e6).collect();
        ms.sort_by(f64::total_cmp);
        format!(
            "generator lateness: p99 {:.3} ms, max {:.3} ms over {} sends",
            quantile(&ms, 0.99),
            ms.last().copied().unwrap_or(0.0),
            ms.len()
        )
    }
}

/// Sets up `times` times, dropping each set-up before the next one
/// starts; returns every set-up's seconds and the last set-up, which
/// the run goes on with.
pub fn set_up_repeatedly<S>(clock: Clock, times: usize, mut set_up: impl FnMut() -> S) -> (Vec<f64>, S) {
    let mut seconds = Vec::with_capacity(times);
    let mut kept = None;
    for _ in 0..times.max(1) {
        drop(kept.take());
        let t0 = clock.ns();
        let built = set_up();
        seconds.push((clock.ns() - t0) as f64 / 1e9);
        kept = Some(built);
    }
    (seconds, kept.expect("set up at least once"))
}

/// A workload's generator as the shared loops drive it: each workload
/// supplies how it publishes and how it drains.
pub trait Driver {
    /// Publishes slot `slot`'s packet of `round`, due at `intended_ns`;
    /// returns when the publish call started.
    fn publish(&mut self, slot: usize, round: u64, intended_ns: u64) -> u64;
    /// Called while the next send (due at `due_ns`) is in the future:
    /// drains what has arrived, or waits for it, without passing
    /// `due_ns` by much.
    fn idle(&mut self, now_ns: u64, due_ns: u64);
    /// Drains every receiver once; returns the deliveries drained.
    fn sweep(&mut self) -> usize;
    /// Waits a millisecond at most for one delivery.
    fn await_delivery(&mut self);
    /// The deliveries drained in this phase so far.
    fn log(&self) -> &[Delivery];
}

/// The open-loop phase: every slot sends once per `period_ns` at its
/// phase offset from `t0` until `end_ns`, and sends are never delayed by
/// slow deliveries. Returns the generator's lateness and the number of
/// rounds started.
pub fn open_loop(
    driver: &mut impl Driver,
    clock: Clock,
    phases: &[u64],
    period_ns: u64,
    t0: u64,
    end_ns: u64,
) -> (Lateness, u64) {
    let mut order: Vec<usize> = (0..phases.len()).collect();
    order.sort_by_key(|&s| phases[s]);
    let mut lateness = Lateness::default();
    let (mut round, mut k) = (0u64, 0usize);
    loop {
        let due = t0 + round * period_ns + phases[order[k]];
        if due >= end_ns {
            break;
        }
        let now = clock.ns();
        if due > now {
            driver.idle(now, due);
            continue;
        }
        let started = driver.publish(order[k], round, due);
        lateness.record(due, started);
        k += 1;
        if k == order.len() {
            k = 0;
            round += 1;
        }
    }
    (lateness, round)
}

/// Drains until `expected` deliveries are logged or `deadline_ns`
/// passes.
pub fn drain_until(driver: &mut impl Driver, clock: Clock, expected: usize, deadline_ns: u64) {
    while driver.log().len() < expected && clock.ns() < deadline_ns {
        if driver.sweep() == 0 {
            driver.await_delivery();
        }
    }
}

/// A saturation burst: publishes `sends` (slot, round) as fast as the
/// program accepts them, then drains until the `expected` deliveries
/// are logged or `deadline_ns` has passed since the last publish.
/// Returns the deliveries drained and the ns from the first publish to
/// the last drain.
pub fn burst(
    driver: &mut impl Driver,
    clock: Clock,
    sends: impl Iterator<Item = (usize, u64)>,
    expected: usize,
    deadline_ns: u64,
) -> (usize, u64) {
    let start = clock.ns();
    for (slot, round) in sends {
        driver.publish(slot, round, start);
    }
    drain_until(driver, clock, expected, clock.ns() + deadline_ns);
    let log = driver.log();
    let last = log.iter().map(|d| d.at_ns).max().unwrap_or(start);
    (log.len(), (last - start).max(1))
}

/// One recorded span: a call into a layer's public function, timed
/// from the benchmark's side of the call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work items the call covered (events drained, say); 1 otherwise.
    pub items: u64,
}

/// Most spans kept for the written trace; aggregates count them all.
const SPAN_KEEP: usize = 200_000;

/// In-memory span recorder. Disabled on untraced runs, where `time`
/// is a plain call.
pub struct Tracer {
    pub enabled: bool,
    clock: Clock,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl Tracer {
    pub fn new(enabled: bool, clock: Clock) -> Self {
        Self {
            enabled,
            clock,
            spans: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Runs `f`, recording a span named `name` when tracing is on.
    #[inline]
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.clock.ns();
        let out = f();
        let end_ns = self.clock.ns();
        self.record(name, start_ns, end_ns, 1);
        out
    }

    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, items: u64) {
        if !self.enabled {
            return;
        }
        let total = self.totals.entry(name).or_insert((0, 0, 0));
        total.0 += 1;
        total.1 += end_ns - start_ns;
        total.2 += items;
        if self.spans.len() < SPAN_KEEP {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                items,
            });
        }
    }

    /// Mean duration per call of `name`, in ns (0 if never called).
    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.totals.get(name) {
            Some(&(calls, total, _)) if calls > 0 => total as f64 / calls as f64,
            _ => 0.0,
        }
    }

    /// Total duration of `name` divided by the items it covered, in ns.
    pub fn ns_per_item(&self, name: &str) -> f64 {
        match self.totals.get(name) {
            Some(&(_, total, items)) if items > 0 => total as f64 / items as f64,
            _ => 0.0,
        }
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("name\tstart_ns\tend_ns\titems\n");
        for s in &self.spans {
            let _ = writeln!(
                text,
                "{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.items
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Records `pool.hit_ratio`: pooled-buffer acquisitions served from a
/// free list since `before`, over all acquisitions since then (0 when
/// there were none), with the counts on an info line.
pub fn record_pool_hit_ratio(report: &mut Report, before: mmcs_util::pool::PoolStats) {
    let now = mmcs_util::pool::stats();
    let hits = now.hits - before.hits;
    let all = hits + (now.misses - before.misses) + (now.oversize - before.oversize);
    report.layer("pool.hit_ratio", hits as f64 / all.max(1) as f64);
    report.info(format!(
        "pool: {hits} of {all} buffer acquisitions served from a free list"
    ));
}

/// What one workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed (a missing delivery, a signalling
    /// request without its success reply, a simulator point that failed
    /// its check).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that rejected the program's results.
    pub violations: Vec<String>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub info: Vec<String>,
}

impl Report {
    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }
}
