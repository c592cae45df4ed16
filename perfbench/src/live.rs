//! The two workloads on one 2-shard `ShardedBroker`: many small audio
//! conferences, and one video sender broadcasting to 400 receivers.
//!
//! Each run sets the broker up several times and keeps the last; then an
//! open-loop phase publishes on a fixed schedule while the generator
//! drains every receiver, and a saturation phase publishes fixed bursts
//! as fast as `publish_class` accepts them. One generator thread does
//! both, so deliveries are timed on the clock that scheduled the sends.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::metrics::ShardedBrokerMetrics;
use mmcs_broker::sharded::{ShardedBroker, ShardedClient};
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_util::pool;

use crate::check::{self, Delivery, Expect, Membership, Publish, Record};
use crate::common::{self, median, mix, permutation, spread_phase, Clock, Driver, Report, Tracer};
use crate::media::{self, Format};
use crate::replay::{self, ReplayInput};

const SHARDS: usize = 2;
/// Set-ups per run; the median is reported, the last one is used.
const SETUPS: usize = 7;
/// Share of the run spent in the open-loop phase; bursts fill the rest.
const OPEN_LOOP_SHARE: f64 = 0.6;
/// Deliveries per saturation burst.
const BURST_DELIVERIES: u64 = 200_000;
/// Saturation bursts per 10 s of run.
const BURSTS_PER_10S: u64 = 24;
/// Interval between sweeps of every receiver in the open loop.
const FULL_SWEEP_NS: u64 = 50_000_000;
/// Longest wait for a phase's last deliveries after the broker settled.
const DRAIN_DEADLINE_NS: u64 = 2_000_000_000;

/// One conference (or broadcast): who listens, who speaks in turn.
struct Group {
    filter: TopicFilter,
    members: Vec<u32>,
    /// Speaking order; the speaker changes every `rotate_rounds` rounds.
    speakers: Vec<u32>,
    topics: Vec<Topic>,
    /// Offset of this group's sends within the pacing period.
    phase_ns: u64,
}

/// A sharded workload's inputs, all drawn from the seed.
pub struct Plan {
    pub name: &'static str,
    format: Format,
    period_ns: u64,
    rotate_rounds: u64,
    clients: u32,
    groups: Vec<Group>,
}

impl Plan {
    /// 200 sessions of 10 (the paper's C1 scale). Every member
    /// subscribes `session-<i>/#`; one speaker at a time sends PCMU
    /// every 20 ms on `session-<i>/audio/u<member>`, and the floor
    /// passes to the next member of a seeded order every second. The
    /// sessions' send times are spread evenly over the 20 ms period in
    /// a seeded order, so every seed offers the same burstiness.
    pub fn audio(seed: u64) -> Self {
        let (sessions, size) = (200u32, 10u32);
        let slots = permutation(sessions as usize, seed ^ 0xF00);
        let groups = (0..sessions)
            .map(|g| {
                let members: Vec<u32> = (g * size..(g + 1) * size).collect();
                let order = permutation(size as usize, seed ^ 0xA0D1 ^ u64::from(g));
                let speakers: Vec<u32> = order.iter().map(|&k| members[k]).collect();
                let topics = speakers
                    .iter()
                    .map(|s| Topic::parse(&format!("session-{g}/audio/u{s}")).expect("valid topic"))
                    .collect();
                Group {
                    filter: TopicFilter::parse(&format!("session-{g}/#")).expect("valid filter"),
                    members,
                    speakers,
                    topics,
                    phase_ns: spread_phase(slots[g as usize], sessions, 20_000_000),
                }
            })
            .collect();
        Self {
            name: "audio_conferences",
            format: media::PCMU_20MS,
            period_ns: 20_000_000,
            rotate_rounds: 50,
            clients: sessions * size,
            groups,
        }
    }

    /// Fig 3 live: one 600 Kbps H.263 sender at 75 pps, 400 receivers
    /// subscribed to its one topic. The sender does not subscribe.
    pub fn video(seed: u64) -> Self {
        let receivers = 400u32;
        let topic = "fig3/video";
        let group = Group {
            filter: TopicFilter::parse(topic).expect("valid filter"),
            members: (0..receivers).collect(),
            speakers: vec![receivers],
            topics: vec![Topic::parse(topic).expect("valid topic")],
            phase_ns: mix(seed) % 1_000_000,
        };
        Self {
            name: "video_broadcast",
            format: media::H263_600K,
            period_ns: 40_000_000 / 3,
            rotate_rounds: u64::MAX,
            clients: receivers + 1,
            groups: vec![group],
        }
    }

    fn speaker(&self, g: usize, round: u64) -> (u32, &Topic) {
        let group = &self.groups[g];
        let k = ((round / self.rotate_rounds) % group.speakers.len() as u64) as usize;
        (group.speakers[k], &group.topics[k])
    }

    fn receivers(&self) -> impl Iterator<Item = u32> + '_ {
        self.groups.iter().flat_map(|g| g.members.iter().copied())
    }
}

/// A spawned broker with every client attached and subscribed.
struct Setup {
    broker: ShardedBroker,
    clients: Vec<ShardedClient>,
    metrics: Option<Arc<ShardedBrokerMetrics>>,
}

fn set_up(plan: &Plan, traced: bool, tracer: &mut Tracer) -> Setup {
    let metrics = traced.then(|| ShardedBrokerMetrics::detached(SHARDS));
    let mut builder = ShardedBroker::builder(SHARDS);
    if let Some(m) = &metrics {
        builder = builder.metrics(Arc::clone(m));
    }
    let broker = builder.spawn();
    let clients: Vec<ShardedClient> = (0..plan.clients).map(|_| broker.attach()).collect();
    for group in &plan.groups {
        for &m in &group.members {
            let filter = group.filter.clone();
            tracer.time("sharded.subscribe", || {
                clients[m as usize].subscribe(filter)
            });
        }
    }
    tracer.time("sharded.quiesce", || broker.quiesce());
    Setup {
        broker,
        clients,
        metrics,
    }
}

/// The generator's side of one run: the publish and delivery record,
/// the drain scratch and the open loop's bookkeeping.
struct Gen<'a> {
    plan: &'a Plan,
    setup: &'a Setup,
    clock: Clock,
    rec: Record,
    scratch: Vec<Arc<Event>>,
    depth_max: i64,
    tracer: Tracer,
    /// Open-loop deliveries each receiver is still owed, and the groups
    /// with receivers owed any, oldest publish first.
    owed: Vec<u32>,
    owing: VecDeque<usize>,
    in_owing: Vec<bool>,
    next_full_sweep_ns: u64,
}

impl Gen<'_> {
    /// Drains one receiver; returns the deliveries drained.
    fn drain(&mut self, r: u32) -> usize {
        let start_ns = if self.tracer.enabled {
            self.clock.ns()
        } else {
            0
        };
        let n = self.setup.clients[r as usize].drain_into(&mut self.scratch);
        if n == 0 {
            return 0;
        }
        let at_ns = self.clock.ns();
        self.tracer
            .record("sharded.drain", start_ns, at_ns, n as u64);
        self.owed[r as usize] = self.owed[r as usize].saturating_sub(n as u32);
        self.rec.drained(r, at_ns, &mut self.scratch);
        n
    }

    /// Drains the receivers of every group still owed deliveries.
    fn sweep_owing(&mut self) -> usize {
        let (mut total, plan) = (0, self.plan);
        for i in 0..self.owing.len() {
            for &r in &plan.groups[self.owing[i]].members {
                total += self.drain(r);
            }
        }
        let (owed, in_owing) = (&self.owed, &mut self.in_owing);
        self.owing.retain(|&g| {
            in_owing[g] = plan.groups[g].members.iter().any(|&r| owed[r as usize] > 0);
            in_owing[g]
        });
        total
    }

    /// Sleeps until a receiver of the oldest owing group is served (or
    /// `timeout` passes), so the generator does not spin against the
    /// shard threads for the two cores; returns whether one was.
    fn await_owed(&mut self, timeout: Duration) -> bool {
        let plan = self.plan;
        let r = loop {
            let Some(&g) = self.owing.front() else {
                return false;
            };
            match plan.groups[g]
                .members
                .iter()
                .find(|&&r| self.owed[r as usize] > 0)
            {
                Some(&r) => break r,
                None => {
                    self.owing.pop_front();
                    self.in_owing[g] = false;
                }
            }
        };
        let Some(event) = self.setup.clients[r as usize].recv_timeout(timeout) else {
            return false;
        };
        let at_ns = self.clock.ns();
        self.owed[r as usize] = self.owed[r as usize].saturating_sub(1);
        self.rec.log.push(Delivery {
            rcv: r,
            at_ns,
            event,
        });
        true
    }

    /// Settles the broker, then drains until `expected` deliveries are
    /// in the log or the deadline passes.
    fn settle(&mut self, expected: usize) {
        let tracer = &mut self.tracer;
        let broker = &self.setup.broker;
        tracer.time("sharded.quiesce", || broker.quiesce());
        let clock = self.clock;
        common::drain_until(self, clock, expected, clock.ns() + DRAIN_DEADLINE_NS);
    }

    /// Deliveries the record's publishes owe.
    fn fanout(&self) -> usize {
        self.rec
            .pubs
            .iter()
            .map(|p| self.plan.groups[p.group as usize].members.len())
            .sum()
    }

    fn expect(&mut self) -> Expect {
        let members = self
            .plan
            .groups
            .iter()
            .enumerate()
            .flat_map(|(g, group)| {
                group
                    .members
                    .iter()
                    .map(move |&r| Membership::always(r, g as u32))
            })
            .collect();
        self.rec.expect(members)
    }
}

impl Driver for Gen<'_> {
    fn publish(&mut self, g: usize, round: u64, intended_ns: u64) -> u64 {
        let (src, topic) = self.plan.speaker(g, round);
        let (seq, payload) = self.rec.next_packet(src, &mut self.tracer);
        let client = &self.setup.clients[src as usize];
        let start_ns = self.clock.ns();
        client.publish_class(topic.clone(), EventClass::Rtp, payload);
        let end_ns = self.clock.ns();
        self.tracer.record("sharded.publish", start_ns, end_ns, 1);
        self.rec.pubs.push(Publish {
            src,
            seq,
            group: g as u32,
            intended_ns,
            start_ns,
            end_ns,
        });
        let plan = self.plan;
        for &r in &plan.groups[g].members {
            self.owed[r as usize] += 1;
        }
        if !self.in_owing[g] {
            self.in_owing[g] = true;
            self.owing.push_back(g);
        }
        start_ns
    }

    fn idle(&mut self, now_ns: u64, due_ns: u64) {
        if now_ns >= self.next_full_sweep_ns {
            // Every receiver, now and then: a delivery nobody was owed
            // still reaches the log and the checker.
            self.sweep();
            self.next_full_sweep_ns = now_ns + FULL_SWEEP_NS;
            return;
        }
        if self.sweep_owing() == 0
            && !self.await_owed(Duration::from_nanos((due_ns - now_ns).min(2_000_000)))
        {
            self.clock.wait_until(due_ns.min(now_ns + 200_000));
        }
    }

    fn sweep(&mut self) -> usize {
        let (mut total, plan) = (0, self.plan);
        for group in &plan.groups {
            for &r in &group.members {
                total += self.drain(r);
            }
        }
        if let Some(m) = &self.setup.metrics {
            for shard in m.shards() {
                self.depth_max = self.depth_max.max(shard.queue_depth.get());
            }
        }
        total
    }

    fn await_delivery(&mut self) {
        self.await_owed(Duration::from_millis(1));
    }

    fn log(&self) -> &[Delivery] {
        &self.rec.log
    }
}

/// Runs a sharded workload for `seconds` and reports it.
pub fn run(plan: &Plan, seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report = Report::default();
    let clock = Clock::start();
    let mut tracer = Tracer::new(traced, clock);

    // Set-up, several times; the median is the figure, the last is kept.
    let (setup_s, setup) =
        common::set_up_repeatedly(clock, SETUPS, || set_up(plan, traced, &mut tracer));
    report.e2e.insert("setup_s", median(&setup_s));
    report.info(format!(
        "setup: {} clients in {} groups on {SHARDS} shards, {} subscriptions; set-up times {:?} s",
        plan.clients,
        plan.groups.len(),
        plan.receivers().count(),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
    ));

    let pool_before = pool::stats();
    let open_ns = (seconds as f64 * OPEN_LOOP_SHARE * 1e9) as u64;
    // Room for the whole open-loop phase up front: growing a log of
    // half a million entries mid-phase would stall the generator.
    let open_pubs_max = plan.groups.len() * (open_ns / plan.period_ns + 2) as usize;
    let src_of = setup
        .clients
        .iter()
        .enumerate()
        .map(|(i, c)| (c.id(), i as u32))
        .collect();
    let mut rec = Record::new(plan.format, seed, src_of, plan.clients as usize);
    rec.pubs.reserve(open_pubs_max);
    rec.log.reserve(open_pubs_max * plan.groups[0].members.len());
    let mut gen = Gen {
        plan,
        setup: &setup,
        clock,
        rec,
        scratch: Vec::new(),
        depth_max: 0,
        tracer,
        owed: vec![0; plan.clients as usize],
        owing: VecDeque::new(),
        in_owing: vec![false; plan.groups.len()],
        next_full_sweep_ns: 0,
    };

    // Open loop: every group's speaker sends once per period at its
    // group's phase.
    let t0 = clock.ns() + 5_000_000;
    let phases: Vec<u64> = plan.groups.iter().map(|g| g.phase_ns).collect();
    let (lateness, round) =
        common::open_loop(&mut gen, clock, &phases, plan.period_ns, t0, t0 + open_ns);
    let open_pubs = gen.rec.pubs.len();
    let expected = gen.fanout();
    gen.settle(expected);
    let open_expect = gen.expect();
    let open_log = std::mem::take(&mut gen.rec.log);
    let outcome = check::check(&open_expect, &open_log);
    let (samples, jitter_ms) = check::latency_and_jitter(&open_expect, &open_log);
    report.info(lateness.summary());
    report.info(format!(
        "open loop: {open_pubs} publishes, deliveries expected {} drained {} (required {} arrived)",
        outcome.expected, outcome.drained, outcome.delivered,
    ));
    report.e2e.insert("latency_p50_ms", samples.quantile_ms(0.5));
    report.e2e.insert("latency_p90_ms", samples.window_median_ms(0.9));
    report.info(samples.describe());
    report.info(format!("jitter_ms {jitter_ms:.4} ms"));
    let mut outcomes = vec![outcome];

    // Saturation: a fixed number of bursts, each published flat out
    // and then drained.
    let group_size = plan.groups[0].members.len() as u64;
    let burst_pubs = (BURST_DELIVERIES / group_size).max(1);
    let mut rates = Vec::new();
    let mut burst_round = round;
    let mut replay_events: Vec<Arc<Event>> = open_log
        .iter()
        .step_by((open_log.len() / 4_000).max(1))
        .map(|d| Arc::clone(&d.event))
        .collect();
    replay_events.dedup_by(|a, b| Arc::ptr_eq(a, b));
    drop(open_log);
    let groups = plan.groups.len() as u64;
    let bursts = (BURSTS_PER_10S * seconds / 10).max(1);
    for _ in 0..bursts {
        gen.rec.log.reserve(burst_pubs as usize * group_size as usize);
        gen.rec.pubs.reserve(burst_pubs as usize);
        let sends = (0..burst_pubs).map(|i| ((i % groups) as usize, burst_round + i / groups));
        // Every group has `group_size` members.
        let expected = burst_pubs as usize * group_size as usize;
        let (delivered, ns) =
            common::burst(&mut gen, clock, sends, expected, DRAIN_DEADLINE_NS * 5);
        burst_round += burst_pubs / groups + 1;
        rates.push(delivered as f64 / (ns as f64 / 1e9));
        gen.settle(expected);
        let expect = gen.expect();
        let log = std::mem::take(&mut gen.rec.log);
        outcomes.push(check::check(&expect, &log));
    }
    let burst_rate = median(&rates);
    report.e2e.insert("throughput_per_s", burst_rate);
    report.info(format!(
        "saturation: {} bursts of {burst_pubs} publishes x {group_size} receivers; burst_deliveries_per_s {burst_rate:.0} deliveries/s (median of {:?})",
        rates.len(),
        rates.iter().map(|r| format!("{:.0}", r)).collect::<Vec<_>>()
    ));

    let mut total = check::Outcome::default();
    for o in outcomes {
        total.absorb(o);
    }
    report.attempted = total.publishes;
    report.failed = total.failed_publishes;
    report.info(format!(
        "accounting: publishes {} with a required delivery missing {}; deliveries expected {} \
         drained by the deadline {} (required {}, missing {}), defects {}",
        total.publishes,
        total.failed_publishes,
        total.expected,
        total.drained,
        total.delivered,
        total.missing(),
        total.violations
    ));
    for m in total.missing_examples.iter().take(5) {
        report.info(format!("missing: {m}"));
    }
    report.violations = total.examples;

    if traced {
        let gen_tracer = &gen.tracer;
        report.layer("sharded.publish_ns", gen_tracer.mean_ns("sharded.publish"));
        report.layer(
            "sharded.drain_ns_per_event",
            gen_tracer.ns_per_item("sharded.drain"),
        );
        report.layer(
            "sharded.subscribe_ns",
            gen_tracer.mean_ns("sharded.subscribe"),
        );
        report.layer(
            "sharded.quiesce_ms",
            gen_tracer.mean_ns("sharded.quiesce") / 1e6,
        );
        report.layer("sharded.queue_depth_max", gen.depth_max as f64);
        report.layer("rtp.encode_ns", gen_tracer.mean_ns("rtp.encode"));
        let m = setup.metrics.as_ref().expect("traced runs install metrics");
        let hits = m.total(|s| s.route_cache_hits.get()) as f64;
        let misses = m.total(|s| s.route_cache_misses.get()) as f64;
        report.layer(
            "node.route_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        let fanout = mmcs_telemetry::HistogramSnapshot::merge_all(
            &m.shards().map(|s| s.fanout.snapshot()).collect::<Vec<_>>(),
        );
        report.layer("node.fanout_mean", fanout.mean());
        let batches = mmcs_telemetry::HistogramSnapshot::merge_all(
            &m.shards()
                .map(|s| s.batch_size.snapshot())
                .collect::<Vec<_>>(),
        );
        report.layer("sharded.batch_size_mean", batches.mean());
        let published: u64 = gen.rec.seq.iter().sum();
        report.layer(
            "sharded.cross_shard_forwards_per_publish",
            m.total(|s| s.cross_shard_forwards.get()) as f64 / published.max(1) as f64,
        );
        common::record_pool_hit_ratio(&mut report, pool_before);
        let path =
            std::path::PathBuf::from(format!("perfbench/out/spans-{}-{seed}.tsv", plan.name));
        if let Err(e) = gen_tracer.write(&path) {
            report.info(format!("could not write spans to {}: {e}", path.display()));
        }
        let subs = plan
            .groups
            .iter()
            .flat_map(|g| g.members.iter().map(|&m| (m, g.filter.clone())))
            .collect();
        replay::run(
            &ReplayInput {
                clients: setup.clients.iter().map(|c| c.id()).collect(),
                subs,
                events: replay_events,
                ops: Vec::new(),
            },
            &mut report,
        );
    }
    report
}
