//! The delivery checker. The generator records what it published and
//! who was subscribed when; the checker derives the expected delivery
//! multiset from that record alone and compares the drained log with
//! it:
//!
//! * every event published while a receiver was subscribed reaches it
//!   exactly once, in per-source publish order;
//! * nothing published outside a subscription (before the quiesce that
//!   ends just before the subscribe call, or after the leave settled)
//!   reaches it;
//! * every payload byte and RTP header field is the one the source
//!   derived from (seed, source, sequence).
//!
//! Events published between the start of that quiesce and the settle
//! that makes the subscription visible (or between a leave request and
//! its settle) may arrive at most once: they can be in flight when the
//! subscription changes.

use std::collections::HashMap;
use std::sync::Arc;

use mmcs_broker::event::Event;
use mmcs_util::id::ClientId;

use bytes::Bytes;

use crate::common::{Samples, Tracer};
use crate::media::{self, Format};

/// One publish as the generator made it. Times are on the run clock.
#[derive(Clone, Copy, Debug)]
pub struct Publish {
    pub src: u32,
    pub seq: u64,
    pub group: u32,
    pub intended_ns: u64,
    /// When the publish call started and returned.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One receiver's membership of one group.
#[derive(Clone, Copy, Debug)]
pub struct Membership {
    pub rcv: u32,
    pub group: u32,
    /// Start of the quiesce that ends just before the subscribe call:
    /// events published before it have landed before the subscribe,
    /// so they cannot reach the receiver.
    pub settled_before_ns: u64,
    /// End of the settle after the subscribe call: events published
    /// from here on must reach the receiver.
    pub live_from_ns: u64,
    /// The leave request: events published before it must reach the
    /// receiver.
    pub leave_ns: u64,
    /// End of the settle after the leave: nothing published from here
    /// on may reach the receiver.
    pub gone_from_ns: u64,
}

impl Membership {
    /// A membership that starts before any publish and never ends.
    pub fn always(rcv: u32, group: u32) -> Self {
        Self {
            rcv,
            group,
            settled_before_ns: 0,
            live_from_ns: 0,
            leave_ns: u64::MAX,
            gone_from_ns: u64::MAX,
        }
    }

    fn must(&self, p: &Publish) -> bool {
        p.start_ns >= self.live_from_ns && p.end_ns <= self.leave_ns
    }

    fn may(&self, p: &Publish) -> bool {
        p.end_ns > self.settled_before_ns && p.start_ns < self.gone_from_ns
    }
}

/// One drained delivery: who drained it, when, and the event.
#[derive(Clone, Debug)]
pub struct Delivery {
    pub rcv: u32,
    pub at_ns: u64,
    pub event: Arc<Event>,
}

/// The generator's record of one phase.
pub struct Expect {
    pub format: Format,
    pub seed: u64,
    pub src_of: HashMap<ClientId, u32>,
    pub pubs: Vec<Publish>,
    pub members: Vec<Membership>,
}

/// The generator's running record of one phase: what it published
/// and what it drained. [`Record::expect`] hands the publishes to the
/// checker and starts the next phase.
pub struct Record {
    pub format: Format,
    pub seed: u64,
    pub src_of: HashMap<ClientId, u32>,
    /// The next sequence number of every source.
    pub seq: Vec<u64>,
    pub pubs: Vec<Publish>,
    pub log: Vec<Delivery>,
}

impl Record {
    pub fn new(format: Format, seed: u64, src_of: HashMap<ClientId, u32>, sources: usize) -> Self {
        Self {
            format,
            seed,
            src_of,
            seq: vec![0; sources],
            pubs: Vec::new(),
            log: Vec::new(),
        }
    }

    /// Source `src`'s next packet: its sequence number and bytes.
    pub fn next_packet(&mut self, src: u32, tracer: &mut Tracer) -> (u64, Bytes) {
        let seq = self.seq[src as usize];
        self.seq[src as usize] += 1;
        let (format, seed) = (self.format, self.seed);
        let payload = tracer.time("rtp.encode", || media::packet(format, seed, src, seq));
        (seq, payload)
    }

    /// Logs `events`, drained by receiver `rcv` at `at_ns`.
    pub fn drained(&mut self, rcv: u32, at_ns: u64, events: &mut Vec<Arc<Event>>) {
        self.log
            .extend(events.drain(..).map(|event| Delivery { rcv, at_ns, event }));
    }

    /// The phase's publishes with `members`, for the checker.
    pub fn expect(&mut self, members: Vec<Membership>) -> Expect {
        Expect {
            format: self.format,
            seed: self.seed,
            src_of: self.src_of.clone(),
            pubs: std::mem::take(&mut self.pubs),
            members,
        }
    }
}

/// What the checker found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Deliveries the record requires.
    pub expected: u64,
    /// Required deliveries that arrived.
    pub delivered: u64,
    /// Deliveries drained in total (required and allowed).
    pub drained: u64,
    /// Publishes checked, and those with a required delivery missing.
    pub publishes: u64,
    pub failed_publishes: u64,
    /// Output defects: duplicates, reordering, corruption, deliveries
    /// outside a subscription, unknown events. The first few are kept
    /// verbatim.
    pub violations: u64,
    pub examples: Vec<String>,
    /// The first few publishes with a required delivery missing.
    pub missing_examples: Vec<String>,
}

impl Outcome {
    pub fn missing(&self) -> u64 {
        self.expected - self.delivered
    }

    /// Adds another phase's outcome to this one.
    pub fn absorb(&mut self, o: Outcome) {
        self.expected += o.expected;
        self.delivered += o.delivered;
        self.drained += o.drained;
        self.publishes += o.publishes;
        self.failed_publishes += o.failed_publishes;
        self.violations += o.violations;
        self.examples.extend(o.examples);
        self.missing_examples.extend(o.missing_examples);
    }

    fn violation(&mut self, what: String) {
        self.violations += 1;
        if self.examples.len() < 5 {
            self.examples.push(what);
        }
    }
}

#[derive(PartialEq)]
enum Class {
    Must,
    May,
    MustNot,
}

struct Index<'a> {
    by_key: HashMap<(u32, u64), usize>,
    members: HashMap<(u32, u32), Vec<&'a Membership>>,
}

impl<'a> Index<'a> {
    fn new(expect: &'a Expect) -> Self {
        let by_key = expect
            .pubs
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.src, p.seq), i))
            .collect();
        let mut members: HashMap<(u32, u32), Vec<&Membership>> = HashMap::new();
        for m in &expect.members {
            members.entry((m.rcv, m.group)).or_default().push(m);
        }
        Self { by_key, members }
    }

    fn class(&self, rcv: u32, p: &Publish) -> Class {
        let Some(spans) = self.members.get(&(rcv, p.group)) else {
            return Class::MustNot;
        };
        if spans.iter().any(|m| m.must(p)) {
            Class::Must
        } else if spans.iter().any(|m| m.may(p)) {
            Class::May
        } else {
            Class::MustNot
        }
    }
}

/// Checks `log` against `expect`. See the [module docs](self).
pub fn check(expect: &Expect, log: &[Delivery]) -> Outcome {
    let index = Index::new(expect);
    let mut out = Outcome::default();
    let mut by_group: HashMap<u32, Vec<u32>> = HashMap::new();
    for m in &expect.members {
        let rcvs = by_group.entry(m.group).or_default();
        if !rcvs.contains(&m.rcv) {
            rcvs.push(m.rcv);
        }
    }
    let mut required = vec![0u64; expect.pubs.len()];
    let mut arrived = vec![0u64; expect.pubs.len()];
    for (p, need) in expect.pubs.iter().zip(&mut required) {
        if let Some(rcvs) = by_group.get(&p.group) {
            *need = rcvs
                .iter()
                .filter(|&&r| index.class(r, p) == Class::Must)
                .count() as u64;
        }
    }
    out.expected = required.iter().sum();
    let mut last_seq: HashMap<(u32, u32), u64> = HashMap::new();
    for d in log {
        out.drained += 1;
        let Some(&src) = expect.src_of.get(&d.event.source) else {
            out.violation(format!(
                "receiver {} got an event from unknown source {}",
                d.rcv, d.event.source
            ));
            continue;
        };
        let Some(&i) = index.by_key.get(&(src, d.event.seq)) else {
            out.violation(format!(
                "receiver {} got source {src} seq {}, which this phase never published",
                d.rcv, d.event.seq
            ));
            continue;
        };
        let p = &expect.pubs[i];
        match last_seq.insert((d.rcv, src), p.seq) {
            Some(prev) if prev == p.seq => {
                out.violation(format!(
                    "receiver {} got source {src} seq {} twice",
                    d.rcv, p.seq
                ));
                continue;
            }
            Some(prev) if prev > p.seq => {
                out.violation(format!(
                    "receiver {} got source {src} seq {} after seq {prev}",
                    d.rcv, p.seq
                ));
                last_seq.insert((d.rcv, src), prev);
                continue;
            }
            _ => {}
        }
        if let Err(e) = media::verify(expect.format, expect.seed, src, p.seq, &d.event.payload) {
            out.violation(format!("receiver {}: {e}", d.rcv));
            continue;
        }
        match index.class(d.rcv, p) {
            Class::Must => {
                out.delivered += 1;
                arrived[i] += 1;
            }
            Class::May => {}
            Class::MustNot => out.violation(format!(
                "receiver {} got source {src} seq {} published outside its subscription",
                d.rcv, p.seq
            )),
        }
    }
    for (i, p) in expect.pubs.iter().enumerate() {
        if arrived[i] < required[i] && out.missing_examples.len() < 5 {
            out.missing_examples.push(format!(
                "source {} seq {} (sent {}..{} ns) reached {} of its {} required receivers",
                p.src, p.seq, p.start_ns, p.end_ns, arrived[i], required[i]
            ));
        }
    }
    out.publishes = expect.pubs.len() as u64;
    out.failed_publishes = required
        .iter()
        .zip(&arrived)
        .filter(|(need, got)| got < need)
        .count() as u64;
    out
}

/// Open-loop latency samples (drain time minus intended send time) and
/// the RFC 3550 interarrival jitter, averaged over (receiver, source)
/// streams, in ms. Deliveries the checker would reject are skipped.
pub fn latency_and_jitter(expect: &Expect, log: &[Delivery]) -> (Samples, f64) {
    let index = Index::new(expect);
    let mut samples = Samples::default();
    // (previous transit time, jitter estimate), both in ns.
    let mut streams: HashMap<(u32, u32), (i64, f64)> = HashMap::new();
    for d in log {
        let Some(&src) = expect.src_of.get(&d.event.source) else {
            continue;
        };
        let Some(&i) = index.by_key.get(&(src, d.event.seq)) else {
            continue;
        };
        let p = &expect.pubs[i];
        let transit = d.at_ns as i64 - p.intended_ns as i64;
        samples.push(p.intended_ns, transit.max(0) as u64);
        streams
            .entry((d.rcv, src))
            .and_modify(|(prev, j)| {
                let delta = (transit - *prev).unsigned_abs() as f64;
                *j += (delta - *j) / 16.0;
                *prev = transit;
            })
            .or_insert((transit, 0.0));
    }
    let jitters: Vec<f64> = streams.values().map(|&(_, j)| j / 1e6).collect();
    (samples, crate::common::mean(&jitters))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mmcs_broker::event::EventClass;
    use mmcs_broker::topic::Topic;

    const SEED: u64 = 41;

    fn event(src: u32, seq: u64) -> Arc<Event> {
        Event::new(
            Topic::parse(&format!("session-{}/audio/u{src}", src % 2)).unwrap(),
            ClientId::from_raw(100 + u64::from(src)),
            seq,
            EventClass::Rtp,
            media::packet(media::PCMU_20MS, SEED, src, seq),
        )
        .into_shared()
    }

    /// Two groups; sources 0 and 2 speak in group 0, source 1 in group
    /// 1; receivers 0..3 sit in group 0 and 3..5 in group 1. Receiver 2
    /// leaves group 0 at t=50 and the leave settles at t=60. Receiver 5
    /// joins group 1: the quiesce before its subscribe starts at t=30
    /// and the subscription is live from t=40.
    fn recorded() -> (Expect, Vec<Delivery>) {
        let mut pubs = Vec::new();
        for seq in 0..8u64 {
            for src in 0..3u32 {
                let t = seq * 10 + u64::from(src);
                pubs.push(Publish {
                    src,
                    seq,
                    group: src % 2,
                    intended_ns: t,
                    start_ns: t,
                    end_ns: t + 1,
                });
            }
        }
        let mut members: Vec<Membership> = (0..2).map(|r| Membership::always(r, 0)).collect();
        members.push(Membership {
            leave_ns: 50,
            gone_from_ns: 60,
            ..Membership::always(2, 0)
        });
        members.extend((3..5).map(|r| Membership::always(r, 1)));
        members.push(Membership {
            settled_before_ns: 30,
            live_from_ns: 40,
            ..Membership::always(5, 1)
        });
        let expect = Expect {
            format: media::PCMU_20MS,
            seed: SEED,
            src_of: (0..3)
                .map(|s| (ClientId::from_raw(100 + u64::from(s)), s))
                .collect(),
            pubs,
            members,
        };
        let mut log = Vec::new();
        for p in &expect.pubs {
            for m in expect
                .members
                .iter()
                .filter(|m| m.group == p.group && m.must(p))
            {
                log.push(Delivery {
                    rcv: m.rcv,
                    at_ns: p.end_ns + 5,
                    event: event(p.src, p.seq),
                });
            }
        }
        (expect, log)
    }

    fn position(log: &[Delivery], rcv: u32, src: u32, seq: u64) -> usize {
        log.iter()
            .position(|d| {
                d.rcv == rcv && d.event.seq == seq && d.event.source.value() == 100 + u64::from(src)
            })
            .unwrap()
    }

    #[test]
    fn the_recorded_log_passes() {
        let (expect, log) = recorded();
        let out = check(&expect, &log);
        assert_eq!(out.violations, 0, "{:?}", out.examples);
        assert_eq!(out.missing(), 0);
        assert_eq!(out.expected, log.len() as u64);
    }

    #[test]
    fn a_dropped_delivery_is_missing() {
        let (expect, mut log) = recorded();
        log.remove(position(&log, 1, 2, 3));
        let out = check(&expect, &log);
        assert_eq!(out.missing(), 1);
        assert_eq!(out.failed_publishes, 1);
    }

    #[test]
    fn a_duplicated_delivery_is_rejected() {
        let (expect, mut log) = recorded();
        let i = position(&log, 0, 0, 4);
        log.insert(i + 1, log[i].clone());
        let out = check(&expect, &log);
        assert!(out.violations > 0);
        assert!(out.examples[0].contains("twice"), "{:?}", out.examples);
    }

    #[test]
    fn two_swapped_deliveries_from_one_source_are_rejected() {
        let (expect, mut log) = recorded();
        let (a, b) = (position(&log, 3, 1, 2), position(&log, 3, 1, 3));
        log.swap(a, b);
        let out = check(&expect, &log);
        assert!(out.violations > 0);
        assert!(out.examples[0].contains("after seq"), "{:?}", out.examples);
    }

    #[test]
    fn a_flipped_payload_byte_is_rejected() {
        let (expect, mut log) = recorded();
        let i = position(&log, 4, 1, 5);
        let mut bytes = log[i].event.payload.to_vec();
        bytes[100] ^= 0x20;
        let mut corrupt = (*log[i].event).clone();
        corrupt.payload = Bytes::from(bytes);
        log[i].event = Arc::new(corrupt);
        let out = check(&expect, &log);
        assert_eq!(out.violations, 1);
        assert!(
            out.examples[0].contains("payload byte 88"),
            "{:?}",
            out.examples
        );
    }

    #[test]
    fn a_delivery_after_a_settled_leave_is_rejected() {
        let (expect, mut log) = recorded();
        // Source 0 publishes seq 7 at t=70, after receiver 2's leave
        // settled at t=60.
        log.push(Delivery {
            rcv: 2,
            at_ns: 80,
            event: event(0, 7),
        });
        let out = check(&expect, &log);
        assert_eq!(out.violations, 1);
        assert!(
            out.examples[0].contains("outside its subscription"),
            "{:?}",
            out.examples
        );
    }

    #[test]
    fn a_delivery_between_leave_and_settle_is_allowed_once() {
        let (expect, mut log) = recorded();
        // Source 2 publishes seq 5 at t=52: after the leave request,
        // before it settled.
        log.push(Delivery {
            rcv: 2,
            at_ns: 80,
            event: event(2, 5),
        });
        let out = check(&expect, &log);
        assert_eq!(out.violations, 0, "{:?}", out.examples);
        assert_eq!(out.missing(), 0);
    }

    #[test]
    fn a_delivery_published_before_the_quiesce_before_a_join_is_rejected() {
        let (expect, mut log) = recorded();
        // Source 1 publishes seq 2 at t=21, before the quiesce that
        // precedes receiver 5's subscribe started at t=30.
        let first = position(&log, 5, 1, 4);
        log.insert(
            first,
            Delivery {
                rcv: 5,
                at_ns: 45,
                event: event(1, 2),
            },
        );
        let out = check(&expect, &log);
        assert_eq!(out.violations, 1);
        assert!(
            out.examples[0].contains("outside its subscription"),
            "{:?}",
            out.examples
        );
    }

    #[test]
    fn a_delivery_in_flight_at_a_join_is_allowed_once() {
        let (expect, mut log) = recorded();
        // Source 1 publishes seq 3 at t=31: after the quiesce started,
        // before the subscription is live.
        let first = position(&log, 5, 1, 4);
        log.insert(
            first,
            Delivery {
                rcv: 5,
                at_ns: 45,
                event: event(1, 3),
            },
        );
        let out = check(&expect, &log);
        assert_eq!(out.violations, 0, "{:?}", out.examples);
        assert_eq!(out.missing(), 0);
    }

    #[test]
    fn jitter_is_zero_for_constant_transit_and_grows_with_variation() {
        let (expect, log) = recorded();
        let (samples, jitter) = latency_and_jitter(&expect, &log);
        assert_eq!(samples.len(), log.len());
        assert_eq!(jitter, 0.0);
        let mut shaky = log.clone();
        for d in &mut shaky {
            d.at_ns += (d.event.seq % 2) * 1_000_000;
        }
        assert!(latency_and_jitter(&expect, &shaky).1 > 0.1);
    }
}
