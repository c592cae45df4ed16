//! The `federated_churn` workload: a 3-node loopback-TCP cluster on a
//! chain (one shard per node), with speakers homed on node 0 and steady
//! listeners on node 2, so their media crosses two TCP hops and is
//! relayed by node 1. Other participants join and leave sessions
//! through one `GlobalMmcs` (SIP INVITE/BYE, H.323 call/hang-up and
//! XGSP Join/Leave in rotation); each join or leave is followed by a
//! cluster subscribe or unsubscribe while audio keeps flowing. The
//! joins are the operation this workload times end to end: request to
//! the participant's first media of the session.
//!
//! Each epoch the control thread signals its leaves and joins,
//! quiesces the cluster (so media already sent lands before the
//! subscriptions change), unsubscribes the leavers and subscribes the
//! joiners. The cluster has no gossip timer, so the control thread then
//! drives gossip itself, running rounds until every node's view matches
//! every other node's truth.
//! Two generator threads: the media thread publishes on the open-loop
//! schedule and drains every participant; the control thread signals,
//! subscribes and gossips.

use std::collections::HashMap;
use std::sync::Arc;

use global_mmcs::GlobalMmcs;
use mmcs_broker::cluster::{Cluster, ClusterClient, LatencyMap};
use mmcs_broker::event::{Event, EventClass};
use mmcs_broker::metrics::ClusterMetrics;
use mmcs_broker::topic::{Topic, TopicFilter};
use mmcs_h323::endpoint::{EndpointState, H323Endpoint};
use mmcs_h323::msg::H323Message;
use mmcs_sip::message::{SipMessage, SipMethod};
use mmcs_util::id::{SessionId, TerminalId};
use mmcs_xgsp::message::{SessionMode, XgspMessage};
use mmcs_xgsp::server::ServerOutput;

use crate::check::{self, Delivery, Membership, Publish, Record};
use crate::common::{self, median, permutation, quantile, spread_phase, Clock, Driver, Report, Tracer};
use crate::media;
use crate::replay::{self, Op, ReplayInput};

const NODES: usize = 3;
/// Set-ups per run; the median is reported, the last one is used.
const SETUPS: usize = 5;
/// Sessions whose listeners stay for the whole run (steady two-hop
/// media) and sessions whose listeners churn.
const STEADY_SESSIONS: u32 = 6;
const CHURN_SESSIONS: u32 = 6;
const STEADY_LISTENERS: u32 = 6;
/// Participants rotating through each churn session.
const POOL: u32 = 4;
const EPOCH_NS: u64 = 500_000_000;
const PERIOD_NS: u64 = 20_000_000;
const OPEN_LOOP_SHARE: f64 = 0.6;
const BURST_PUBLISHES: u64 = 40_000;
/// Saturation bursts per second of run.
const BURSTS_PER_S: u64 = 1;
const MAX_GOSSIP_ROUNDS: u32 = 8;
const DRAIN_DEADLINE_NS: u64 = 5_000_000_000;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Protocol {
    Sip,
    H323,
    Xgsp,
}

/// A participant: a cluster client plus its signalling identity.
struct Participant {
    client: ClusterClient,
    protocol: Protocol,
    user: String,
}

/// The media plane, shared by both generator threads.
struct Net {
    cluster: Cluster,
    filters: Vec<TopicFilter>,
    /// Speakers (one per session, node 0), then steady listeners
    /// (node 2), then churners.
    people: Vec<Participant>,
    topics: Vec<Topic>,
    phases: Vec<u64>,
}

/// The signalling front end, owned by the control thread.
struct Front {
    mmcs: GlobalMmcs,
    sessions: Vec<SessionId>,
    h323: HashMap<u32, H323Endpoint>,
}

fn speaker(g: u32) -> u32 {
    g
}

fn steady_listener(g: u32, i: u32) -> u32 {
    STEADY_SESSIONS + CHURN_SESSIONS + g * STEADY_LISTENERS + i
}

/// Churner `k` of churn session `c` (0-based among churn sessions).
fn churner(c: u32, k: u32) -> u32 {
    STEADY_SESSIONS + CHURN_SESSIONS + STEADY_SESSIONS * STEADY_LISTENERS + c * POOL + k
}

/// Every fourth churner homes on node 0 beside the speakers; the rest
/// on node 1, one gossip hop away. (Joiners on node 2 need interest to
/// cross two gossip hops, and whether that takes one round or two is a
/// race inside the round: join latency then splits into two modes,
/// about 145 and 260 ms, and its median flips between them by run.)
fn churner_zone(k: u32) -> usize {
    if k == POOL - 1 {
        0
    } else {
        1
    }
}

/// Signalling statistics of the control thread.
#[derive(Default)]
struct Signalling {
    requests: u64,
    successes: u64,
    failures: Vec<String>,
}

fn xgsp(
    mmcs: &mut GlobalMmcs,
    tracer: &mut Tracer,
    span: &'static str,
    user: &str,
    message: XgspMessage,
) -> Vec<ServerOutput> {
    let xml = message.to_xml();
    let parsed = tracer.time("xgsp.parse", || {
        XgspMessage::parse(&xml).expect("own XGSP parses")
    });
    tracer.time(span, || mmcs.handle_xgsp(Some(user), parsed))
}

fn sip(
    mmcs: &mut GlobalMmcs,
    tracer: &mut Tracer,
    span: &'static str,
    message: &SipMessage,
) -> Option<u16> {
    let wire = message.to_wire();
    let parsed = tracer.time("sip.parse", || {
        SipMessage::parse(&wire).expect("own SIP parses")
    });
    let replies = tracer.time(span, || mmcs.handle_sip(&parsed));
    replies.first().and_then(|r| r.status())
}

/// Runs H.323 messages to completion through the codec, the system and
/// the endpoint's state machine.
fn h323(
    mmcs: &mut GlobalMmcs,
    tracer: &mut Tracer,
    span: &'static str,
    endpoint: &mut H323Endpoint,
    first: Vec<H323Message>,
) {
    let mut queue = first;
    let start = tracer.enabled.then(std::time::Instant::now);
    while let Some(message) = queue.pop() {
        let bytes = mmcs_h323::codec::encode(&message);
        let decoded = tracer.time("h323.decode", || {
            mmcs_h323::codec::decode(&bytes).expect("own H.323 decodes")
        });
        for reply in mmcs.handle_h323(&decoded) {
            queue.extend(endpoint.on_message(&reply));
        }
    }
    if let Some(start) = start {
        let ns = start.elapsed().as_nanos() as u64;
        tracer.record(span, 0, ns, 1);
    }
}

fn session_topic(g: u32) -> String {
    format!("session-{g}")
}

fn set_up(seed: u64, traced: bool, tracer: &mut Tracer) -> (Net, Front) {
    let mut builder = Cluster::builder(LatencyMap::chain(NODES, 1))
        .shards(1)
        .tcp();
    if traced {
        builder = builder.metrics(ClusterMetrics::detached(NODES));
    }
    let cluster = builder.spawn();
    let mut mmcs = GlobalMmcs::new();
    let sessions_n = STEADY_SESSIONS + CHURN_SESSIONS;
    let mut sessions = Vec::new();
    for g in 0..sessions_n {
        let outputs = mmcs.handle_xgsp(
            Some("chair"),
            XgspMessage::CreateSession {
                name: format!("perfbench {g}"),
                mode: SessionMode::Scheduled,
                media: Vec::new(),
            },
        );
        let id = outputs
            .iter()
            .find_map(|o| match o {
                ServerOutput::Reply(XgspMessage::SessionCreated { session, .. }) => Some(*session),
                _ => None,
            })
            .expect("session created");
        sessions.push(id);
    }
    let filters: Vec<TopicFilter> = (0..sessions_n)
        .map(|g| TopicFilter::parse(&format!("{}/#", session_topic(g))).expect("valid filter"))
        .collect();
    let topics = (0..sessions_n)
        .map(|g| {
            Topic::parse(&format!("{}/audio/speaker{g}", session_topic(g))).expect("valid topic")
        })
        .collect();
    let slots = permutation(sessions_n as usize, seed ^ 0xC4A);
    let phases = (0..sessions_n)
        .map(|g| spread_phase(slots[g as usize], sessions_n, PERIOD_NS))
        .collect();

    let mut people = Vec::new();
    let total = churner(CHURN_SESSIONS, 0);
    for p in 0..total {
        let (zone, protocol) = if p < sessions_n {
            (0, Protocol::Xgsp)
        } else if p < churner(0, 0) {
            (2, Protocol::Xgsp)
        } else {
            let k = (p - churner(0, 0)) % POOL;
            let protocol = [Protocol::Sip, Protocol::H323, Protocol::Xgsp][(p % 3) as usize];
            (churner_zone(k), protocol)
        };
        people.push(Participant {
            client: cluster.attach(zone),
            protocol,
            user: match protocol {
                Protocol::Sip => format!("sip:p{p}@ua.example"),
                Protocol::H323 => format!("h323-p{p}"),
                Protocol::Xgsp => format!("xgsp-p{p}"),
            },
        });
    }
    let mut h323_endpoints = HashMap::new();
    for (p, person) in people.iter().enumerate() {
        if person.protocol == Protocol::H323 {
            let mut endpoint = H323Endpoint::new(person.user.clone());
            let first = vec![endpoint.start()];
            h323(
                &mut mmcs,
                tracer,
                "core.h323_register",
                &mut endpoint,
                first,
            );
            assert_eq!(
                endpoint.state(),
                EndpointState::Registered,
                "H.323 endpoint registers"
            );
            h323_endpoints.insert(p as u32, endpoint);
        }
    }
    // Speakers join their sessions (no media subscription: they only
    // send); steady listeners join and subscribe.
    for g in 0..sessions_n {
        let user = people[speaker(g) as usize].user.clone();
        xgsp(
            &mut mmcs,
            tracer,
            "core.xgsp_join",
            &user,
            join_message(sessions[g as usize], &user, g),
        );
    }
    for g in 0..STEADY_SESSIONS {
        for i in 0..STEADY_LISTENERS {
            let p = steady_listener(g, i) as usize;
            let user = people[p].user.clone();
            xgsp(
                &mut mmcs,
                tracer,
                "core.xgsp_join",
                &user,
                join_message(sessions[g as usize], &user, p as u32),
            );
            let filter = filters[g as usize].clone();
            tracer.time("cluster.subscribe", || people[p].client.subscribe(filter));
        }
    }
    let mut rounds = 0;
    while !cluster.converged() && rounds < MAX_GOSSIP_ROUNDS {
        tracer.time("cluster.gossip_round", || cluster.gossip_round());
        rounds += 1;
    }
    (
        Net {
            cluster,
            filters,
            people,
            topics,
            phases,
        },
        Front {
            mmcs,
            sessions,
            h323: h323_endpoints,
        },
    )
}

fn join_message(session: SessionId, user: &str, terminal: u32) -> XgspMessage {
    XgspMessage::Join {
        session,
        user: user.to_owned(),
        terminal: TerminalId::from_raw(u64::from(terminal) + 1),
        media: Vec::new(),
    }
}

fn sip_request(method: SipMethod, session: SessionId, user: &str, call_id: &str) -> SipMessage {
    let uri = format!("sip:conf-{}@mmcs.example", session.value());
    let cseq = if method == SipMethod::Invite {
        "1 INVITE"
    } else {
        "2 BYE"
    };
    SipMessage::request(method, uri.clone())
        .with_header("Via", "SIP/2.0/UDP ua.example;branch=z9hG4bK-perfbench")
        .with_header("From", format!("<{user}>;tag=1"))
        .with_header("To", format!("<{uri}>"))
        .with_header("Call-ID", call_id)
        .with_header("CSeq", cseq)
}

/// The control thread's record of one join.
struct Join {
    person: u32,
    group: u32,
    request_ns: u64,
}

/// What the control thread hands back.
#[derive(Default)]
struct Control {
    members: Vec<Membership>,
    joins: Vec<Join>,
    signalling: Signalling,
    /// Subscribe/unsubscribe calls with their times, for the replay.
    ops: Vec<(u64, bool, u32, u32)>,
    rounds: Vec<u32>,
    roster_checks: u64,
    roster_faults: Vec<String>,
}

/// Signals one join or leave; returns whether it succeeded.
fn signal(
    net: &Net,
    front: &mut Front,
    tracer: &mut Tracer,
    p: u32,
    g: u32,
    join: bool,
    serial: u64,
) -> bool {
    let session = front.sessions[g as usize];
    let person = &net.people[p as usize];
    let user = person.user.clone();
    match person.protocol {
        Protocol::Sip => {
            let call_id = format!("call-{p}-{}", serial - u64::from(!join));
            let (method, span) = if join {
                (SipMethod::Invite, "core.sip_invite")
            } else {
                (SipMethod::Bye, "core.sip_bye")
            };
            sip(
                &mut front.mmcs,
                tracer,
                span,
                &sip_request(method, session, &user, &call_id),
            ) == Some(200)
        }
        Protocol::H323 => {
            let endpoint = front
                .h323
                .get_mut(&p)
                .expect("H.323 participant has an endpoint");
            let first = if join {
                vec![endpoint.place_call(format!("conf-{}", session.value()), 6400)]
            } else {
                endpoint.hang_up()
            };
            let span = if join {
                "core.h323_call"
            } else {
                "core.h323_hangup"
            };
            h323(&mut front.mmcs, tracer, span, endpoint, first);
            let state = endpoint.state();
            if join {
                state == EndpointState::InCall
            } else {
                state == EndpointState::Released
            }
        }
        Protocol::Xgsp => {
            let message = if join {
                join_message(session, &user, p)
            } else {
                XgspMessage::Leave {
                    session,
                    user: user.clone(),
                }
            };
            let span = if join {
                "core.xgsp_join"
            } else {
                "core.xgsp_leave"
            };
            let outputs = xgsp(&mut front.mmcs, tracer, span, &user, message);
            let error = outputs
                .iter()
                .any(|o| matches!(o, ServerOutput::Reply(XgspMessage::Error { .. })));
            let acked = outputs
                .iter()
                .any(|o| matches!(o, ServerOutput::Reply(XgspMessage::JoinAck { .. })));
            !error && (acked || !join)
        }
    }
}

fn control(
    net: &Net,
    front: &mut Front,
    clock: Clock,
    t0: u64,
    epochs: u64,
    tracer: &mut Tracer,
) -> Control {
    let mut out = Control::default();
    // present[c] = (churner k, join serial, membership index).
    let mut present: Vec<Option<(u32, u64, usize)>> = vec![None; CHURN_SESSIONS as usize];
    let mut next_k = vec![0u32; CHURN_SESSIONS as usize];
    let mut serial = 0u64;
    for e in 0..epochs {
        clock.wait_until(t0 + e * EPOCH_NS);
        let mut left = Vec::new();
        let mut joined = Vec::new();
        // Leaves, then joins: each churn session alternates between one
        // present churner and none.
        for c in 0..CHURN_SESSIONS {
            let g = STEADY_SESSIONS + c;
            if let Some((k, join_serial, m)) = present[c as usize].take() {
                let p = churner(c, k);
                let request_ns = clock.ns();
                out.signalling.requests += 1;
                if signal(net, front, tracer, p, g, false, join_serial + 1) {
                    out.signalling.successes += 1;
                } else {
                    out.signalling
                        .failures
                        .push(format!("leave of participant {p} from session {g} failed"));
                }
                out.members[m].leave_ns = request_ns;
                left.push((m, p, g));
            } else if (e + u64::from(c)) % 2 == 0 && e + 1 < epochs {
                // No joins in the last epoch: every join gets a full
                // epoch of media after its settle.
                let k = next_k[c as usize];
                next_k[c as usize] = (k + 1) % POOL;
                let p = churner(c, k);
                serial += 2;
                let request_ns = clock.ns();
                out.signalling.requests += 1;
                if !signal(net, front, tracer, p, g, true, serial) {
                    // A refused join gets no media subscription.
                    out.signalling
                        .failures
                        .push(format!("join of participant {p} to session {g} failed"));
                    continue;
                }
                out.signalling.successes += 1;
                out.joins.push(Join {
                    person: p,
                    group: g,
                    request_ns,
                });
                joined.push((c, k, p, g, serial));
            }
        }
        // Let media published so far land before the subscriptions
        // change: media sent before a leave request is still owed to
        // the leaver, and media sent before this quiesce cannot reach
        // a joiner.
        let quiesce_start = clock.ns();
        let cluster = &net.cluster;
        tracer.time("cluster.quiesce", || cluster.quiesce());
        for &(_, p, g) in &left {
            let filter = &net.filters[g as usize];
            out.ops.push((clock.ns(), false, p, g));
            tracer.time("cluster.unsubscribe", || {
                net.people[p as usize].client.unsubscribe(filter)
            });
        }
        for (c, k, p, g, join_serial) in joined {
            let filter = net.filters[g as usize].clone();
            out.ops.push((clock.ns(), true, p, g));
            tracer.time("cluster.subscribe", || {
                net.people[p as usize].client.subscribe(filter)
            });
            out.members.push(Membership {
                rcv: p,
                group: g,
                settled_before_ns: quiesce_start,
                live_from_ns: u64::MAX,
                leave_ns: u64::MAX,
                gone_from_ns: u64::MAX,
            });
            present[c as usize] = Some((k, join_serial, out.members.len() - 1));
        }
        // Settle: gossip until every view matches every truth.
        let mut rounds = 0;
        while !net.cluster.converged() && rounds < MAX_GOSSIP_ROUNDS {
            let cluster = &net.cluster;
            tracer.time("cluster.gossip_round", || cluster.gossip_round());
            rounds += 1;
        }
        let settled_ns = clock.ns();
        out.rounds.push(rounds);
        for m in &mut out.members {
            if m.live_from_ns == u64::MAX {
                m.live_from_ns = settled_ns;
            }
        }
        for (m, _, _) in left {
            out.members[m].gone_from_ns = settled_ns;
        }
        // The roster of every session matches the generator's count.
        for (g, session) in front.sessions.iter().enumerate() {
            let want = 1 + if (g as u32) < STEADY_SESSIONS {
                STEADY_LISTENERS as usize
            } else {
                usize::from(present[g - STEADY_SESSIONS as usize].is_some())
            };
            let have = front
                .mmcs
                .session_server()
                .session(*session)
                .map_or(0, |s| s.member_count());
            out.roster_checks += 1;
            if have != want {
                out.roster_faults.push(format!(
                    "epoch {e}: session {g} has {have} members, the generator counts {want}"
                ));
            }
        }
    }
    out
}

/// The media thread: open-loop publishing and draining.
struct Media<'a> {
    net: &'a Net,
    clock: Clock,
    tracer: Tracer,
    rec: Record,
    receivers: Vec<u32>,
    scratch: Vec<Arc<Event>>,
    published: u64,
    last_activity_ns: u64,
}

impl Media<'_> {
    /// Settles the cluster and drains until 200 ms pass without a
    /// delivery.
    fn settle(&mut self) {
        self.net.cluster.quiesce();
        let mut quiet_since = self.clock.ns();
        while self.clock.ns() - quiet_since < 200_000_000 {
            if self.sweep() > 0 {
                quiet_since = self.clock.ns();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    }
}

impl Driver for Media<'_> {
    /// Slot `g` is session `g`'s speaker; the round plays no part.
    fn publish(&mut self, g: usize, _round: u64, intended_ns: u64) -> u64 {
        let g = g as u32;
        let (seq, payload) = self.rec.next_packet(g, &mut self.tracer);
        let client = &self.net.people[speaker(g) as usize].client;
        let topic = self.net.topics[g as usize].clone();
        let start_ns = self.clock.ns();
        client.publish_class(topic, EventClass::Rtp, payload);
        let end_ns = self.clock.ns();
        self.tracer.record("cluster.publish", start_ns, end_ns, 1);
        self.rec.pubs.push(Publish {
            src: g,
            seq,
            group: g,
            intended_ns,
            start_ns,
            end_ns,
        });
        self.published += 1;
        self.last_activity_ns = start_ns;
        start_ns
    }

    /// Drains; yields for 2 ms after the last activity, then sleeps
    /// toward the next send instead of spinning against the cluster's
    /// threads for the two cores.
    fn idle(&mut self, now_ns: u64, due_ns: u64) {
        if self.sweep() > 0 {
            self.last_activity_ns = self.clock.ns();
        } else if now_ns.saturating_sub(self.last_activity_ns) < 2_000_000 {
            std::thread::yield_now();
        } else {
            self.clock.wait_until(due_ns.min(now_ns + 200_000));
        }
    }

    fn sweep(&mut self) -> usize {
        let mut total = 0;
        for &r in &self.receivers {
            let n = self.net.people[r as usize]
                .client
                .drain_into(&mut self.scratch);
            if n > 0 {
                total += n;
                self.rec.drained(r, self.clock.ns(), &mut self.scratch);
            }
        }
        total
    }

    /// Sleeps until the first steady listener is served (at most 1 ms).
    fn await_delivery(&mut self) {
        let r = steady_listener(0, 0);
        let client = &self.net.people[r as usize].client;
        if let Some(event) = client.recv_timeout(std::time::Duration::from_millis(1)) {
            let at_ns = self.clock.ns();
            self.rec.log.push(Delivery {
                rcv: r,
                at_ns,
                event,
            });
        }
    }

    fn log(&self) -> &[Delivery] {
        &self.rec.log
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report = Report::default();
    let clock = Clock::start();
    let mut setup_tracer = Tracer::new(traced, clock);

    let (setup_s, (net, mut front)) =
        common::set_up_repeatedly(clock, SETUPS, || set_up(seed, traced, &mut setup_tracer));
    report.e2e.insert("setup_s", median(&setup_s));
    let sessions_n = STEADY_SESSIONS + CHURN_SESSIONS;
    report.info(format!(
        "setup: {NODES}-node loopback-TCP chain, {sessions_n} sessions, {} participants; set-up times {:?} s",
        net.people.len(),
        setup_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));

    let pool_before = mmcs_util::pool::stats();
    let measure_start = clock.ns();
    let t0 = measure_start + 5_000_000;
    let epochs = ((seconds as f64 * OPEN_LOOP_SHARE * 1e9) as u64 / EPOCH_NS).max(2);
    let open_end = t0 + epochs * EPOCH_NS;
    let open_pubs_max = sessions_n as usize * (epochs * EPOCH_NS / PERIOD_NS + 2) as usize;
    let src_of = (0..sessions_n)
        .map(|g| (net.people[speaker(g) as usize].client.id(), g))
        .collect();
    let mut rec = Record::new(media::PCMU_20MS, seed, src_of, sessions_n as usize);
    rec.pubs.reserve(open_pubs_max);
    rec.log.reserve(open_pubs_max * 8);
    let mut media = Media {
        net: &net,
        clock,
        tracer: Tracer::new(traced, clock),
        rec,
        receivers: (sessions_n..net.people.len() as u32).collect(),
        scratch: Vec::new(),
        published: 0,
        last_activity_ns: 0,
    };
    let mut control_tracer = Tracer::new(traced, clock);
    let (lateness, ctl) = std::thread::scope(|scope| {
        let control_thread =
            scope.spawn(|| control(&net, &mut front, clock, t0, epochs, &mut control_tracer));
        let (lateness, _) =
            common::open_loop(&mut media, clock, &net.phases, PERIOD_NS, t0, open_end);
        (lateness, control_thread.join().expect("control thread"))
    });
    media.settle();

    let mut members: Vec<Membership> = (0..STEADY_SESSIONS)
        .flat_map(|g| {
            (0..STEADY_LISTENERS).map(move |i| Membership::always(steady_listener(g, i), g))
        })
        .collect();
    members.extend(ctl.members.iter().copied());
    let open_pubs = media.rec.pubs.len();
    let expect = media.rec.expect(members.clone());
    let log = std::mem::take(&mut media.rec.log);
    let mut total = check::check(&expect, &log);
    let (samples, jitter_ms) = check::latency_and_jitter(&expect, &log);

    // Join latency: request to the first media of that session.
    let mut join_ms = Vec::new();
    for join in &ctl.joins {
        let first = log.iter().find(|d| {
            d.rcv == join.person
                && d.at_ns >= join.request_ns
                && expect.src_of.get(&d.event.source) == Some(&join.group)
        });
        if let Some(d) = first {
            join_ms.push((d.at_ns - join.request_ns) as f64 / 1e6);
        }
    }
    join_ms.sort_by(f64::total_cmp);
    report.info(lateness.summary());
    report.info(format!(
        "open loop: {open_pubs} publishes over {epochs} churn epochs"
    ));
    // The operation this workload times end to end is the join: its
    // median and tail are the latency metrics here. Delivery latency
    // over the TCP chain is printed beside them.
    report.e2e.insert("latency_p50_ms", quantile(&join_ms, 0.5));
    report
        .e2e
        .insert("latency_p90_ms", quantile(&join_ms, 0.9));
    report.info(samples.describe());
    report.info(format!("jitter_ms {jitter_ms:.4} ms"));
    report.info(format!(
        "join_p50_ms {:.4} ms over {} joins (p90 {:.3} ms); gossip rounds to converge per epoch {:?}",
        quantile(&join_ms, 0.5),
        join_ms.len(),
        quantile(&join_ms, 0.9),
        ctl.rounds
    ));
    let replay_events: Vec<Arc<Event>> = {
        let mut events: Vec<Arc<Event>> = log
            .iter()
            .step_by((log.len() / 4_000).max(1))
            .map(|d| Arc::clone(&d.event))
            .collect();
        events.dedup_by(|a, b| Arc::ptr_eq(a, b));
        events
    };
    let replay_pubs = expect.pubs.clone();
    drop(log);

    // Saturation bursts to everyone still subscribed.
    let burst_members: Vec<Membership> = members
        .iter()
        .filter(|m| m.leave_ns == u64::MAX)
        .map(|m| Membership::always(m.rcv, m.group))
        .collect();
    let mut size = vec![0usize; sessions_n as usize];
    for m in &burst_members {
        size[m.group as usize] += 1;
    }
    let mut rates = Vec::new();
    let (mut burst_deliveries, mut burst_ns) = (0usize, 0u64);
    let bursts = BURSTS_PER_S * seconds;
    for b in 0..bursts {
        let sends = (0..BURST_PUBLISHES).map(|i| ((i % u64::from(sessions_n)) as usize, 0));
        let expected = (0..BURST_PUBLISHES)
            .map(|i| size[(i % u64::from(sessions_n)) as usize])
            .sum();
        let (delivered, ns) = common::burst(&mut media, clock, sends, expected, DRAIN_DEADLINE_NS);
        burst_deliveries += delivered;
        burst_ns += ns;
        rates.push(delivered as f64 / (ns as f64 / 1e9));
        // A late duplicate would land in the next burst's log, where
        // the checker rejects it; the last burst settles in full.
        if b + 1 == bursts {
            media.settle();
        }
        let expect = media.rec.expect(burst_members.clone());
        let log = std::mem::take(&mut media.rec.log);
        total.absorb(check::check(&expect, &log));
    }
    // All bursts' deliveries over all bursts' time: the TCP chain's
    // rate swings from burst to burst more than the median of a few
    // bursts can settle.
    let rate = burst_deliveries as f64 / (burst_ns as f64 / 1e9);
    report.e2e.insert("throughput_per_s", rate);
    report.info(format!(
        "saturation: {} bursts of {BURST_PUBLISHES} publishes to {} subscribers; burst_deliveries_per_s {rate:.0} deliveries/s (over all bursts; each {:?})",
        rates.len(),
        burst_members.len(),
        rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>()
    ));

    let joins_with_media = join_ms.len() as u64;
    let joins = ctl.joins.len() as u64;
    let sig = &ctl.signalling;
    let roster_faults = ctl.roster_faults.len() as u64;
    report.attempted = total.publishes + sig.requests + joins + ctl.roster_checks;
    report.failed = total.failed_publishes
        + (sig.requests - sig.successes)
        + (joins - joins_with_media)
        + roster_faults;
    report.info(format!(
        "accounting: deliveries expected {} drained by the deadline {} (required {}, missing {}), defects {}; \
         signalling requests {} with 2xx or connected {}; joins {joins} that saw media {joins_with_media}; \
         roster checks {} mismatched {roster_faults}; publishes {} with a required delivery missing {}",
        total.expected,
        total.drained,
        total.delivered,
        total.missing(),
        total.violations,
        sig.requests,
        sig.successes,
        ctl.roster_checks,
        total.publishes,
        total.failed_publishes
    ));
    for f in sig.failures.iter().take(5) {
        report.info(format!("signalling failed: {f}"));
    }
    for m in total.missing_examples.iter().take(5) {
        report.info(format!("missing: {m}"));
    }
    report.violations = total.examples;
    for f in ctl.roster_faults.iter().take(3) {
        report.info(format!("roster check failed: {f}"));
    }

    if traced {
        let m = net.cluster.metrics();
        let published = media.published.max(1) as f64;
        report.layer(
            "cluster.publish_ns",
            media.tracer.mean_ns("cluster.publish"),
        );
        report.layer(
            "cluster.subscribe_ns",
            control_tracer.mean_ns("cluster.subscribe"),
        );
        report.layer(
            "cluster.gossip_round_ms",
            control_tracer.mean_ns("cluster.gossip_round") / 1e6,
        );
        let rounds: Vec<f64> = ctl.rounds.iter().map(|&r| f64::from(r)).collect();
        report.layer("cluster.rounds_to_converge", common::mean(&rounds));
        report.layer(
            "cluster.inter_node_forwards_per_publish",
            m.total(|n| n.inter_node_forwards.get()) as f64 / published,
        );
        report.layer(
            "cluster.relays_per_publish",
            m.total(|n| n.relays.get()) as f64 / published,
        );
        let hops = mmcs_telemetry::HistogramSnapshot::merge_all(
            &m.nodes()
                .map(|n| n.hop_histogram.snapshot())
                .collect::<Vec<_>>(),
        );
        report.layer("cluster.hop_mean", hops.mean());
        report.layer("cluster.reconnects", m.total(|n| n.reconnects.get()) as f64);
        report.layer(
            "cluster.duplicate_frames",
            m.total(|n| n.duplicate_frames.get()) as f64,
        );
        report.layer(
            "gossip.entries_applied",
            m.total(|n| n.gossip_entries_applied.get()) as f64,
        );
        report.layer(
            "core.sip_invite_us",
            control_tracer.mean_ns("core.sip_invite") / 1e3,
        );
        report.layer(
            "core.sip_bye_us",
            control_tracer.mean_ns("core.sip_bye") / 1e3,
        );
        report.layer(
            "core.h323_call_us",
            control_tracer.mean_ns("core.h323_call") / 1e3,
        );
        report.layer(
            "core.xgsp_join_us",
            control_tracer.mean_ns("core.xgsp_join") / 1e3,
        );
        report.layer("sip.parse_us", control_tracer.mean_ns("sip.parse") / 1e3);
        report.layer(
            "h323.decode_us",
            control_tracer.mean_ns("h323.decode") / 1e3,
        );
        report.layer("xgsp.parse_us", control_tracer.mean_ns("xgsp.parse") / 1e3);
        report.layer("rtp.encode_ns", media.tracer.mean_ns("rtp.encode"));
        common::record_pool_hit_ratio(&mut report, pool_before);
        for (tracer, part) in [(&media.tracer, "media"), (&control_tracer, "control")] {
            let path = std::path::PathBuf::from(format!(
                "perfbench/out/spans-federated_churn-{seed}-{part}.tsv"
            ));
            if let Err(e) = tracer.write(&path) {
                report.info(format!("could not write spans to {}: {e}", path.display()));
            }
        }

        // The interleaved subscribe/publish stream, in time order.
        let speakers: Vec<_> = (0..sessions_n)
            .map(|g| net.people[speaker(g) as usize].client.id())
            .collect();
        let mut timed: Vec<(u64, Op)> = ctl
            .ops
            .iter()
            .map(|&(t, subscribe, p, g)| {
                let client = net.people[p as usize].client.id();
                let filter = net.filters[g as usize].clone();
                (
                    t,
                    if subscribe {
                        Op::Subscribe(client, filter)
                    } else {
                        Op::Unsubscribe(client, filter)
                    },
                )
            })
            .collect();
        for p in &replay_pubs {
            let event = Event::new(
                net.topics[p.group as usize].clone(),
                speakers[p.src as usize],
                p.seq,
                EventClass::Rtp,
                media::packet(media::PCMU_20MS, seed, p.src, p.seq),
            );
            timed.push((p.start_ns, Op::Publish(event.into_shared())));
        }
        timed.sort_by_key(|(t, _)| *t);
        let mut subs: Vec<(u32, TopicFilter)> = members
            .iter()
            .map(|m| (m.rcv, net.filters[m.group as usize].clone()))
            .collect();
        subs.dedup();
        // Static subscriptions come first in the stream.
        let mut ops: Vec<Op> = members
            .iter()
            .filter(|m| m.settled_before_ns == 0 && m.leave_ns == u64::MAX && m.live_from_ns == 0)
            .map(|m| {
                Op::Subscribe(
                    net.people[m.rcv as usize].client.id(),
                    net.filters[m.group as usize].clone(),
                )
            })
            .collect();
        ops.extend(timed.into_iter().map(|(_, op)| op));
        replay::run(
            &ReplayInput {
                clients: net.people.iter().map(|p| p.client.id()).collect(),
                subs,
                events: replay_events,
                ops,
            },
            &mut report,
        );
    }
    report
}
