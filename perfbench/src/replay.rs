//! Single-threaded replays for the traced run: a workload's recorded
//! publish stream and subscription set, fed through the `topic`,
//! `node`, `wire`, `rtp`, `cluster` frame and `gossip` functions one
//! layer at a time, so each layer's cost per call is measured on the
//! workload's own inputs.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use mmcs_broker::cluster::{encode_event_frame, ClusterFrame};
use mmcs_broker::event::Event;
use mmcs_broker::gossip::{GossipState, InterestEntry, NodeId};
use mmcs_broker::metrics::BrokerMetrics;
use mmcs_broker::node::{Input, Origin};
use mmcs_broker::profile::TransportProfile;
use mmcs_broker::topic::{SubscriptionTable, TopicFilter};
use mmcs_broker::wire;
use mmcs_broker::BrokerNode;
use mmcs_rtp::packet::WireRtp;
use mmcs_util::id::{BrokerId, ClientId};

use crate::common::Report;

/// One step of a recorded control-and-data stream.
pub enum Op {
    Subscribe(ClientId, TopicFilter),
    Unsubscribe(ClientId, TopicFilter),
    Publish(Arc<Event>),
}

pub struct ReplayInput {
    /// Every client of the workload, in its own index order.
    pub clients: Vec<ClientId>,
    /// The subscription set: (client index, filter).
    pub subs: Vec<(u32, TopicFilter)>,
    /// A sample of the published events, in publish order.
    pub events: Vec<Arc<Event>>,
    /// The interleaved subscribe/unsubscribe/publish stream, when the
    /// workload changes subscriptions while it publishes.
    pub ops: Vec<Op>,
}

/// Calls made per timed loop, at least.
const MIN_CALLS: usize = 50_000;

/// Mean ns per call of `f` over `items`, repeated until at least
/// `MIN_CALLS` calls were timed.
fn per_call<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let reps = MIN_CALLS.div_ceil(items.len());
    let start = Instant::now();
    for _ in 0..reps {
        for item in items {
            f(item);
        }
    }
    start.elapsed().as_nanos() as f64 / (reps * items.len()) as f64
}

fn attached_node(input: &ReplayInput, metrics: Option<Arc<BrokerMetrics>>) -> BrokerNode {
    let mut node = BrokerNode::new(BrokerId::from_raw(0));
    if let Some(m) = metrics {
        node.set_metrics(m);
    }
    let extra: BTreeSet<ClientId> = input.events.iter().map(|e| e.source).collect();
    let all: BTreeSet<ClientId> = input.clients.iter().copied().chain(extra).collect();
    for client in all {
        node.handle(Input::AttachClient {
            client,
            profile: TransportProfile::default(),
        })
        .expect("fresh client");
    }
    node
}

fn publish(node: &mut BrokerNode, event: &Arc<Event>, out: &mut Vec<mmcs_broker::node::Action>) {
    node.handle_into(
        Input::Publish {
            origin: Origin::Client(event.source),
            event: Arc::clone(event),
        },
        out,
    )
    .expect("publisher is attached");
    black_box(&out);
    out.clear();
}

/// Replays `input` and adds the per-layer metrics to `report`.
pub fn run(input: &ReplayInput, report: &mut Report) {
    let events = &input.events;

    // topic: the subscription trie on the workload's filters.
    let mut table = SubscriptionTable::new();
    for (client, filter) in &input.subs {
        table.subscribe(filter, *client);
    }
    let mut matched: Vec<u32> = Vec::new();
    report.layer(
        "topic.match_ns",
        per_call(events, |e| {
            table.matches_into(&e.topic, &mut matched);
            black_box(&matched);
            matched.clear();
        }),
    );

    // node: subscribe cost, then warm and cold route plans.
    let mut node = attached_node(input, None);
    let start = Instant::now();
    for (client, filter) in &input.subs {
        node.handle(Input::Subscribe {
            client: input.clients[*client as usize],
            filter: filter.clone(),
        })
        .expect("attached client");
    }
    report.layer(
        "node.subscribe_ns",
        start.elapsed().as_nanos() as f64 / input.subs.len().max(1) as f64,
    );
    let mut out = Vec::new();
    for e in events {
        publish(&mut node, e, &mut out);
    }
    report.layer(
        "node.route_warm_ns",
        per_call(events, |e| publish(&mut node, e, &mut out)),
    );
    let bump = TopicFilter::parse("perfbench-generation/bump").expect("valid filter");
    let bumper = input.clients[0];
    let mut cold_ns = 0u128;
    let cold = &events[..events.len().min(2_000)];
    for e in cold {
        for input in [
            Input::Subscribe {
                client: bumper,
                filter: bump.clone(),
            },
            Input::Unsubscribe {
                client: bumper,
                filter: bump.clone(),
            },
        ] {
            node.handle(input).expect("attached client");
        }
        let start = Instant::now();
        publish(&mut node, e, &mut out);
        cold_ns += start.elapsed().as_nanos();
    }
    report.layer(
        "node.route_cold_ns",
        cold_ns as f64 / cold.len().max(1) as f64,
    );

    // node: the interleaved stream through a node with telemetry.
    if !input.ops.is_empty() {
        let metrics = BrokerMetrics::detached();
        let mut node = attached_node(input, Some(Arc::clone(&metrics)));
        for op in &input.ops {
            match op {
                Op::Subscribe(client, filter) => {
                    node.handle(Input::Subscribe {
                        client: *client,
                        filter: filter.clone(),
                    })
                    .expect("attached client");
                }
                Op::Unsubscribe(client, filter) => {
                    node.handle(Input::Unsubscribe {
                        client: *client,
                        filter: filter.clone(),
                    })
                    .expect("attached client");
                }
                Op::Publish(e) => publish(&mut node, e, &mut out),
            }
        }
        let hits = metrics.route_cache_hits.get() as f64;
        let misses = metrics.route_cache_misses.get() as f64;
        report.layer(
            "node.route_cache_hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        report.layer("node.fanout_mean", metrics.fanout.snapshot().mean());
    }

    // wire: event frames.
    report.layer(
        "wire.encode_ns",
        per_call(events, |e| drop(black_box(wire::encode(e)))),
    );
    let frames: Vec<Bytes> = events.iter().map(|e| wire::encode(e).freeze()).collect();
    report.layer(
        "wire.parse_ns",
        per_call(&frames, |f| {
            black_box(wire::WireEvent::parse(f).expect("own frame parses"));
        }),
    );

    // rtp: header parse at the receivers.
    report.layer(
        "rtp.parse_ns",
        per_call(events, |e| {
            black_box(WireRtp::parse(&e.payload).expect("own packet parses"));
        }),
    );

    // cluster: inter-node event frames.
    report.layer(
        "cluster.frame_encode_ns",
        per_call(events, |e| {
            drop(black_box(encode_event_frame(0, 2, 0, 7, e)))
        }),
    );
    let frames: Vec<Bytes> = events
        .iter()
        .map(|e| encode_event_frame(0, 2, 0, 7, e).freeze())
        .collect();
    report.layer(
        "cluster.frame_parse_ns",
        per_call(&frames, |f| {
            black_box(ClusterFrame::parse(f).expect("own frame parses"));
        }),
    );

    // gossip: which of three nodes want each topic, with the
    // subscription set spread over the nodes by client index.
    let mut per_node: BTreeMap<NodeId, BTreeSet<String>> = BTreeMap::new();
    for (client, filter) in &input.subs {
        per_node
            .entry((client % 3) as NodeId)
            .or_default()
            .insert(filter.to_string());
    }
    let mut gossip = GossipState::new(0, 3);
    let mut entries = Vec::new();
    for (node, filters) in per_node {
        let filters: Vec<TopicFilter> = filters
            .iter()
            .map(|f| TopicFilter::parse(f).expect("own filter"))
            .collect();
        if node == 0 {
            for f in &filters {
                gossip.subscribe(f);
            }
        } else {
            entries.push((
                node,
                InterestEntry {
                    generation: 1,
                    filters,
                },
            ));
        }
    }
    gossip.apply(&entries);
    for e in events {
        black_box(gossip.targets_for(&e.topic));
    }
    report.layer(
        "gossip.targets_for_ns",
        per_call(events, |e| {
            black_box(gossip.targets_for(&e.topic));
        }),
    );
}
