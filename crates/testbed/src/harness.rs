//! Chain assembly and the end-to-end run loop.
//!
//! [`run_chain`] stands up one gateway → router… → sink chain over UDP
//! loopback: the gateway thread generates and sends `pkts` real
//! datagrams per the mix's schedule, each router thread drives its own
//! [`ShardedRouter`](hummingbird_dataplane::ShardedRouter) over the
//! selected engine family, and the sink thread measures delivery,
//! goodput and end-to-end latency. When the FIN has propagated, the
//! harness cross-checks every counter for exact packet conservation —
//! `sent = delivered + engine drops + parse drops`, globally, per flow
//! and per class — and reports any violation as a loud error string
//! rather than a skewed statistic.

use hummingbird_dataplane::{DropReason, LatencyHistogram, RouterConfig};
use hummingbird_netsim::{EngineFamily, LinearTopology, LinkSpec};
use hummingbird_wire::IsdAs;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use crate::frame::{PayloadHeader, KIND_DATA, PAYLOAD_HDR_LEN};
use crate::link::{AckSender, CreditedSender, WaitStrategy};
use crate::mix::TrafficMix;
use crate::node::{NodeStats, Sink, SocketRouter, BEST_EFFORT, RESERVED};
use crate::{now_unix_ms, now_unix_ns};

/// Bandwidth granted to each reserved flow: 10 Gbps, far above anything
/// a loopback chain can carry, so policing never throttles a
/// well-behaved credentialed flow.
pub const RESERVED_BW_KBPS: u64 = 10_000_000;

/// Destination AS of every testbed flow.
const DST: IsdAs = IsdAs::new(2, 0xB);

/// Source AS of flow `f` — one AS per flow, so source-keyed families
/// (EPIC, DRKey) spread flows across shards just like reservation-keyed
/// ones.
fn flow_src(f: usize) -> IsdAs {
    IsdAs::new(1, 0x100 + f as u64)
}

/// One chain configuration: which family and mix, at what scale.
#[derive(Clone, Debug)]
pub struct ChainSpec {
    /// Engine family every router in the chain runs.
    pub family: EngineFamily,
    /// Traffic shape the gateway drives.
    pub mix: TrafficMix,
    /// Number of border routers between gateway and sink.
    pub routers: usize,
    /// Engine shards per router.
    pub shards: usize,
    /// How senders wait for link credit. The default
    /// [`WaitStrategy::Backoff`] yields through a few polls and then
    /// sleeps on the control socket until the next ack, which suits
    /// chains with more node threads than hardware threads;
    /// `BusyPoll` and `YieldAfter(n)` are for hosts with a core per
    /// node.
    pub wait: WaitStrategy,
    /// Total packets the gateway sends.
    pub pkts: u64,
    /// L4 payload length per packet (≥ [`PAYLOAD_HDR_LEN`]).
    pub payload_len: usize,
    /// Credit window per link, in data frames (default 64, 39 % of the
    /// 166 datagrams of ≤ 600 B the default Linux receive buffer holds;
    /// see [`link`](crate::link)).
    pub window: usize,
    /// Receiver ack cadence, in data frames (default 32, half the
    /// window: a sender out of credit wakes once per 32 frames the
    /// receiver has taken, and always has another 32 in flight).
    pub ack_every: u64,
    /// Stall budget: a link or socket silent this long fails the run.
    pub timeout: Duration,
}

impl ChainSpec {
    /// A 3-router chain at the default scale.
    pub fn new(family: EngineFamily, mix: TrafficMix) -> Self {
        ChainSpec {
            family,
            mix,
            routers: 3,
            shards: 1,
            wait: WaitStrategy::Backoff,
            pkts: 100_000,
            payload_len: 200,
            window: 64,
            ack_every: 32,
            timeout: Duration::from_secs(10),
        }
    }
}

/// Per-class outcome of a run.
#[derive(Clone, Debug, Default)]
pub struct ClassReport {
    /// Packets the gateway sent in this class.
    pub sent: u64,
    /// Packets the sink delivered.
    pub delivered: u64,
    /// Packets engines dropped along the chain.
    pub engine_dropped: u64,
    /// L4 payload bytes delivered: `payload_len` per packet, the path
    /// header not counted.
    pub payload_bytes: u64,
    /// End-to-end latency distribution at the sink.
    pub latency: LatencyHistogram,
}

impl ClassReport {
    /// Delivered payload rate in Mbit/s over the sink's measurement
    /// window (0 when the window is empty).
    pub fn goodput_mbps(&self, wall_ns: u64) -> f64 {
        if wall_ns == 0 {
            return 0.0;
        }
        (self.payload_bytes as f64 * 8.0 * 1e3) / wall_ns as f64
    }
}

/// Everything one chain run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Family under test.
    pub family: EngineFamily,
    /// Mix driven.
    pub mix: TrafficMix,
    /// Routers in the chain.
    pub routers: usize,
    /// Shards per router.
    pub shards: usize,
    /// Packets sent.
    pub sent: u64,
    /// Per-class accounting: `[RESERVED, BEST_EFFORT]`.
    pub classes: [ClassReport; 2],
    /// Structurally invalid datagrams across all nodes.
    pub parse_drops: u64,
    /// Engine drop reasons, merged across routers.
    pub drop_reasons: Vec<(DropReason, u64)>,
    /// Sink measurement window (first delivery → FIN), ns.
    pub wall_ns: u64,
    /// Conservation violations; empty on a clean run.
    pub violations: Vec<String>,
}

impl RunReport {
    /// Total packets delivered.
    pub fn delivered(&self) -> u64 {
        self.classes[RESERVED].delivered + self.classes[BEST_EFFORT].delivered
    }

    /// Total engine drops.
    pub fn engine_dropped(&self) -> u64 {
        self.classes[RESERVED].engine_dropped + self.classes[BEST_EFFORT].engine_dropped
    }

    /// True when every packet is accounted for and nothing failed to
    /// parse.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.parse_drops == 0
    }
}

/// Runs one gateway → routers → sink chain over UDP loopback and
/// returns the fully cross-checked report. `Err` means the chain itself
/// failed (a stalled link, a dead socket, a generator error);
/// conservation violations are reported in [`RunReport::violations`]
/// instead, so the caller can print the numbers before failing.
pub fn run_chain(spec: &ChainSpec) -> Result<RunReport, String> {
    assert!(spec.routers >= 1, "a chain needs at least one router");
    assert!(spec.payload_len >= PAYLOAD_HDR_LEN, "payload must fit the measurement header");

    let cfg = RouterConfig::default();
    let start_ns = now_unix_ns();
    let mut topo = LinearTopology::build(spec.routers, LinkSpec::default(), start_ns, cfg);

    // Flow table and per-flow generators (credentialed where reserved).
    let plan = spec.mix.plan(spec.pkts);
    let flow_reserved: Vec<bool> = plan.flows.iter().map(|f| f.reserved).collect();
    let now_s = start_ns / 1_000_000_000;
    let mut generators = Vec::with_capacity(plan.flows.len());
    for (f, flow) in plan.flows.iter().enumerate() {
        let src = flow_src(f);
        let mut gen = topo.make_generator(src, DST);
        if flow.reserved {
            for hop in 0..spec.routers {
                let cred =
                    topo.make_family_credential(spec.family, hop, src, RESERVED_BW_KBPS, now_s);
                gen.attach_reservation(hop, cred)
                    .map_err(|e| format!("flow {f} hop {hop}: attach failed: {e:?}"))?;
            }
        }
        generators.push(gen);
    }

    // Rx sockets for every node, addresses resolved before any socket
    // moves into its node.
    let err = |e: std::io::Error| e.to_string();
    let router_socks: Vec<UdpSocket> = (0..spec.routers)
        .map(|_| UdpSocket::bind("127.0.0.1:0"))
        .collect::<std::io::Result<_>>()
        .map_err(err)?;
    let sink_sock = UdpSocket::bind("127.0.0.1:0").map_err(err)?;
    let mut peer_addrs = Vec::with_capacity(spec.routers + 1);
    for sock in &router_socks {
        peer_addrs.push(sock.local_addr().map_err(err)?);
    }
    peer_addrs.push(sink_sock.local_addr().map_err(err)?);

    // Credit-windowed senders along the chain: the gateway's toward
    // router 0, then each router's toward its successor (or the sink).
    // Each node acks toward the control socket of the sender feeding it.
    let mut gw_sender =
        CreditedSender::new(peer_addrs[0], spec.window, spec.wait, spec.timeout).map_err(err)?;
    let mut senders = Vec::with_capacity(spec.routers);
    for hop in 0..spec.routers {
        senders.push(
            CreditedSender::new(peer_addrs[hop + 1], spec.window, spec.wait, spec.timeout)
                .map_err(err)?,
        );
    }
    let mut upstream_ctrls = vec![gw_sender.ctrl_addr().map_err(err)?];
    for s in &senders {
        upstream_ctrls.push(s.ctrl_addr().map_err(err)?);
    }

    // Spawn the chain. The shared `epoch` Instant is the run's clock:
    // the gateway stamps payloads with it, the sink subtracts.
    let epoch = Instant::now();
    let mut router_handles = Vec::with_capacity(spec.routers);
    for (hop, (data, next)) in router_socks.into_iter().zip(senders).enumerate() {
        let router = SocketRouter {
            data,
            engine: Box::new(topo.make_sharded_hop_engine(spec.family, hop, cfg, spec.shards)),
            next,
            acks: AckSender::new(upstream_ctrls[hop], spec.ack_every).map_err(err)?,
            flow_reserved: flow_reserved.clone(),
            timeout: spec.timeout,
        };
        router_handles.push(std::thread::spawn(move || router.run()));
    }
    let sink = Sink {
        data: sink_sock,
        acks: AckSender::new(upstream_ctrls[spec.routers], spec.ack_every).map_err(err)?,
        flow_reserved: flow_reserved.clone(),
        epoch,
        timeout: spec.timeout,
    };
    let sink_handle = std::thread::spawn(move || sink.run());

    // The gateway runs on the calling thread: generate each packet
    // fresh (engines check wall-clock freshness) and push it through the
    // credit window.
    let mut seqs = vec![0u64; generators.len()];
    let mut payload = vec![0u8; spec.payload_len];
    let mut frame = Vec::with_capacity(1 + spec.payload_len + 512);
    for &f in &plan.sequence {
        let fi = f as usize;
        PayloadHeader { flow_id: f, seq: seqs[fi], stamp_ns: epoch.elapsed().as_nanos() as u64 }
            .write(&mut payload);
        seqs[fi] += 1;
        let pkt = generators[fi]
            .generate(&payload, now_unix_ms())
            .map_err(|e| format!("flow {fi}: generate failed: {e:?}"))?;
        frame.clear();
        frame.push(KIND_DATA);
        frame.extend_from_slice(&pkt);
        gw_sender.send_data(&frame).map_err(err)?;
    }
    // FIN before drain: router 0 flushes its final (sub-cadence) ack
    // when the FIN arrives, which is what lets the drain complete.
    gw_sender.send_fin().map_err(err)?;
    gw_sender.drain().map_err(err)?;

    let mut router_stats: Vec<NodeStats> = Vec::with_capacity(spec.routers);
    for (hop, handle) in router_handles.into_iter().enumerate() {
        let stats = handle
            .join()
            .map_err(|_| format!("router {hop} panicked"))?
            .map_err(|e| format!("router {hop}: {e}"))?;
        router_stats.push(stats);
    }
    let sink_report = sink_handle
        .join()
        .map_err(|_| "sink panicked".to_owned())?
        .map_err(|e| format!("sink: {e}"))?;

    // Assemble and cross-check: the sink's per-class report gets the
    // gateway's sent counts and the routers' engine drops.
    let mut classes = sink_report.classes;
    for (f, &reserved) in flow_reserved.iter().enumerate() {
        classes[if reserved { RESERVED } else { BEST_EFFORT }].sent += seqs[f];
    }
    for class in [RESERVED, BEST_EFFORT] {
        classes[class].engine_dropped = router_stats.iter().map(|s| s.engine_drops[class]).sum();
    }
    let parse_drops: u64 =
        router_stats.iter().map(|s| s.parse_drops).sum::<u64>() + sink_report.parse_drops;
    let mut drop_reasons: Vec<(DropReason, u64)> = Vec::new();
    for stats in &router_stats {
        for &(reason, n) in &stats.drop_reasons {
            if let Some(slot) = drop_reasons.iter_mut().find(|(r, _)| *r == reason) {
                slot.1 += n;
            } else {
                drop_reasons.push((reason, n));
            }
        }
    }

    let mut violations = Vec::new();
    let delivered: u64 = classes.iter().map(|c| c.delivered).sum();
    let engine_dropped: u64 = classes.iter().map(|c| c.engine_dropped).sum();
    if spec.pkts != delivered + engine_dropped + parse_drops {
        violations.push(format!(
            "global conservation: sent {} != delivered {} + engine drops {} + parse drops {}",
            spec.pkts, delivered, engine_dropped, parse_drops
        ));
    }
    for class in [RESERVED, BEST_EFFORT] {
        let c = &classes[class];
        // Parse drops are classless, so this per-class identity only
        // holds exactly on parse-clean runs — which every run must be.
        if parse_drops == 0 && c.sent != c.delivered + c.engine_dropped {
            violations.push(format!(
                "class {class} conservation: sent {} != delivered {} + engine drops {}",
                c.sent, c.delivered, c.engine_dropped
            ));
        }
    }
    for (f, &sent) in seqs.iter().enumerate() {
        let dropped: u64 = router_stats.iter().map(|s| s.flow_drops[f]).sum();
        let delivered = sink_report.flow_delivered[f];
        if sent != delivered + dropped {
            violations.push(format!(
                "flow {f} conservation: sent {sent} != delivered {delivered} + drops {dropped}"
            ));
        }
    }

    Ok(RunReport {
        family: spec.family,
        mix: spec.mix,
        routers: spec.routers,
        shards: spec.shards,
        sent: spec.pkts,
        classes,
        parse_drops,
        drop_reasons,
        wall_ns: sink_report.wall_ns,
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short chain per family and mix: every packet accounted for,
    /// nothing unparseable, both classes delivered, latency histograms
    /// populated. The packet count is deliberately *not* a multiple of
    /// the 32-frame ack cadence — a regression guard for the FIN/drain
    /// ordering: the trailing sub-cadence frames are only acknowledged
    /// by the receiver's FIN-time flush, so draining before sending the
    /// FIN deadlocked such runs.
    #[test]
    fn short_chains_conserve_packets_for_every_family() {
        for family in EngineFamily::ALL {
            for mix in TrafficMix::ALL {
                let label = format!("{}/{}", family.name(), mix.name());
                let mut spec = ChainSpec::new(family, mix);
                spec.pkts = 2_005;
                spec.routers = 2;
                let report = run_chain(&spec).unwrap();
                assert!(report.violations.is_empty(), "{label}: {:?}", report.violations);
                assert_eq!(report.parse_drops, 0, "{label}");
                assert_eq!(
                    report.delivered() + report.engine_dropped(),
                    spec.pkts,
                    "{label}: {:?}",
                    report.drop_reasons
                );
                for class in [RESERVED, BEST_EFFORT] {
                    let c = &report.classes[class];
                    assert!(c.delivered > 0, "{label} class {class} delivered nothing");
                    assert!(c.latency.percentile_ns(0.5) > 0, "{label}");
                }
            }
        }
    }

    /// Goodput counts the L4 payload only: every delivered packet adds
    /// exactly `payload_len` bytes, whatever its path header weighs.
    #[test]
    fn payload_bytes_are_payload_len_per_delivered_packet() {
        let mut spec = ChainSpec::new(EngineFamily::Hummingbird, TrafficMix::Cbr);
        spec.pkts = 203;
        spec.routers = 1;
        spec.payload_len = 120;
        let report = run_chain(&spec).unwrap();
        assert!(report.clean(), "{:?}", report.violations);
        for class in [RESERVED, BEST_EFFORT] {
            let c = &report.classes[class];
            assert!(c.delivered > 0, "class {class} delivered nothing");
            assert_eq!(c.payload_bytes, c.delivered * spec.payload_len as u64, "class {class}");
        }
    }

    /// Multiple shards behind one socket router still conserve exactly.
    #[test]
    fn sharded_chain_conserves_with_bursty_mix() {
        let mut spec = ChainSpec::new(EngineFamily::Hummingbird, TrafficMix::BurstyOnOff);
        spec.pkts = 2_002;
        spec.routers = 2;
        spec.shards = 2;
        let report = run_chain(&spec).unwrap();
        assert!(report.clean(), "{:?}", report.violations);
        assert_eq!(report.delivered() + report.engine_dropped(), spec.pkts);
    }
}
