//! The socket-facing nodes of the chain: [`SocketRouter`] (rx → parse →
//! engine → tx) and [`Sink`] (rx → parse → latency/conservation
//! accounting).
//!
//! A router node is exactly the paper's border-router loop over real
//! datagrams: pull a frame off its UDP socket, validate the packet with
//! [`PacketView::new_checked`] (plus the declared-vs-actual length
//! check), drive it through any [`Datapath`] — in practice a
//! [`ShardedRouter`](hummingbird_dataplane::ShardedRouter) over the
//! selected engine family, so `ChainSpec::shards` applies — and forward the
//! mutated bytes to the next hop's socket. Every datagram is accounted
//! for: it is forwarded, counted as an engine drop against its flow, or
//! counted as a parse drop. Nothing is lost silently, which is what
//! makes the harness's exact conservation check possible.
//!
//! [`PacketView::new_checked`]: hummingbird_wire::PacketView::new_checked

use hummingbird_dataplane::{Datapath, DropReason, LatencyHistogram, Verdict};
use hummingbird_wire::PacketView;
use std::io;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use crate::frame::{PayloadHeader, KIND_DATA, KIND_FIN};
use crate::link::{AckSender, CreditedSender};
use crate::now_unix_ns;

/// Largest datagram a node accepts (header + payload headroom).
pub const MAX_DATAGRAM: usize = 2048;

/// Traffic class of a flow: `RESERVED` carries the family's per-hop
/// credential, `BEST_EFFORT` rides plain.
pub const RESERVED: usize = 0;
/// See [`RESERVED`].
pub const BEST_EFFORT: usize = 1;

/// Per-class, per-flow accounting one node accumulates.
#[derive(Clone, Debug, Default)]
pub struct NodeStats {
    /// Data frames received off the socket.
    pub rx: u64,
    /// Packets forwarded to the next hop, per class of the engine's
    /// verdict (a demoted reserved packet is best effort).
    pub forwarded: [u64; 2],
    /// Engine drops per class of the dropped packet's flow.
    pub engine_drops: [u64; 2],
    /// Engine drops per flow id.
    pub flow_drops: Vec<u64>,
    /// Datagrams that failed structural validation (bad kind byte,
    /// `new_checked` failure, declared/actual length mismatch, missing
    /// payload header). Classless by construction — an unparseable
    /// datagram has no trustworthy flow id.
    pub parse_drops: u64,
    /// Engine drop reasons, for diagnosis.
    pub drop_reasons: Vec<(DropReason, u64)>,
}

impl NodeStats {
    fn new(flows: usize) -> Self {
        NodeStats { flow_drops: vec![0; flows], ..NodeStats::default() }
    }

    fn count_reason(&mut self, reason: DropReason) {
        if let Some(slot) = self.drop_reasons.iter_mut().find(|(r, _)| *r == reason) {
            slot.1 += 1;
        } else {
            self.drop_reasons.push((reason, 1));
        }
    }

    /// Total engine drops.
    pub fn engine_dropped(&self) -> u64 {
        self.engine_drops[RESERVED] + self.engine_drops[BEST_EFFORT]
    }
}

/// Validates one received data frame: checked view over the packet
/// bytes, declared length equal to the datagram length, and a readable
/// payload header. Returns the flow header and the L4 payload length on
/// success.
fn validate_frame(pkt: &[u8]) -> Option<(PayloadHeader, usize)> {
    let view = PacketView::new_checked(pkt).ok()?;
    if view.wire_len().ok()? != pkt.len() {
        return None;
    }
    let payload = view.payload().ok()?;
    Some((PayloadHeader::read(payload)?, payload.len()))
}

/// One border-router node: rx socket → engine → credit-windowed tx.
pub struct SocketRouter {
    /// This node's data socket (upstream sends here).
    pub data: UdpSocket,
    /// The engine under test (a `ShardedRouter` over the family).
    pub engine: Box<dyn Datapath + Send>,
    /// Credit-windowed link to the next hop.
    pub next: CreditedSender,
    /// Ack duty toward the upstream sender.
    pub acks: AckSender,
    /// `flow_id → class` table (true = reserved).
    pub flow_reserved: Vec<bool>,
    /// Rx timeout: a socket silent this long is a stall, not a wait.
    pub timeout: Duration,
}

impl SocketRouter {
    /// Runs the node until FIN: every data frame is parsed, processed
    /// and forwarded (or counted as a drop); the FIN then follows the
    /// last forwarded frame, and the node waits until the downstream
    /// hop has acknowledged every forwarded frame (the FIN is what
    /// triggers the downstream's final ack flush).
    pub fn run(mut self) -> io::Result<NodeStats> {
        let mut stats = NodeStats::new(self.flow_reserved.len());
        let mut buf = [0u8; MAX_DATAGRAM];
        self.data.set_read_timeout(Some(self.timeout))?;
        loop {
            let n = self.data.recv(&mut buf)?;
            if n >= 1 && buf[0] == KIND_FIN {
                self.acks.flush()?;
                break;
            }
            stats.rx += 1;
            self.acks.on_data()?;
            if n < 1 || buf[0] != KIND_DATA {
                stats.parse_drops += 1;
                continue;
            }
            let pkt = &mut buf[1..n];
            let Some((hdr, _)) = validate_frame(pkt) else {
                stats.parse_drops += 1;
                continue;
            };
            let class = match self.flow_reserved.get(hdr.flow_id as usize) {
                Some(true) => RESERVED,
                Some(false) => BEST_EFFORT,
                None => {
                    stats.parse_drops += 1;
                    continue;
                }
            };
            // A drop is charged to the flow's class; a forwarded packet
            // counts in the class its verdict gave it, so a demoted
            // reserved packet is best effort.
            match self.engine.process(pkt, now_unix_ns()) {
                Verdict::Drop(reason) => {
                    stats.engine_drops[class] += 1;
                    stats.flow_drops[hdr.flow_id as usize] += 1;
                    stats.count_reason(reason);
                }
                Verdict::Flyover { .. } => {
                    self.next.send_data(&buf[..n])?;
                    stats.forwarded[RESERVED] += 1;
                }
                Verdict::BestEffort { .. } => {
                    self.next.send_data(&buf[..n])?;
                    stats.forwarded[BEST_EFFORT] += 1;
                }
            }
        }
        // FIN first, then drain: the downstream acks its trailing
        // sub-cadence frames only on FIN, so the reverse order
        // deadlocks whenever the forwarded count is not a multiple of
        // the ack cadence. Loopback delivers in order, so the FIN
        // cannot overtake the data frames.
        self.next.send_fin()?;
        self.next.drain()?;
        Ok(stats)
    }
}

/// What the sink measured for one class.
#[derive(Clone, Debug, Default)]
pub struct SinkClass {
    /// Packets delivered.
    pub pkts: u64,
    /// L4 payload bytes delivered, measurement header included and
    /// path header excluded (goodput numerator).
    pub payload_bytes: u64,
    /// End-to-end latency distribution (send stamp → sink rx).
    pub latency: LatencyHistogram,
}

/// End-of-chain measurements.
#[derive(Clone, Debug, Default)]
pub struct SinkReport {
    /// Per-class delivery and latency.
    pub classes: [SinkClass; 2],
    /// Packets delivered per flow id.
    pub flow_delivered: Vec<u64>,
    /// Structurally invalid datagrams.
    pub parse_drops: u64,
    /// First data frame → FIN, nanoseconds (0 when nothing arrived).
    pub wall_ns: u64,
}

/// The destination host: counts, classifies and time-stamps everything
/// that survived the chain.
pub struct Sink {
    /// This node's data socket.
    pub data: UdpSocket,
    /// Ack duty toward the last router.
    pub acks: AckSender,
    /// `flow_id → class` table (true = reserved).
    pub flow_reserved: Vec<bool>,
    /// The run's shared clock epoch (latency = now − stamp).
    pub epoch: Instant,
    /// Rx timeout, as in [`SocketRouter`].
    pub timeout: Duration,
}

impl Sink {
    /// Runs until FIN, measuring delivery and end-to-end latency.
    pub fn run(mut self) -> io::Result<SinkReport> {
        let mut report = SinkReport {
            flow_delivered: vec![0; self.flow_reserved.len()],
            ..SinkReport::default()
        };
        let mut buf = [0u8; MAX_DATAGRAM];
        let mut first_rx: Option<Instant> = None;
        self.data.set_read_timeout(Some(self.timeout))?;
        loop {
            let n = self.data.recv(&mut buf)?;
            if n >= 1 && buf[0] == KIND_FIN {
                self.acks.flush()?;
                break;
            }
            first_rx.get_or_insert_with(Instant::now);
            self.acks.on_data()?;
            if n < 1 || buf[0] != KIND_DATA {
                report.parse_drops += 1;
                continue;
            }
            let pkt = &buf[1..n];
            let Some((hdr, payload_len)) = validate_frame(pkt) else {
                report.parse_drops += 1;
                continue;
            };
            let class = match self.flow_reserved.get(hdr.flow_id as usize) {
                Some(true) => RESERVED,
                Some(false) => BEST_EFFORT,
                None => {
                    report.parse_drops += 1;
                    continue;
                }
            };
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            let cls = &mut report.classes[class];
            cls.pkts += 1;
            cls.payload_bytes += payload_len as u64;
            cls.latency.record(now_ns.saturating_sub(hdr.stamp_ns));
            report.flow_delivered[hdr.flow_id as usize] += 1;
        }
        if let Some(first) = first_rx {
            report.wall_ns = first.elapsed().as_nanos() as u64;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::PayloadHeader;
    use crate::link::WaitStrategy;
    use crate::now_unix_ms;
    use hummingbird_dataplane::RouterConfig;
    use hummingbird_netsim::{EngineFamily, LinearTopology, LinkSpec};
    use hummingbird_wire::IsdAs;

    /// A reserved flow sent far over its 64 kbps credential: the policer
    /// keeps the first packet or two in the priority class and demotes the
    /// rest, and the router counts each packet in the class its verdict
    /// forwarded it in, not in the class of its flow.
    #[test]
    fn demoted_reserved_packets_count_as_best_effort() {
        const PKTS: u64 = 200;
        let (cfg, timeout) = (RouterConfig::default(), Duration::from_secs(10));
        let start_ns = now_unix_ns();
        let mut topo = LinearTopology::build(1, LinkSpec::default(), start_ns, cfg);
        let (hb, src) = (EngineFamily::Hummingbird, IsdAs::new(1, 0x100));
        let mut generator = topo.make_generator(src, IsdAs::new(2, 0xB));
        let credential = topo.make_family_credential(hb, 0, src, 64, start_ns / 1_000_000_000);
        generator.attach_reservation(0, credential).unwrap();

        let (data, sink_data) =
            (UdpSocket::bind("127.0.0.1:0").unwrap(), UdpSocket::bind("127.0.0.1:0").unwrap());
        let link = |to: &UdpSocket| {
            CreditedSender::new(to.local_addr().unwrap(), 64, WaitStrategy::Backoff, timeout)
                .unwrap()
        };
        let (mut gateway, next) = (link(&data), link(&sink_data));
        let sink = Sink {
            data: sink_data,
            acks: AckSender::new(next.ctrl_addr().unwrap(), 16).unwrap(),
            flow_reserved: vec![true],
            epoch: Instant::now(),
            timeout,
        };
        let router = SocketRouter {
            data,
            engine: topo.make_family_hop_engine(hb, 0, cfg),
            next,
            acks: AckSender::new(gateway.ctrl_addr().unwrap(), 16).unwrap(),
            flow_reserved: vec![true],
            timeout,
        };
        let (router, sink) =
            (std::thread::spawn(move || router.run()), std::thread::spawn(move || sink.run()));
        let mut payload = [0u8; 200];
        for seq in 0..PKTS {
            PayloadHeader { flow_id: 0, seq, stamp_ns: 0 }.write(&mut payload);
            let mut frame = vec![KIND_DATA];
            frame.extend(generator.generate(&payload, now_unix_ms()).unwrap());
            gateway.send_data(&frame).unwrap();
        }
        gateway.send_fin().unwrap();
        gateway.drain().unwrap();
        let stats = router.join().unwrap().unwrap();
        sink.join().unwrap().unwrap();

        assert_eq!(stats.engine_dropped(), 0, "{stats:?}");
        assert_eq!(stats.forwarded[RESERVED] + stats.forwarded[BEST_EFFORT], PKTS);
        assert!(stats.forwarded[RESERVED] > 0, "the burst budget admits some: {stats:?}");
        assert!(stats.forwarded[BEST_EFFORT] > 0, "demoted packets are best effort: {stats:?}");
    }
}
