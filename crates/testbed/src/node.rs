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
//! Both nodes wait by one receive-idle rule, after the paper's
//! poll-mode router, which takes packets in bursts and sleeps only when
//! idle. A node drains its nonblocking socket up to 32 datagrams at a
//! time, reading the clock once per drain. On an empty socket it polls
//! up to 8 times, yielding its timeslice after each poll, and then
//! sleeps in a blocking `recv` until the next datagram or its
//! `timeout`. A busy chain therefore costs no sleep or wake-up per
//! datagram. A silent upstream ends the node with a `TimedOut` error
//! that names it.
//!
//! [`PacketView::new_checked`]: hummingbird_wire::PacketView::new_checked

use hummingbird_dataplane::{Datapath, DropReason, Verdict};
use hummingbird_wire::PacketView;
use std::io;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use crate::frame::{PayloadHeader, KIND_DATA, KIND_FIN};
use crate::harness::ClassReport;
use crate::link::{read_timed_out, AckSender, CreditedSender};
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

/// Datagrams one drain takes off a node's socket under one clock read.
const BATCH_SIZE: usize = 32;
/// Polls of an empty socket, each followed by a `yield_now`, before a
/// node sleeps in a blocking `recv`.
const IDLE_POLLS: u32 = 8;

/// The receive-idle rule every socket node runs, until `on_datagram`
/// returns `true` (the FIN).
///
/// The socket is drained nonblocking, up to [`BATCH_SIZE`] datagrams at
/// a time, and `on_datagram(frame, now)` sees one `clock()` reading per
/// drain, taken when its first datagram came off the socket. An empty
/// socket is polled [`IDLE_POLLS`] times, yielding after each poll (a
/// spinning poll holds the vCPU the next hop needs to wake on), and
/// then the node sleeps in a blocking `recv`. The
/// datagram that ends a sleep is handled before the socket goes back to
/// nonblocking, so a packet that finds its node asleep pays no extra
/// syscall. A sleep that lasts `timeout` is a stall: the loop ends with
/// a `TimedOut` error naming `node`.
fn receive(
    sock: &UdpSocket,
    node: &str,
    timeout: Duration,
    clock: impl Fn() -> u64,
    mut on_datagram: impl FnMut(&mut [u8], u64) -> io::Result<bool>,
) -> io::Result<()> {
    let mut buf = [0u8; MAX_DATAGRAM];
    sock.set_read_timeout(Some(timeout))?;
    sock.set_nonblocking(true)?;
    let mut idle = 0;
    loop {
        let mut now = None;
        for _ in 0..BATCH_SIZE {
            let n = match sock.recv(&mut buf) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            };
            if on_datagram(&mut buf[..n], *now.get_or_insert_with(&clock))? {
                return Ok(());
            }
        }
        if now.is_some() {
            idle = 0;
            continue;
        }
        idle += 1;
        if idle < IDLE_POLLS {
            std::thread::yield_now();
            continue;
        }
        idle = 0;
        sock.set_nonblocking(false)?;
        let fin = match sock.recv(&mut buf) {
            Ok(n) => on_datagram(&mut buf[..n], clock()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            // Here `WouldBlock` is the expired timeout; in the drain
            // above it means "empty, poll again".
            Err(e) if read_timed_out(&e) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{node} socket silent for {timeout:?}: upstream stalled"),
            )),
            Err(e) => Err(e),
        };
        sock.set_nonblocking(true)?;
        if fin? {
            return Ok(());
        }
    }
}

/// Validates one received frame: the data kind byte, a checked view
/// over the packet bytes, declared length equal to the datagram length,
/// and a readable payload header naming a flow of `flow_reserved`.
/// Returns the flow header, the L4 payload length and the flow's class
/// on success.
fn classify(frame: &[u8], flow_reserved: &[bool]) -> Option<(PayloadHeader, usize, usize)> {
    let pkt = frame.strip_prefix(&[KIND_DATA])?;
    let view = PacketView::new_checked(pkt).ok()?;
    if view.wire_len().ok()? != pkt.len() {
        return None;
    }
    let payload = view.payload().ok()?;
    let hdr = PayloadHeader::read(payload)?;
    let class = if *flow_reserved.get(hdr.flow_id as usize)? { RESERVED } else { BEST_EFFORT };
    Some((hdr, payload.len(), class))
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
        receive(&self.data, "router", self.timeout, now_unix_ns, |frame, now_ns| {
            if frame.first() == Some(&KIND_FIN) {
                self.acks.flush()?;
                return Ok(true);
            }
            stats.rx += 1;
            self.acks.on_data()?;
            let Some((hdr, _, class)) = classify(frame, &self.flow_reserved) else {
                stats.parse_drops += 1;
                return Ok(false);
            };
            // A drop is charged to the flow's class; a forwarded packet
            // counts in the class its verdict gave it, so a demoted
            // reserved packet is best effort.
            match self.engine.process(&mut frame[1..], now_ns) {
                Verdict::Drop(reason) => {
                    stats.engine_drops[class] += 1;
                    stats.flow_drops[hdr.flow_id as usize] += 1;
                    stats.count_reason(reason);
                }
                Verdict::Flyover { .. } => {
                    self.next.send_data(frame)?;
                    stats.forwarded[RESERVED] += 1;
                }
                Verdict::BestEffort { .. } => {
                    self.next.send_data(frame)?;
                    stats.forwarded[BEST_EFFORT] += 1;
                }
            }
            Ok(false)
        })?;
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

/// End-of-chain measurements.
#[derive(Clone, Debug, Default)]
pub struct SinkReport {
    /// Per-class delivery and latency: the sink fills `delivered`,
    /// `payload_bytes` and `latency`; the senders' and routers' columns
    /// stay 0 until [`run_chain`](crate::run_chain) adds them.
    pub classes: [ClassReport; 2],
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
        let epoch = self.epoch;
        let clock = || epoch.elapsed().as_nanos() as u64;
        let mut first_rx_ns = None;
        receive(&self.data, "sink", self.timeout, clock, |frame, now_ns| {
            if frame.first() == Some(&KIND_FIN) {
                self.acks.flush()?;
                return Ok(true);
            }
            first_rx_ns.get_or_insert(now_ns);
            self.acks.on_data()?;
            let Some((hdr, payload_len, class)) = classify(frame, &self.flow_reserved) else {
                report.parse_drops += 1;
                return Ok(false);
            };
            let cls = &mut report.classes[class];
            cls.delivered += 1;
            cls.payload_bytes += payload_len as u64;
            cls.latency.record(now_ns.saturating_sub(hdr.stamp_ns));
            report.flow_delivered[hdr.flow_id as usize] += 1;
            Ok(false)
        })?;
        if let Some(first) = first_rx_ns {
            report.wall_ns = clock().saturating_sub(first);
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
    use hummingbird_dataplane::{RouterConfig, SourceGenerator};
    use hummingbird_netsim::{EngineFamily, LinearTopology, LinkSpec};
    use hummingbird_wire::IsdAs;

    const HB: EngineFamily = EngineFamily::Hummingbird;

    /// Gateway link → one router running hop 0 of `topo` → sink, for one
    /// reserved flow, with the default window and ack cadence.
    fn one_hop_chain(
        topo: &LinearTopology,
        timeout: Duration,
    ) -> (CreditedSender, SocketRouter, Sink) {
        let (data, sink_data) =
            (UdpSocket::bind("127.0.0.1:0").unwrap(), UdpSocket::bind("127.0.0.1:0").unwrap());
        let link = |to: &UdpSocket| {
            CreditedSender::new(to.local_addr().unwrap(), 64, WaitStrategy::Backoff, timeout)
                .unwrap()
        };
        let (gateway, next) = (link(&data), link(&sink_data));
        let sink = Sink {
            data: sink_data,
            acks: AckSender::new(next.ctrl_addr().unwrap(), 32).unwrap(),
            flow_reserved: vec![true],
            epoch: Instant::now(),
            timeout,
        };
        let router = SocketRouter {
            data,
            engine: topo.make_family_hop_engine(HB, 0, RouterConfig::default()),
            next,
            acks: AckSender::new(gateway.ctrl_addr().unwrap(), 32).unwrap(),
            flow_reserved: vec![true],
            timeout,
        };
        (gateway, router, sink)
    }

    /// A one-router topology and a generator for flow 0 holding a
    /// `kbps` credential over its hop.
    fn credentialed_flow(kbps: u64) -> (LinearTopology, SourceGenerator) {
        let (cfg, start_ns) = (RouterConfig::default(), now_unix_ns());
        let mut topo = LinearTopology::build(1, LinkSpec::default(), start_ns, cfg);
        let src = IsdAs::new(1, 0x100);
        let mut generator = topo.make_generator(src, IsdAs::new(2, 0xB));
        let credential = topo.make_family_credential(HB, 0, src, kbps, start_ns / 1_000_000_000);
        generator.attach_reservation(0, credential).unwrap();
        (topo, generator)
    }

    /// Data frame `seq` of flow 0.
    fn data_frame(generator: &mut SourceGenerator, seq: u64) -> Vec<u8> {
        let mut payload = [0u8; 200];
        PayloadHeader { flow_id: 0, seq, stamp_ns: 0 }.write(&mut payload);
        let mut frame = vec![KIND_DATA];
        frame.extend(generator.generate(&payload, now_unix_ms()).unwrap());
        frame
    }

    /// A reserved flow sent far over its 64 kbps credential: the policer
    /// keeps the first packet or two in the priority class and demotes the
    /// rest, and the router counts each packet in the class its verdict
    /// forwarded it in, not in the class of its flow.
    #[test]
    fn demoted_reserved_packets_count_as_best_effort() {
        const PKTS: u64 = 200;
        let (topo, mut generator) = credentialed_flow(64);
        let (mut gateway, router, sink) = one_hop_chain(&topo, Duration::from_secs(10));
        let (router, sink) =
            (std::thread::spawn(move || router.run()), std::thread::spawn(move || sink.run()));
        for seq in 0..PKTS {
            gateway.send_data(&data_frame(&mut generator, seq)).unwrap();
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

    /// 40 data frames and the FIN queued before the router starts: its
    /// first drain takes 32 frames, its second the last 8 and then the
    /// FIN. Every frame is forwarded and reaches the sink ahead of the
    /// FIN, and the FIN-time ack flushes (the router's, for 40 frames,
    /// past the 32-frame cadence; the sink's, for the router's drain)
    /// settle both upstream drains.
    #[test]
    fn fin_inside_a_drained_burst_follows_every_frame() {
        const PKTS: u64 = 40;
        let (topo, mut generator) = credentialed_flow(crate::RESERVED_BW_KBPS);
        let (mut gateway, router, sink) = one_hop_chain(&topo, Duration::from_secs(10));
        for seq in 0..PKTS {
            gateway.send_data(&data_frame(&mut generator, seq)).unwrap();
        }
        gateway.send_fin().unwrap();
        let (router, sink) =
            (std::thread::spawn(move || router.run()), std::thread::spawn(move || sink.run()));
        gateway.drain().unwrap();
        let stats = router.join().unwrap().unwrap();
        let report = sink.join().unwrap().unwrap();

        assert_eq!(stats.rx, PKTS, "{stats:?}");
        assert_eq!(stats.forwarded[RESERVED] + stats.forwarded[BEST_EFFORT], PKTS, "{stats:?}");
        assert_eq!(
            report.classes[RESERVED].delivered + report.classes[BEST_EFFORT].delivered,
            PKTS
        );
        assert_eq!(report.flow_delivered, [PKTS]);
        assert_eq!(report.parse_drops, 0);
    }

    /// A router and a sink whose upstream never sends each end with a
    /// `TimedOut` error that names the node once their socket has been
    /// silent for `timeout`: never a spin, a hang, or a bare
    /// "Resource temporarily unavailable".
    #[test]
    fn silent_upstream_times_out_naming_the_node() {
        let topo =
            LinearTopology::build(1, LinkSpec::default(), now_unix_ns(), RouterConfig::default());
        let (_gateway, router, sink) = one_hop_chain(&topo, Duration::from_millis(200));
        let t0 = Instant::now();
        let (router, sink) =
            (std::thread::spawn(move || router.run()), std::thread::spawn(move || sink.run()));
        let errors = [
            ("router", router.join().unwrap().unwrap_err()),
            ("sink", sink.join().unwrap().unwrap_err()),
        ];
        assert!(t0.elapsed() < Duration::from_secs(1), "took {:?}", t0.elapsed());
        for (node, err) in errors {
            assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{node}: {err}");
            assert!(err.to_string().contains(node), "{node}: {err}");
        }
    }
}
