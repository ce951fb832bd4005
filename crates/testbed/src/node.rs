//! The socket-facing nodes of the chain: [`SocketRouter`] (rx → parse →
//! engine → tx) and [`Sink`] (rx → parse → latency/conservation
//! accounting).
//!
//! A router node is exactly the paper's border-router loop over real
//! datagrams: pull a run of frames off its UDP socket, validate each
//! packet with [`PacketView::new_checked`] (plus the declared-vs-actual
//! length check), drive it through any [`Datapath`] — in practice a
//! [`ShardedRouter`](hummingbird_dataplane::ShardedRouter) over the
//! selected engine family, so `ChainSpec::shards` applies — and forward
//! the mutated bytes to the next hop's socket. Every frame is accounted
//! for: it is forwarded, counted as an engine drop against its flow, or
//! counted as a parse drop. Nothing is lost silently, which is what
//! makes the harness's exact conservation check possible. A router's
//! [`NodeStats`] holds what its socket saw (`rx`, `rx_datagrams`,
//! `tx_datagrams`), the drops charged per class and per flow
//! (`engine_drops`, `flow_drops`), `parse_drops`, and its engine's own
//! verdict counters taken at FIN (`engine`).
//!
//! Both nodes request a kernel receive buffer that holds a full window
//! (see `link`) and receive with `UDP_GRO` into a 64 KiB buffer, so a
//! run of equal-length frames sent as one `UDP_SEGMENT` datagram arrives
//! whole; the node splits it by the segment size the kernel reports and
//! counts and acks every frame. A router forwards each
//! drain in one flush, priority first as in the paper's router: it
//! queues its flyover frames on the outbound link and defers its
//! best-effort ones (demoted too), so each flow keeps its order within
//! its class. A mix whose classes alternate in length thus leaves in
//! long runs, yet a lone frame leaves one empty read after it arrived: a
//! router never waits for a run to fill. Each node counts the datagrams
//! it received beside the frames, and a router the datagrams it sent.
//! The sink counts each frame whose `seq` is not above its flow's last.
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

use hummingbird_dataplane::{Datapath, DatapathStats};
use hummingbird_wire::PacketView;
use std::io;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

use crate::frame::{PayloadHeader, KIND_DATA, KIND_FIN};
use crate::harness::ClassReport;
use crate::link::{read_timed_out, AckSender, CreditedSender};
use crate::{nanos, now_unix_ns, sys};

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
    /// Datagrams those frames arrived in: `rx / rx_datagrams` is the
    /// mean run length on the inbound link.
    pub rx_datagrams: u64,
    /// Datagrams sent downstream, one per run.
    pub tx_datagrams: u64,
    /// Engine drops per class of the dropped packet's flow.
    pub engine_drops: [u64; 2],
    /// Engine drops per flow id.
    pub flow_drops: Vec<u64>,
    /// Frames that failed structural validation (bad kind byte,
    /// `new_checked` failure, declared/actual length mismatch, missing
    /// payload header). Classless by construction — an unparseable
    /// frame has no trustworthy flow id.
    pub parse_drops: u64,
    /// The engine's own counters, taken at FIN: what it forwarded per
    /// verdict class (`flyover`, `best_effort`; a demoted reserved
    /// packet is best effort) and what it dropped, per reason.
    pub engine: DatapathStats,
}

impl NodeStats {
    fn new(flows: usize) -> Self {
        NodeStats { flow_drops: vec![0; flows], ..NodeStats::default() }
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
/// A node's receive buffer: 64 KiB holds any UDP datagram, so a run
/// always arrives whole.
const RECV_BUF: usize = 1 << 16;
/// The kernel receive buffer a node requests (`SO_RCVBUF`; see `link`).
const RECV_BUFFER_REQUEST: i32 = 212_992;
/// The most a receive buffer charges one lone `MAX_FRAME` frame.
const MAX_FRAME_CHARGE: usize = 2_918;

/// Binds a node's data socket on loopback with `UDP_GRO` already on,
/// so runs arrive whole from the first datagram, and its receive buffer
/// requested. (A run that reaches a socket before `UDP_GRO` is on is
/// split by the kernel into one datagram per frame: the frames are
/// intact, but each counts as a datagram.) A granted buffer too small
/// for `window` lone `MAX_FRAME` frames is an error naming both.
pub(crate) fn bind_receiver(window: usize) -> io::Result<UdpSocket> {
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sys::enable_gro(&sock)?;
    let granted = sys::request_recv_buffer(&sock, RECV_BUFFER_REQUEST)?;
    let need = window.saturating_mul(MAX_FRAME_CHARGE);
    if need > granted {
        let why =
            format!("window of {window} needs a {need} B receive buffer, {granted} B granted");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, why));
    }
    Ok(sock)
}

/// The receive side every socket node runs: its `UDP_GRO` socket, the
/// buffer runs land in, and the receive-idle rule.
struct Receiver<'a> {
    sock: &'a UdpSocket,
    node: &'static str,
    timeout: Duration,
    buf: Vec<u8>,
    idle: u32,
    /// Datagrams that carried data frames (the FIN's not counted).
    datagrams: u64,
}

impl<'a> Receiver<'a> {
    /// Turns on `UDP_GRO` and requests the receive buffer as
    /// [`bind_receiver`] does, whoever bound the socket, and makes it
    /// nonblocking with `timeout` for sleeps.
    fn new(sock: &'a UdpSocket, node: &'static str, timeout: Duration) -> io::Result<Self> {
        sys::enable_gro(sock)?;
        sys::request_recv_buffer(sock, RECV_BUFFER_REQUEST)?;
        sock.set_read_timeout(Some(timeout))?;
        sock.set_nonblocking(true)?;
        Ok(Receiver { sock, node, timeout, buf: vec![0; RECV_BUF], idle: 0, datagrams: 0 })
    }

    /// One step of the receive-idle rule; `Ok(true)` once
    /// `on_datagram` returned `true` (the FIN).
    ///
    /// The socket is drained nonblocking, up to [`BATCH_SIZE`]
    /// datagrams, and `on_datagram(frames, now)` sees each one's frames
    /// (split by the segment size the kernel reports) and one `clock()`
    /// reading per drain, taken when its first datagram came off the
    /// socket. An empty socket is polled [`IDLE_POLLS`] times, one step
    /// each, yielding after each poll (a spinning poll holds the vCPU
    /// the next hop needs to wake on), and then the node sleeps in a
    /// blocking `recv`. The datagram that ends a sleep is handled before
    /// the socket goes back to nonblocking, so a packet that finds its
    /// node asleep pays no extra syscall. A sleep that lasts `timeout`
    /// is a stall: the step fails with a `TimedOut` error naming the
    /// node.
    fn step(
        &mut self,
        clock: &impl Fn() -> u64,
        mut on_datagram: impl FnMut(Frames<'_>, u64) -> io::Result<bool>,
    ) -> io::Result<bool> {
        let mut now = None;
        for _ in 0..BATCH_SIZE {
            let (n, seg) = match sys::recv_run(self.sock, &mut self.buf) {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            };
            let now = *now.get_or_insert_with(clock);
            if self.split(n, seg, now, &mut on_datagram)? {
                return Ok(true);
            }
        }
        if now.is_some() {
            self.idle = 0;
            return Ok(false);
        }
        self.idle += 1;
        if self.idle < IDLE_POLLS {
            std::thread::yield_now();
            return Ok(false);
        }
        self.idle = 0;
        self.sock.set_nonblocking(false)?;
        let fin = match sys::recv_run(self.sock, &mut self.buf) {
            Ok((n, seg)) => self.split(n, seg, clock(), &mut on_datagram),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(false),
            // Here `WouldBlock` is the expired timeout; in the drain
            // above it means "empty, poll again".
            Err(e) if read_timed_out(&e) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{} socket silent for {:?}: upstream stalled", self.node, self.timeout),
            )),
            Err(e) => Err(e),
        };
        self.sock.set_nonblocking(true)?;
        fin
    }

    /// Hands the `n`-byte datagram in the buffer to `on_datagram` as
    /// frames of `seg` bytes (the last may be shorter, as `UDP_GRO`
    /// allows).
    fn split(
        &mut self,
        n: usize,
        seg: usize,
        now: u64,
        on_datagram: &mut impl FnMut(Frames<'_>, u64) -> io::Result<bool>,
    ) -> io::Result<bool> {
        // An empty datagram is one empty frame: a parse drop.
        let empty = (n == 0).then_some(&mut [][..]);
        if on_datagram(self.buf[..n].chunks_mut(seg.max(1)).chain(empty), now)? {
            return Ok(true);
        }
        self.datagrams += 1;
        Ok(false)
    }
}

/// The frames of one received datagram, in order.
type Frames<'a> =
    std::iter::Chain<std::slice::ChunksMut<'a, u8>, std::option::IntoIter<&'a mut [u8]>>;

/// Validates one received frame: the data kind byte, a checked view
/// over the packet bytes, declared length equal to the frame length,
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
    /// This node's data socket (upstream sends here). [`run`] turns on
    /// `UDP_GRO`; a run that arrives before then reaches the node split
    /// into single datagrams, frames intact.
    ///
    /// [`run`]: SocketRouter::run
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
    /// and queued for forwarding (or counted as a drop). What one drain
    /// forwarded leaves in one flush when it ends: its flyover frames,
    /// then its best-effort ones, each in arrival order, and on FIN the
    /// FIN after them. The node then waits until the downstream hop has
    /// acknowledged every forwarded frame (the FIN is what triggers the
    /// downstream's final ack flush). Fails, naming the option, on a
    /// kernel without `UDP_GRO`.
    pub fn run(mut self) -> io::Result<NodeStats> {
        let mut stats = NodeStats::new(self.flow_reserved.len());
        let mut rx = Receiver::new(&self.data, "router", self.timeout)?;
        let mut fin = false;
        while !fin {
            fin = rx.step(&now_unix_ns, |frames, now_ns| {
                for frame in frames {
                    if frame.first() == Some(&KIND_FIN) {
                        self.acks.flush()?;
                        return Ok(true);
                    }
                    stats.rx += 1;
                    self.acks.on_data()?;
                    let Some((hdr, _, class)) = classify(frame, &self.flow_reserved) else {
                        stats.parse_drops += 1;
                        continue;
                    };
                    // A drop is charged to its flow and the flow's class;
                    // the engine counts every verdict itself.
                    let verdict = self.engine.process(&mut frame[1..], now_ns);
                    if verdict.is_drop() {
                        stats.engine_drops[class] += 1;
                        stats.flow_drops[hdr.flow_id as usize] += 1;
                    } else if verdict.is_flyover() {
                        self.next.queue(frame);
                    } else {
                        self.next.defer(frame);
                    }
                }
                Ok(false)
            })?;
            self.next.flush()?;
        }
        stats.rx_datagrams = rx.datagrams;
        stats.engine = self.engine.stats();
        // FIN first (after the last drain's frames), then drain: the
        // downstream acks its trailing sub-cadence frames only on FIN,
        // so the reverse order deadlocks whenever the forwarded count is
        // not a multiple of the ack cadence. Loopback delivers in order,
        // so the FIN cannot overtake the data frames.
        self.next.send_fin()?;
        self.next.drain()?;
        stats.tx_datagrams = self.next.datagrams;
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
    /// Packets per flow id whose `seq` was not above every earlier one
    /// of their flow: each flow must arrive in order, with gaps where
    /// engines dropped.
    pub(crate) flow_reordered: Vec<u64>,
    /// Data frames received off the socket.
    pub rx: u64,
    /// Datagrams those frames arrived in.
    pub rx_datagrams: u64,
    /// Structurally invalid frames.
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
        let flows = self.flow_reserved.len();
        let mut report = SinkReport {
            flow_delivered: vec![0; flows],
            flow_reordered: vec![0; flows],
            ..SinkReport::default()
        };
        let mut last_seq = vec![None; flows];
        let epoch = self.epoch;
        let clock = || nanos(epoch.elapsed());
        let mut first_rx_ns = None;
        let mut rx = Receiver::new(&self.data, "sink", self.timeout)?;
        while !rx.step(&clock, |frames, now_ns| {
            for frame in frames {
                if frame.first() == Some(&KIND_FIN) {
                    self.acks.flush()?;
                    return Ok(true);
                }
                first_rx_ns.get_or_insert(now_ns);
                report.rx += 1;
                self.acks.on_data()?;
                let Some((hdr, payload_len, class)) = classify(frame, &self.flow_reserved) else {
                    report.parse_drops += 1;
                    continue;
                };
                let cls = &mut report.classes[class];
                cls.delivered += 1;
                cls.payload_bytes += payload_len as u64;
                cls.latency.record(now_ns.saturating_sub(hdr.stamp_ns));
                let f = hdr.flow_id as usize;
                report.flow_delivered[f] += 1;
                report.flow_reordered[f] += u64::from(last_seq[f] >= Some(hdr.seq));
                last_seq[f] = last_seq[f].max(Some(hdr.seq));
            }
            Ok(false)
        })? {}
        report.rx_datagrams = rx.datagrams;
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
    use std::thread::JoinHandle;

    const HB: EngineFamily = EngineFamily::Hummingbird;

    /// The default credit window and ack cadence, as `ChainSpec::new`
    /// sets them.
    fn defaults() -> crate::ChainSpec {
        crate::ChainSpec::new(HB, crate::TrafficMix::Cbr)
    }

    /// A sender toward `to` with the default window.
    fn link(to: &UdpSocket, timeout: Duration) -> CreditedSender {
        let to = to.local_addr().unwrap();
        CreditedSender::new(to, defaults().window, WaitStrategy::Backoff, timeout).unwrap()
    }

    /// Gateway link → one router running hop 0 of `topo` → `next`, with
    /// the default ack cadence, for flows of `flow_reserved`.
    fn one_hop_router(
        topo: &LinearTopology,
        timeout: Duration,
        next: CreditedSender,
        flow_reserved: Vec<bool>,
    ) -> (CreditedSender, SocketRouter) {
        let data = bind_receiver(defaults().window).unwrap();
        let gateway = link(&data, timeout);
        let router = SocketRouter {
            data,
            engine: topo.make_family_hop_engine(HB, 0, RouterConfig::default()),
            next,
            acks: AckSender::new(gateway.ctrl_addr().unwrap(), defaults().ack_every).unwrap(),
            flow_reserved,
            timeout,
        };
        (gateway, router)
    }

    /// Gateway link → one router running hop 0 of `topo` → sink, for one
    /// reserved flow, with the default window and ack cadence.
    fn one_hop_chain(
        topo: &LinearTopology,
        timeout: Duration,
    ) -> (CreditedSender, SocketRouter, Sink) {
        let sink_data = bind_receiver(defaults().window).unwrap();
        let next = link(&sink_data, timeout);
        let sink = Sink {
            data: sink_data,
            acks: AckSender::new(next.ctrl_addr().unwrap(), defaults().ack_every).unwrap(),
            flow_reserved: vec![true],
            epoch: Instant::now(),
            timeout,
        };
        let (gateway, router) = one_hop_router(topo, timeout, next, vec![true]);
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

    /// Data frame `seq` of flow `flow_id`.
    fn data_frame(generator: &mut SourceGenerator, flow_id: u32, seq: u64) -> Vec<u8> {
        let mut payload = [0u8; 200];
        PayloadHeader { flow_id, seq, stamp_ns: 0 }.write(&mut payload);
        let mut frame = vec![KIND_DATA];
        frame.extend(generator.generate(&payload, now_unix_ms()).unwrap());
        frame
    }

    /// A sender toward `data` with the default window, and a sink on
    /// `data` acking it, for one reserved flow.
    fn sink_link(data: UdpSocket) -> (CreditedSender, Sink) {
        let timeout = Duration::from_secs(10);
        let tx = link(&data, timeout);
        let acks = AckSender::new(tx.ctrl_addr().unwrap(), defaults().ack_every).unwrap();
        let sink = Sink { data, acks, flow_reserved: vec![true], epoch: Instant::now(), timeout };
        (tx, sink)
    }

    /// A run of N equal frames is one datagram on the wire; the sink,
    /// a `UDP_GRO` node, counts it as one datagram of N frames, delivers
    /// all N and returns N credits.
    #[test]
    fn a_run_reaches_a_gro_node_as_n_frames_and_n_credits() {
        const N: u64 = 8;
        let (_topo, mut generator) = credentialed_flow(crate::RESERVED_BW_KBPS);
        let (mut tx, sink) = sink_link(bind_receiver(defaults().window).unwrap());
        let sink = std::thread::spawn(move || sink.run());
        for seq in 0..N {
            tx.queue(&data_frame(&mut generator, 0, seq));
        }
        tx.flush().unwrap();
        tx.send_fin().unwrap();
        tx.drain().unwrap();
        let report = sink.join().unwrap().unwrap();

        assert_eq!((tx.sent, tx.datagrams, tx.acked), (N, 1, N));
        assert_eq!((report.rx, report.rx_datagrams, report.parse_drops), (N, 1, 0));
        assert_eq!(report.flow_delivered, [N]);
    }

    /// A flow whose frames reach the sink out of `seq` order is counted
    /// once per frame that arrived behind a higher `seq`; a gap (a frame
    /// an engine dropped) is not. Every frame is still delivered.
    #[test]
    fn a_sink_counts_frames_that_arrive_out_of_order() {
        let (_topo, mut generator) = credentialed_flow(crate::RESERVED_BW_KBPS);
        let (mut tx, sink) = sink_link(bind_receiver(defaults().window).unwrap());
        let sink = std::thread::spawn(move || sink.run());
        for seq in [0, 2, 1, 4, 6, 6] {
            tx.send_data(&data_frame(&mut generator, 0, seq)).unwrap();
        }
        tx.send_fin().unwrap();
        tx.drain().unwrap();
        let report = sink.join().unwrap().unwrap();

        assert_eq!(report.flow_delivered, [6]);
        assert_eq!(report.flow_reordered, [2], "1 after 2, and 6 again");
    }

    /// A full window of the largest frames a link carries, sent before
    /// the receiving node starts, waits whole in its socket's receive
    /// buffer and is all delivered once the node runs — sent as runs
    /// (what nodes send) and as single datagrams (the costliest way to
    /// carry them; see `link`'s receive-buffer argument).
    #[test]
    fn a_full_window_of_largest_frames_survives_a_late_receiver() {
        let window = defaults().window as u64;
        let mut frame = vec![0u8; crate::link::MAX_FRAME];
        frame[0] = KIND_DATA;
        for as_runs in [true, false] {
            let (mut tx, sink) = sink_link(bind_receiver(defaults().window).unwrap());
            for _ in 0..window {
                if as_runs {
                    tx.queue(&frame);
                } else {
                    tx.send_data(&frame).unwrap();
                }
            }
            tx.send_fin().unwrap();
            assert_eq!(tx.sent, window);
            let report = std::thread::spawn(move || sink.run()).join().unwrap().unwrap();
            tx.drain().unwrap();
            // The frames are no packets: each is a parse drop, counted.
            assert_eq!((report.rx, report.parse_drops), (window, window), "runs: {as_runs}");
            assert_eq!(report.rx_datagrams, tx.datagrams, "runs: {as_runs}");
            assert_eq!(tx.acked, window);
        }
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
            gateway.send_data(&data_frame(&mut generator, 0, seq)).unwrap();
        }
        gateway.send_fin().unwrap();
        gateway.drain().unwrap();
        let stats = router.join().unwrap().unwrap();
        sink.join().unwrap().unwrap();

        assert_eq!(stats.engine_dropped(), 0, "{stats:?}");
        assert_eq!(stats.engine.flyover + stats.engine.best_effort, PKTS);
        assert!(stats.engine.flyover > 0, "the burst budget admits some: {stats:?}");
        assert!(stats.engine.best_effort > 0, "demoted packets are best effort: {stats:?}");
    }

    /// 40 data frames and the FIN queued before the router starts: its
    /// first drain takes 32 frames, its second the last 8 and then the
    /// FIN. Every frame is forwarded and reaches the sink ahead of the
    /// FIN, and the FIN-time ack flushes (the router's, for the frames
    /// past its last cadence ack; the sink's, for the router's drain)
    /// settle both upstream drains.
    #[test]
    fn fin_inside_a_drained_burst_follows_every_frame() {
        const PKTS: u64 = 40;
        let (topo, mut generator) = credentialed_flow(crate::RESERVED_BW_KBPS);
        let (mut gateway, router, sink) = one_hop_chain(&topo, Duration::from_secs(10));
        for seq in 0..PKTS {
            gateway.send_data(&data_frame(&mut generator, 0, seq)).unwrap();
        }
        gateway.send_fin().unwrap();
        let (router, sink) =
            (std::thread::spawn(move || router.run()), std::thread::spawn(move || sink.run()));
        gateway.drain().unwrap();
        let stats = router.join().unwrap().unwrap();
        let report = sink.join().unwrap().unwrap();

        assert_eq!(stats.rx, PKTS, "{stats:?}");
        assert_eq!(stats.engine.flyover + stats.engine.best_effort, PKTS, "{stats:?}");
        assert_eq!(
            report.classes[RESERVED].delivered + report.classes[BEST_EFFORT].delivered,
            PKTS
        );
        assert_eq!(report.flow_delivered, [PKTS]);
        assert_eq!(report.parse_drops, 0);
    }

    /// A link into a node that records each data frame's `(flow, seq)`
    /// in arrival order until the FIN, acking as a sink does.
    fn recording_link(timeout: Duration) -> (CreditedSender, JoinHandle<Vec<(u32, u64)>>) {
        let data = bind_receiver(defaults().window).unwrap();
        data.set_read_timeout(Some(timeout)).unwrap();
        let tx = link(&data, timeout);
        let mut acks = AckSender::new(tx.ctrl_addr().unwrap(), defaults().ack_every).unwrap();
        let recorder = std::thread::spawn(move || {
            let (mut buf, mut got) = (vec![0u8; RECV_BUF], Vec::new());
            loop {
                let (n, seg) = sys::recv_run(&data, &mut buf).unwrap();
                for frame in buf[..n].chunks(seg) {
                    if frame == [KIND_FIN] {
                        acks.flush().unwrap();
                        return got;
                    }
                    acks.on_data().unwrap();
                    let (hdr, _, _) = classify(frame, &[true, false]).unwrap();
                    got.push((hdr.flow_id, hdr.seq));
                }
            }
        });
        (tx, recorder)
    }

    /// One drain on a contended link: 12 best-effort frames (flow 1)
    /// queued ahead of 12 flyover frames (flow 0), then the FIN, all
    /// waiting before the router starts. The router forwards the drain
    /// priority first: every flyover frame reaches the next hop ahead of
    /// every best-effort frame, each flow in `seq` order within its
    /// class, and every best-effort frame ahead of the FIN.
    #[test]
    fn flyover_frames_leave_a_drain_ahead_of_best_effort() {
        const PKTS: u64 = 12;
        let timeout = Duration::from_secs(10);
        let (topo, mut reserved) = credentialed_flow(crate::RESERVED_BW_KBPS);
        let mut plain = topo.make_generator(IsdAs::new(1, 0x101), IsdAs::new(2, 0xB));
        let (next, recorder) = recording_link(timeout);
        let (mut gateway, router) = one_hop_router(&topo, timeout, next, vec![true, false]);
        for seq in 0..PKTS {
            gateway.send_data(&data_frame(&mut plain, 1, seq)).unwrap();
        }
        for seq in 0..PKTS {
            gateway.send_data(&data_frame(&mut reserved, 0, seq)).unwrap();
        }
        gateway.send_fin().unwrap();
        let router = std::thread::spawn(move || router.run());
        gateway.drain().unwrap();
        let stats = router.join().unwrap().unwrap();
        let got = recorder.join().unwrap();

        assert_eq!((stats.engine.flyover, stats.engine.best_effort), (PKTS, PKTS), "{stats:?}");
        let (priority, best_effort) = got.split_at(got.len().min(PKTS as usize));
        assert!(priority.iter().all(|&(flow, _)| flow == 0), "flyover first: {got:?}");
        for (class, flow) in [(priority, 0), (best_effort, 1)] {
            let in_order: Vec<(u32, u64)> = (0..PKTS).map(|seq| (flow, seq)).collect();
            assert_eq!(class, in_order, "flow {flow} in its class: {got:?}");
        }
        // Every frame of the drain, the best-effort ones included, came
        // ahead of the FIN, and none is missing or extra.
        assert_eq!((stats.rx, got.len() as u64), (2 * PKTS, 2 * PKTS));
        assert_eq!((stats.engine_dropped(), stats.parse_drops), (0, 0));
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
