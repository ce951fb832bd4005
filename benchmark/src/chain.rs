//! The two socket workloads: real UDP datagrams over the host's
//! loopback interface through a gateway → 2 routers → sink chain.
//!
//! * `chain_saturate` — the program's own `run_chain` at its defaults
//!   (only `pkts` and `routers` overridden), closed loop on the credit
//!   windows: syscalls, the link protocol and the node loop dominate,
//!   the engine is a few percent.
//! * `chain_paced` — the same chain assembled from the public parts
//!   with a benchmark-owned gateway and sink, open loop at a fixed
//!   30 000 datagrams/s and timed from each datagram's due time:
//!   latency with empty queues.

use crate::host;
use crate::json::Value;
use crate::layers::{apply_span_metrics, SWEEP_PASSES};
use crate::metrics::Layers;
use crate::stats;
use crate::trace::{Recorder, Span};
use crate::workload::{Rep, Workload};
use hummingbird_dataplane::{Datapath, RouterConfig, ShardedRouter, SourceGenerator};
use hummingbird_netsim::{EngineFamily, LinearTopology, LinkSpec};
use hummingbird_testbed::{
    now_unix_ms, now_unix_ns, run_chain, AckSender, ChainSpec, CreditedSender, NodeStats,
    PayloadHeader, SocketRouter, TrafficMix, KIND_DATA, KIND_FIN, RESERVED_BW_KBPS,
};
use hummingbird_wire::{IsdAs, PacketView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

const ROUTERS: usize = 2;
const FAMILY: EngineFamily = EngineFamily::Hummingbird;
/// Open-loop offered rate of `chain_paced`, datagrams per second.
const PACED_RATE: f64 = 30_000.0;
/// A paced chain is overloaded — a failure, not a slow result — when
/// even its best repetition needs this much longer than the offered
/// schedule to deliver its datagrams: 2 % of the schedule (a delivered
/// rate below 0.98 × the offered one), but at least 25 ms. (The best
/// repetition, and an absolute floor, because a host stall that delays
/// a repetition's last datagrams stretches its window by as much, while
/// a chain that cannot carry 30 000/s falls behind in proportion to
/// the schedule in every repetition.)
const PACED_MAX_STRETCH_SHARE: f64 = 0.02;
const PACED_MIN_STRETCH_S: f64 = 0.025;

// ---------------------------------------------------------------------
// chain_saturate
// ---------------------------------------------------------------------

pub struct Saturate {
    spec: ChainSpec,
    /// `run_chain` calls per second of requested repetition.
    units_per_s: f64,
    units: u64,
    engine_drops: u64,
    parse_drops: u64,
}

impl Saturate {
    pub fn build(seed: u64, quick: bool) -> Self {
        // `run_chain` takes no seed: its mix schedule and keys are fixed.
        // The seed picks the unit's datagram count, which moves where the
        // run ends relative to the ack cadence and the credit window.
        let mut rng = StdRng::seed_from_u64(seed);
        // A full-size unit takes ≈ 95 ms on the reference host, ≈ 6 ms
        // of it the call's own set-up (sockets, threads, engines).
        let (base, units_per_s): (u64, f64) = if quick { (1_500, 80.0) } else { (12_000, 10.0) };
        let mut spec = ChainSpec::new(FAMILY, TrafficMix::Cbr);
        spec.routers = ROUTERS;
        spec.pkts = base + rng.gen_range(0..64u64);
        let mut w = Saturate { spec, units_per_s, units: 0, engine_drops: 0, parse_drops: 0 };
        // Warm-up: one unit.
        let mut warm = Rep::default();
        w.unit(&mut warm, &mut Recorder::off());
        assert_eq!(warm.failed, 0, "warm-up chain: {:?}", warm.failures);
        w
    }

    /// One unit: a whole `run_chain` — sockets, threads, `pkts`
    /// datagrams, FIN, join — checked for zero loss and conservation.
    fn unit(&mut self, rep: &mut Rep, rec: &mut Recorder) {
        let span = rec.begin("testbed.run_chain", self.units);
        let t0 = Instant::now();
        let result = run_chain(&self.spec);
        let elapsed = t0.elapsed();
        rec.end(span, self.spec.pkts);
        self.units += 1;
        rep.wall_s += elapsed.as_secs_f64();
        rep.latencies_us.push(elapsed.as_nanos() as f64 / 1e3);
        rep.attempted += self.spec.pkts;
        match result {
            Err(e) => rep.fail(self.spec.pkts, format!("chain failed: {e}")),
            Ok(report) => {
                rep.ops += report.delivered();
                self.engine_drops += report.engine_dropped();
                self.parse_drops += report.parse_drops;
                for v in &report.violations {
                    rep.fail(1, v.clone());
                }
                // Every flow of this workload is valid: anything not
                // delivered is a failure, not a measurement.
                let undelivered = report.sent - report.delivered();
                if undelivered > 0 {
                    rep.fail(
                        undelivered,
                        format!(
                            "{undelivered} of {} undelivered: {} engine drops {:?}, {} parse drops",
                            report.sent,
                            report.engine_dropped(),
                            report.drop_reasons,
                            report.parse_drops
                        ),
                    );
                }
            }
        }
    }
}

impl Workload for Saturate {
    fn repetition(&mut self, seconds: f64, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        for _ in 0..(self.units_per_s * seconds).round().max(1.0) as u64 {
            self.unit(&mut rep, rec);
        }
        rep
    }

    fn layers(&mut self, traced: &Rep, rec: &mut Recorder, out: &mut Layers) {
        // The gateway's and sink's shares cannot be seen inside
        // `run_chain`; the benchmark-owned chain, unpaced, shows them.
        let mut owned = OwnedChain::new(0, &self.spec);
        match owned.run(self.spec.pkts * 4, None, rec) {
            Ok(run) => chain_layers(run, rec, out),
            Err(e) => eprintln!("owned saturating chain failed: {e}"),
        }
        out.set("testbed.chain_ns_per_pkt", traced.wall_s * 1e9 / traced.ops.max(1) as f64);
        out.set("testbed.engine_drops", self.engine_drops as f64);
        out.set("testbed.parse_drops", self.parse_drops as f64);
        chain_account(&self.spec, rec, out);
    }

    fn labels(&self) -> Vec<(&'static str, Value)> {
        chain_labels(&self.spec, "closed (credit windows)")
    }
}

fn chain_labels(spec: &ChainSpec, loop_kind: &str) -> Vec<(&'static str, Value)> {
    vec![
        // Gateway and sink generate and absorb the load; each router is
        // one more thread of the program.
        ("threads", Value::Num((2 + spec.routers) as f64)),
        ("generator_threads", Value::Num(2.0)),
        ("shards", Value::Num(spec.shards as f64)),
        ("exec", Value::Str(format!("one thread per node, wait {:?}", spec.wait))),
        ("loop", Value::Str(loop_kind.into())),
        ("routers", Value::Num(spec.routers as f64)),
        ("window", Value::Num(spec.window as f64)),
        ("ack_every", Value::Num(spec.ack_every as f64)),
        ("payload_b", Value::Num(spec.payload_len as f64)),
    ]
}

// ---------------------------------------------------------------------
// The benchmark-owned chain
// ---------------------------------------------------------------------

/// What the benchmark-owned sink saw.
struct SinkSeen {
    /// One-way latency of every delivered datagram from its stamp, ns.
    latencies_ns: Vec<u64>,
    flow_delivered: Vec<u64>,
    parse_drops: u64,
    /// Last delivery, ns since the run's epoch.
    last_rx_ns: u64,
    /// Sink loop wall time, ns.
    loop_ns: u64,
    rec: Recorder,
}

/// One run of the owned chain.
struct OwnedRun {
    sent: u64,
    flow_sent: Vec<u64>,
    sink: SinkSeen,
    routers: Vec<NodeStats>,
    /// How late each datagram left relative to its due time, ns
    /// (paced runs only).
    late_ns: Vec<u64>,
    /// First due time, ns since the epoch.
    first_due_ns: u64,
    /// When the gateway loop started (ns since the epoch) and how long
    /// it ran, ns.
    gateway_start_ns: u64,
    gateway_ns: u64,
    /// Process `(user, system)` CPU seconds before and after the run.
    cpu: Option<((f64, f64), (f64, f64))>,
}

impl OwnedRun {
    /// `sent = delivered + engine drops + parse drops`, globally and
    /// per flow; returns the number of datagrams unaccounted for.
    fn check_conservation(&self, rep: &mut Rep) {
        let delivered: u64 = self.sink.flow_delivered.iter().sum();
        let engine: u64 = self.routers.iter().map(NodeStats::engine_dropped).sum();
        let parse: u64 =
            self.routers.iter().map(|s| s.parse_drops).sum::<u64>() + self.sink.parse_drops;
        if self.sent != delivered + engine + parse {
            rep.fail(
                self.sent.abs_diff(delivered + engine + parse),
                format!(
                    "sent {} != delivered {delivered} + engine {engine} + parse {parse}",
                    self.sent
                ),
            );
        }
        for (f, &sent) in self.flow_sent.iter().enumerate() {
            let dropped: u64 = self.routers.iter().map(|s| s.flow_drops[f]).sum();
            let got = self.sink.flow_delivered[f];
            if parse == 0 && sent != got + dropped {
                rep.fail(
                    sent.abs_diff(got + dropped),
                    format!("flow {f}: sent {sent} != delivered {got} + drops {dropped}"),
                );
            }
        }
        if self.sent != delivered {
            rep.fail(
                self.sent - delivered.min(self.sent),
                format!("{} undelivered", self.sent - delivered),
            );
        }
    }
}

/// The chain `run_chain` builds, assembled from the same public parts
/// with the benchmark's own gateway and sink.
struct OwnedChain {
    topo_seed: u8,
    spec: ChainSpec,
    payload: Vec<u8>,
}

impl OwnedChain {
    fn new(seed: u64, spec: &ChainSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut payload = vec![0u8; spec.payload_len];
        rng.fill(&mut payload);
        OwnedChain { topo_seed: rng.gen(), spec: spec.clone(), payload }
    }

    /// One generator per flow of the mix, credentialed where the flow
    /// is reserved, exactly as `run_chain` builds them.
    fn generators(
        &self,
        topo: &mut LinearTopology,
        flow_reserved: &[bool],
        now_s: u64,
    ) -> Result<Vec<SourceGenerator>, String> {
        let mut generators = Vec::with_capacity(flow_reserved.len());
        for (f, &reserved) in flow_reserved.iter().enumerate() {
            let src = IsdAs::new(1, 0x100 + f as u64);
            let mut generator = topo.make_generator(src, IsdAs::new(2, 0xB));
            if reserved {
                for hop in 0..self.spec.routers {
                    let cred = topo.make_family_credential(
                        self.spec.family,
                        hop,
                        src,
                        RESERVED_BW_KBPS,
                        now_s,
                    );
                    generator
                        .attach_reservation(hop, cred)
                        .map_err(|e| format!("flow {f} hop {hop}: {e:?}"))?;
                }
            }
            generators.push(generator);
        }
        Ok(generators)
    }

    /// Sends `pkts` datagrams through a fresh chain — at `rate` per
    /// second from each datagram's due time, or as fast as the credit
    /// window allows when `rate` is `None` — and joins every thread.
    fn run(
        &mut self,
        pkts: u64,
        rate: Option<f64>,
        rec: &mut Recorder,
    ) -> Result<OwnedRun, String> {
        let spec = &self.spec;
        let cfg = RouterConfig::default();
        let err = |e: std::io::Error| e.to_string();
        let cpu0 = host::cpu_seconds();
        let start_ns = now_unix_ns();
        let mut topo = LinearTopology::build_seeded(
            spec.routers,
            LinkSpec::default(),
            start_ns,
            cfg,
            self.topo_seed,
        );
        // The mix's schedule repeats; any plan holds whole cycles of it.
        let plan = spec.mix.plan(1_000);
        let flow_reserved: Vec<bool> = plan.flows.iter().map(|f| f.reserved).collect();
        let cycle = plan.sequence;
        let mut generators =
            self.generators(&mut topo, &flow_reserved, start_ns / 1_000_000_000)?;

        let router_socks: Vec<UdpSocket> = (0..spec.routers)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()
            .map_err(err)?;
        let sink_sock = UdpSocket::bind("127.0.0.1:0").map_err(err)?;
        let mut peers = Vec::with_capacity(spec.routers + 1);
        for sock in &router_socks {
            peers.push(sock.local_addr().map_err(err)?);
        }
        peers.push(sink_sock.local_addr().map_err(err)?);
        let mut gw_sender =
            CreditedSender::new(peers[0], spec.window, spec.wait, spec.timeout).map_err(err)?;
        let mut senders = Vec::with_capacity(spec.routers);
        for hop in 0..spec.routers {
            senders.push(
                CreditedSender::new(peers[hop + 1], spec.window, spec.wait, spec.timeout)
                    .map_err(err)?,
            );
        }
        let mut ctrls = vec![gw_sender.ctrl_addr().map_err(err)?];
        for s in &senders {
            ctrls.push(s.ctrl_addr().map_err(err)?);
        }

        let epoch = rec.epoch();
        let mut router_handles = Vec::with_capacity(spec.routers);
        for (hop, (data, next)) in router_socks.into_iter().zip(senders).enumerate() {
            let engine: Box<dyn Datapath + Send> = Box::new(ShardedRouter::new(
                vec![topo.make_family_hop_engine(spec.family, hop, cfg)],
                cfg.policer_slots,
                spec.family.steering(),
            ));
            let router = SocketRouter {
                data,
                engine,
                next,
                acks: AckSender::new(ctrls[hop], spec.ack_every).map_err(err)?,
                flow_reserved: flow_reserved.clone(),
                timeout: spec.timeout,
            };
            router_handles.push(std::thread::spawn(move || router.run()));
        }
        let sink_acks = AckSender::new(ctrls[spec.routers], spec.ack_every).map_err(err)?;
        let sink_rec =
            if rec.enabled() { Recorder::on(epoch, pkts as usize + 16) } else { Recorder::off() };
        let (flows, timeout) = (flow_reserved.len(), spec.timeout);
        let sink_handle = std::thread::spawn(move || {
            sink_loop(sink_sock, sink_acks, flows, pkts as usize, epoch, timeout, sink_rec)
        });

        // The gateway, on this thread.
        let mut flow_sent = vec![0u64; generators.len()];
        let mut payload = self.payload.clone();
        let mut frame = Vec::with_capacity(1 + spec.payload_len + 512);
        let mut late_ns = Vec::with_capacity(if rate.is_some() { pkts as usize } else { 0 });
        let interval_ns = rate.map(|r| 1e9 / r);
        // A millisecond of lead so the first due time is still ahead.
        let first_due_ns = epoch.elapsed().as_nanos() as u64 + 1_000_000;
        let gateway_start_ns = epoch.elapsed().as_nanos() as u64;
        let gw_start = Instant::now();
        for i in 0..pkts {
            let stamp_ns = match interval_ns {
                Some(interval) => {
                    let due_ns = first_due_ns + (i as f64 * interval) as u64;
                    let due = epoch + Duration::from_nanos(due_ns);
                    let mut now = Instant::now();
                    while now < due {
                        std::thread::yield_now();
                        now = Instant::now();
                    }
                    late_ns.push((now - due).as_nanos() as u64);
                    due_ns
                }
                None => epoch.elapsed().as_nanos() as u64,
            };
            let f = cycle[i as usize % cycle.len()];
            let fi = f as usize;
            PayloadHeader { flow_id: f, seq: flow_sent[fi], stamp_ns }.write(&mut payload);
            flow_sent[fi] += 1;
            let pkt = rec.span("source.generate", i, 1, |_| {
                generators[fi].generate(&payload, now_unix_ms())
            });
            let pkt = pkt.map_err(|e| format!("flow {fi}: generate failed: {e:?}"))?;
            frame.clear();
            frame.push(KIND_DATA);
            frame.extend_from_slice(&pkt);
            rec.span("testbed.send_data", i, 1, |_| gw_sender.send_data(&frame)).map_err(err)?;
        }
        let gateway_ns = gw_start.elapsed().as_nanos() as u64;
        gw_sender.send_fin().map_err(err)?;
        gw_sender.drain().map_err(err)?;

        let mut routers = Vec::with_capacity(spec.routers);
        for (hop, handle) in router_handles.into_iter().enumerate() {
            routers.push(
                handle
                    .join()
                    .map_err(|_| format!("router {hop} panicked"))?
                    .map_err(|e| format!("router {hop}: {e}"))?,
            );
        }
        let sink = sink_handle
            .join()
            .map_err(|_| "sink panicked".to_owned())?
            .map_err(|e| format!("sink: {e}"))?;
        Ok(OwnedRun {
            sent: pkts,
            flow_sent,
            sink,
            routers,
            late_ns,
            first_due_ns,
            gateway_start_ns,
            gateway_ns,
            cpu: cpu0.zip(host::cpu_seconds()),
        })
    }
}

/// The benchmark-owned sink: receive, ack, validate as a router would,
/// and keep every latency sample exactly.
fn sink_loop(
    data: UdpSocket,
    mut acks: AckSender,
    flows: usize,
    expect: usize,
    epoch: Instant,
    timeout: Duration,
    mut rec: Recorder,
) -> std::io::Result<SinkSeen> {
    let mut seen = SinkSeen {
        latencies_ns: Vec::with_capacity(expect),
        flow_delivered: vec![0; flows],
        parse_drops: 0,
        last_rx_ns: 0,
        loop_ns: 0,
        rec: Recorder::off(),
    };
    let mut buf = [0u8; 2048];
    data.set_read_timeout(Some(timeout))?;
    let start = Instant::now();
    loop {
        let span = rec.begin("testbed.recv", seen.latencies_ns.len() as u64);
        let n = data.recv(&mut buf)?;
        rec.end(span, 1);
        if n >= 1 && buf[0] == KIND_FIN {
            acks.flush()?;
            break;
        }
        let now_ns = epoch.elapsed().as_nanos() as u64;
        acks.on_data()?;
        let header = (n >= 1 && buf[0] == KIND_DATA)
            .then(|| {
                let pkt = &buf[1..n];
                let view = PacketView::new_checked(pkt).ok()?;
                if view.wire_len().ok()? != pkt.len() {
                    return None;
                }
                PayloadHeader::read(view.payload().ok()?)
            })
            .flatten()
            .filter(|h| (h.flow_id as usize) < flows);
        match header {
            None => seen.parse_drops += 1,
            Some(h) => {
                seen.last_rx_ns = now_ns;
                seen.latencies_ns.push(now_ns.saturating_sub(h.stamp_ns));
                seen.flow_delivered[h.flow_id as usize] += 1;
            }
        }
    }
    seen.loop_ns = start.elapsed().as_nanos() as u64;
    seen.rec = rec;
    Ok(seen)
}

// ---------------------------------------------------------------------
// chain_paced
// ---------------------------------------------------------------------

pub struct Paced {
    chain: OwnedChain,
    late_us: Vec<f64>,
    latencies_us: Vec<f64>,
    engine_drops: u64,
    parse_drops: u64,
    last: Option<OwnedRun>,
    /// How much longer than its schedule the best repetition's delivery
    /// window was, as `(stretch, schedule)` seconds — the overload
    /// check's input.
    least_stretch: Option<(f64, f64)>,
}

impl Paced {
    pub fn build(seed: u64, _quick: bool) -> Self {
        // Window, ack cadence, wait strategy and payload stay the
        // program's defaults.
        let mut spec = ChainSpec::new(FAMILY, TrafficMix::VideoCall);
        spec.routers = ROUTERS;
        let mut w = Paced {
            chain: OwnedChain::new(seed, &spec),
            late_us: Vec::new(),
            latencies_us: Vec::new(),
            engine_drops: 0,
            parse_drops: 0,
            last: None,
            least_stretch: None,
        };
        // Warm-up: 50 ms of paced traffic through a fresh chain.
        let warm = w.repetition(0.05, &mut Recorder::off());
        assert_eq!(warm.failed, 0, "warm-up chain: {:?}", warm.failures);
        w.late_us.clear();
        w.latencies_us.clear();
        w.least_stretch = None;
        w
    }
}

impl Workload for Paced {
    fn repetition(&mut self, seconds: f64, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        let pkts = (PACED_RATE * seconds).ceil() as u64;
        rep.attempted = pkts;
        let run = match self.chain.run(pkts, Some(PACED_RATE), rec) {
            Ok(run) => run,
            Err(e) => {
                rep.fail(pkts, format!("chain failed: {e}"));
                return rep;
            }
        };
        run.check_conservation(&mut rep);
        rep.ops = run.sink.latencies_ns.len() as u64;
        rep.wall_s = run.sink.last_rx_ns.saturating_sub(run.first_due_ns) as f64 / 1e9;
        rep.latencies_us = run.sink.latencies_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let schedule_s = pkts as f64 / PACED_RATE;
        let stretch_s = rep.wall_s - schedule_s;
        if self.least_stretch.is_none_or(|(least, _)| stretch_s < least) {
            self.least_stretch = Some((stretch_s, schedule_s));
        }
        self.engine_drops += run.routers.iter().map(NodeStats::engine_dropped).sum::<u64>();
        self.parse_drops +=
            run.routers.iter().map(|s| s.parse_drops).sum::<u64>() + run.sink.parse_drops;
        self.late_us.extend(run.late_ns.iter().map(|&ns| ns as f64 / 1e3));
        self.latencies_us.extend_from_slice(&rep.latencies_us);
        // The layer shares come from the traced repetition's spans.
        if rec.enabled() {
            self.last = Some(run);
        }
        rep
    }

    fn verify(&mut self, failures: &mut Vec<String>) -> (u64, u64) {
        let Some((stretch_s, schedule_s)) = self.least_stretch else { return (0, 0) };
        let allowed_s = (PACED_MAX_STRETCH_SHARE * schedule_s).max(PACED_MIN_STRETCH_S);
        let overloaded = stretch_s > allowed_s;
        if overloaded {
            failures.push(format!(
                "overloaded: the best repetition took {:.1} ms longer than its {:.0} ms schedule \
                 at {PACED_RATE:.0} datagrams/s",
                stretch_s * 1e3,
                schedule_s * 1e3
            ));
        }
        (1, u64::from(overloaded))
    }

    fn layers(&mut self, traced: &Rep, rec: &mut Recorder, out: &mut Layers) {
        if let Some(run) = self.last.take() {
            chain_layers(run, rec, out);
        }
        out.set("testbed.chain_ns_per_pkt", traced.wall_s * 1e9 / traced.ops.max(1) as f64);
        out.set("testbed.engine_drops", self.engine_drops as f64);
        out.set("testbed.parse_drops", self.parse_drops as f64);
        let late = stats::sorted(std::mem::take(&mut self.late_us));
        let lat = stats::sorted(std::mem::take(&mut self.latencies_us));
        // Informational tails: too noisy on a shared host to gate on.
        out.set("testbed.generator_late_p99_us", stats::percentile(&late, 0.99).unwrap_or(0.0));
        out.set("testbed.latency_p99_us", stats::percentile(&lat, 0.99).unwrap_or(0.0));
        out.set("testbed.latency_p999_us", stats::percentile(&lat, 0.999).unwrap_or(0.0));
        chain_account(&self.chain.spec, rec, out);
    }

    fn labels(&self) -> Vec<(&'static str, Value)> {
        let mut labels =
            chain_labels(&self.chain.spec, "open, timed from each datagram's due time");
        labels.push(("offered_per_s", Value::Num(PACED_RATE)));
        labels
    }
}

// ---------------------------------------------------------------------
// Layer accounting shared by both chain workloads
// ---------------------------------------------------------------------

/// Gateway, sink and CPU shares of one owned-chain run; absorbs the
/// sink thread's spans into `rec`.
fn chain_layers(run: OwnedRun, rec: &mut Recorder, out: &mut Layers) {
    // Shares of this run's loops: only spans that began inside it.
    let share = |spans: &[Span], name: &str, of_ns: u64| {
        let inside: u64 = spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= run.gateway_start_ns)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        inside as f64 / of_ns.max(1) as f64
    };
    out.set("source.share_of_gateway_time", share(rec.spans(), "source.generate", run.gateway_ns));
    out.set(
        "testbed.gateway_send_wait_share",
        share(rec.spans(), "testbed.send_data", run.gateway_ns),
    );
    out.set(
        "testbed.sink_recv_wait_share",
        share(run.sink.rec.spans(), "testbed.recv", run.sink.loop_ns),
    );
    if let Some(((u0, s0), (u1, s1))) = run.cpu {
        let pkts = run.sent.max(1) as f64;
        out.set("testbed.user_ns_per_pkt", (u1 - u0) * 1e9 / pkts);
        out.set("testbed.sys_ns_per_pkt", (s1 - s0) * 1e9 / pkts);
    }
    rec.absorb(run.sink.rec);
}

/// The chain's layer floors on its own datagrams, and accounting row 3:
/// `floor + wire + engine + residual = chain ns/pkt`.
fn chain_account(spec: &ChainSpec, rec: &mut Recorder, out: &mut Layers) {
    const N: usize = 8_192;
    let cfg = RouterConfig::default();
    let start_ns = now_unix_ns();
    let mut topo = LinearTopology::build(spec.routers, LinkSpec::default(), start_ns, cfg);
    let src = IsdAs::new(1, 0x100);
    let mut generator = topo.make_generator(src, IsdAs::new(2, 0xB));
    for hop in 0..spec.routers {
        let cred = topo.make_family_credential(
            spec.family,
            hop,
            src,
            RESERVED_BW_KBPS,
            start_ns / 1_000_000_000,
        );
        generator.attach_reservation(hop, cred).expect("interfaces match");
    }
    let mut payload = vec![0u8; spec.payload_len];
    PayloadHeader { flow_id: 0, seq: 0, stamp_ns: 0 }.write(&mut payload);
    let mut frames: Vec<Vec<u8>> = (0..N)
        .map(|_| {
            let mut frame = vec![KIND_DATA];
            frame.extend(generator.generate(&payload, now_unix_ms()).expect("generation"));
            frame
        })
        .collect();

    // One UDP hop: a same-size frame sent and received over loopback.
    let (tx, rx) = (
        UdpSocket::bind("127.0.0.1:0").expect("bind loopback"),
        UdpSocket::bind("127.0.0.1:0").expect("bind loopback"),
    );
    let to = rx.local_addr().expect("bound");
    let mut buf = [0u8; 2048];
    // One span per eighth of the frames, so that an eighth a neighbour
    // disturbed does not set the metric.
    let mut engine = topo.make_family_hop_engine(spec.family, 0, cfg);
    let now_ns = now_unix_ns();
    for (pass, frames) in frames.chunks_mut(N / SWEEP_PASSES).enumerate() {
        let (pass, calls) = (pass as u64, frames.len() as u64);
        rec.span("testbed.udp_hop_floor", pass, calls, |_| {
            for frame in frames.iter() {
                tx.send_to(frame, to).expect("loopback send");
                black_box(rx.recv(&mut buf).expect("loopback recv"));
            }
        });
        rec.span("wire.new_checked", pass, calls, |_| {
            for frame in frames.iter() {
                let pkt = &frame[1..];
                let len = PacketView::new_checked(black_box(pkt)).and_then(|v| v.wire_len());
                black_box(len.ok() == Some(pkt.len()));
            }
        });
        // Each frame once: the engine consumes its hop field.
        rec.span("router.process", pass, calls, |_| {
            for frame in frames.iter_mut() {
                black_box(engine.process(&mut frame[1..], now_ns));
            }
        });
    }
    apply_span_metrics(rec, out);

    let chain = out.get("testbed.chain_ns_per_pkt");
    let layers = out.get("testbed.udp_hop_floor_ns")
        + out.get("wire.new_checked_ns")
        + out.get("router.process_ns");
    out.set("account.chain_layer_sum_ns", layers);
    out.set("testbed.residual_ns", chain - layers);
    out.set("account.chain_residual_share", (chain - layers) / chain.max(1e-9));
}
