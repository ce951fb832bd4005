//! Shared fixtures and table formatting for the benchmark harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see ARCHITECTURE.md, "Benchmark output schema",
//! for what each one writes); this library
//! provides the common packet/router/market fixtures so the workloads are
//! identical across experiments.
//!
//! Besides the human-readable tables, two binaries write a trajectory
//! document each — `fig5_forwarding` `BENCH_hotpath.json`,
//! `overload_sweep` `BENCH_overload.json` — built as a [`json::Value`];
//! each binary's module doc holds its schema. The simulator, socket
//! testbed and control-plane numbers are the `netsim_churn`, `chain_*`
//! and `control_*` workloads of the `benchmark/` package.

pub mod json;

use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, BeaconHop, BorderRouter, Datapath, Gateway, HostShare, NullEngine, RouterConfig,
    RuntimeReport, ShardedRouter, SourceGenerator, SourceReservation, Steering,
};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use std::time::Instant;

/// Fixed evaluation epoch (Unix seconds).
pub const EPOCH_S: u64 = 1_700_000_000;
/// Evaluation epoch in milliseconds.
pub const EPOCH_MS: u64 = EPOCH_S * 1000;
/// Evaluation epoch in nanoseconds.
pub const EPOCH_NS: u64 = EPOCH_S * 1_000_000_000;

/// The DRKey master every benchmark baseline AS uses (hop 0).
const DRKEY_MASTER: [u8; 16] = [0xB5; 16];

/// The source / destination AS every fixture packet carries.
const SRC: IsdAs = IsdAs::new(1, 0x10);
const DST: IsdAs = IsdAs::new(2, 0x20);

/// Which [`Datapath`] engine a figure/table binary should drive.
///
/// Every packet-processing binary accepts `--engine
/// hummingbird|scion|helia|drkey|epic|gateway|null|all` (default: the
/// binary's traditional engine set). Four kinds are rows of the
/// engine-family table ([`EngineFamily`]) and take their name, engine,
/// steering and credential from it; `scion` is the Hummingbird router
/// over plain packets, `gateway` and `null` are bench-only engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// Hummingbird border router over flyover-tagged packets.
    Hummingbird,
    /// The same router over plain SCION best-effort packets.
    Scion,
    /// Helia-style fixed-slot baseline engine.
    Helia,
    /// DRKey-only source-authentication baseline engine.
    Drkey,
    /// EPIC L1-style per-packet path-validation baseline engine.
    Epic,
    /// The host-aggregating gateway (admission half).
    Gateway,
    /// Best-effort pass-through: measures the harness's own overhead.
    Null,
}

impl EngineKind {
    /// All sweepable engines.
    pub const ALL: [EngineKind; 7] = [
        EngineKind::Hummingbird,
        EngineKind::Scion,
        EngineKind::Helia,
        EngineKind::Drkey,
        EngineKind::Epic,
        EngineKind::Gateway,
        EngineKind::Null,
    ];

    /// The table row behind this kind; `None` for the bench-only kinds.
    pub fn family(self) -> Option<EngineFamily> {
        match self {
            EngineKind::Hummingbird => Some(EngineFamily::Hummingbird),
            EngineKind::Helia => Some(EngineFamily::Helia),
            EngineKind::Drkey => Some(EngineFamily::Drkey),
            EngineKind::Epic => Some(EngineFamily::Epic),
            EngineKind::Scion | EngineKind::Gateway | EngineKind::Null => None,
        }
    }

    /// Stable display name: the family's (which matches
    /// `Datapath::engine_name`), or the bench-only kind's own.
    pub fn name(&self) -> &'static str {
        match (self.family(), self) {
            (Some(family), _) => family.name(),
            (None, EngineKind::Gateway) => "gateway",
            (None, EngineKind::Null) => "null",
            (None, _) => "scion",
        }
    }

    /// The steering that keeps this kind's per-flow state on one shard:
    /// the family's, the source hash for the gateway's per-host buckets,
    /// reservation ranges otherwise.
    pub fn steering(&self) -> Steering {
        match (self.family(), self) {
            (Some(family), _) => family.steering(),
            (None, EngineKind::Gateway) => Steering::BySource,
            (None, _) => Steering::ByReservation,
        }
    }

    /// Parses one engine selector or a comma-separated list of them
    /// (`null,hummingbird`) by [`EngineKind::name`]; `all` expands to
    /// every engine.
    fn parse(s: &str) -> Option<Vec<EngineKind>> {
        let mut kinds = Vec::new();
        for part in s.split(',') {
            match part.trim() {
                "all" => kinds.extend(EngineKind::ALL),
                name => kinds.push(EngineKind::ALL.into_iter().find(|k| k.name() == name)?),
            }
        }
        Some(kinds)
    }
}

/// Every value of the repeatable `--<name> <v>` / `--<name>=<v>` flag in
/// `args`, in order; `Err` when the flag appears as the last token with
/// no value — a malformed command line that must fail loudly, never
/// silently fall back to the default.
fn flag_values_in(args: &[String], name: &str) -> Result<Vec<String>, String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut values = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if *arg == long {
            match args.next() {
                Some(v) => values.push(v.clone()),
                None => {
                    return Err(format!("--{name} requires a value (--{name} <v> or --{name}=<v>)"))
                }
            }
        } else if let Some(v) = arg.strip_prefix(&prefixed) {
            values.push(v.to_owned());
        }
    }
    Ok(values)
}

/// The first value of `--<name>` in `args` ([`flag_values_in`]):
/// `Ok(None)` when the flag is absent (the caller's default applies).
fn flag_value_in(args: &[String], name: &str) -> Result<Option<String>, String> {
    flag_values_in(args, name).map(|values| values.into_iter().next())
}

/// Unwraps a parsed flag or input file; a malformed one prints its
/// message and exits with status 2.
fn or_usage_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    })
}

/// Parses `--engine <kind>` (repeatable, or `all`) from the process
/// arguments; `default` applies when the flag is absent. Exits with a
/// usage message on an unknown engine or a dangling `--engine`.
pub fn engines_from_args(default: &[EngineKind]) -> Vec<EngineKind> {
    let args: Vec<String> = std::env::args().collect();
    let mut selected = Vec::new();
    for v in or_usage_exit(flag_values_in(&args, "engine")) {
        selected.extend(or_usage_exit(EngineKind::parse(&v).ok_or_else(|| {
            format!("unknown engine '{v}'; expected hummingbird|scion|helia|drkey|epic|gateway|null|all")
        })));
    }
    if selected.is_empty() {
        default.to_vec()
    } else {
        selected
    }
}

/// The value of `--<name> <v>` / `--<name>=<v>` in the process
/// arguments, if present. Exits with a usage message when the flag
/// dangles with no value.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    or_usage_exit(flag_value_in(&args, name))
}

/// Parses `--<name> <v>` as a `u64` from the process arguments;
/// `default` applies when the flag is absent. Exits with a usage
/// message on malformed input.
pub fn u64_from_args(name: &str, default: u64) -> u64 {
    let Some(v) = flag_value(name) else { return default };
    or_usage_exit(
        v.parse().map_err(|_| format!("bad --{name} '{v}'; expected an unsigned integer")),
    )
}

/// Whether the bare flag `--<name>` appears in the process arguments.
pub fn flag_present(name: &str) -> bool {
    let long = format!("--{name}");
    std::env::args().any(|a| a == long)
}

/// Parses `--cores 1,2,4` (comma-separated list) from the process
/// arguments; `default` applies when the flag is absent. Exits with a
/// usage message on malformed input.
pub fn cores_from_args(default: &[usize]) -> Vec<usize> {
    let Some(v) = flag_value("cores") else { return default.to_vec() };
    let parsed: Option<Vec<usize>> =
        v.split(',').map(|p| p.trim().parse::<usize>().ok().filter(|&c| c > 0)).collect();
    or_usage_exit(
        parsed.filter(|cores| !cores.is_empty()).ok_or_else(|| {
            format!("bad --cores '{v}'; expected a comma-separated list like 1,2,4")
        }),
    )
}

/// Parses `--pkts <n>` (total per-core packet budget override, letting CI
/// smoke-run the figures with tiny counts); `default` applies when the
/// flag is absent.
pub fn pkts_from_args(default: u64) -> u64 {
    u64_from_args("pkts", default)
}

/// Whether `--sharded` was passed (figure binaries add a sharded-runtime
/// sweep next to the per-core-clone one).
pub fn sharded_from_args() -> bool {
    flag_present("sharded")
}

/// Parses `--batch <n>` (packets per burst in the runtime hot loop, the
/// knob the batch-size ablation sweeps); `default` applies when the flag
/// is absent. Exits with a usage message on malformed or zero input.
pub fn batch_from_args(default: usize) -> usize {
    let Some(v) = flag_value("batch") else { return default };
    or_usage_exit(
        v.parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("bad --batch '{v}'; expected a positive packet count")),
    )
}

/// The per-router service cost the `sweep` feeds the simulator, per
/// engine family: its measured clone/1-core ns/pkt in the working
/// directory's `BENCH_hotpath.json` (the mean over its payload sweep),
/// so each family pays its own datapath cost. `None`, logged, keeps the
/// hand-set cost: the file is missing or has no record for the family.
/// A file that exists but cannot be read or parsed exits with status 2.
pub fn hotpath_calibration(sweep: &str) -> Vec<(EngineFamily, Option<u64>)> {
    const PATH: &str = "BENCH_hotpath.json";
    let doc = match std::fs::read_to_string(PATH) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        read => Some(or_usage_exit(
            read.map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text))
                .map_err(|e| format!("{PATH}: {e}")),
        )),
    };
    let measured = |family: EngineFamily| {
        let ns = doc.as_ref().and_then(|doc| json::hotpath_clone_1core_ns(doc, family.name()));
        if ns.is_none() {
            eprintln!(
                "no {PATH} clone/1-core record for {}; its {sweep} sweep keeps the hand-set \
                 service cost",
                family.name()
            );
        }
        (family, ns)
    };
    EngineFamily::ALL.into_iter().map(measured).collect()
}

/// A self-contained data-plane fixture: one source path of `h` hops plus
/// the matching per-AS secrets.
pub struct DataplaneFixture {
    hop_keys: Vec<HopMacKey>,
    svs: Vec<SecretValue>,
    h: usize,
}

impl DataplaneFixture {
    /// Builds a fixture for an `h`-hop path.
    pub fn new(h: usize) -> Self {
        DataplaneFixture {
            hop_keys: (0..h).map(|i| HopMacKey::new([0x31 + i as u8; 16])).collect(),
            svs: (0..h).map(|i| SecretValue::new([0x61 + i as u8; 16])).collect(),
            h,
        }
    }

    fn interfaces(&self, i: usize) -> (u16, u16) {
        let ingress = if i == 0 { 0 } else { 2 * i as u16 };
        let egress = if i == self.h - 1 { 0 } else { 2 * i as u16 + 1 };
        (ingress, egress)
    }

    /// A source generator; `with_reservations` attaches a flyover on every
    /// hop (the paper always measures the worst case: a reservation at
    /// every on-path AS).
    pub fn generator(&self, with_reservations: bool) -> SourceGenerator {
        if with_reservations {
            return self.reserved_generator(1);
        }
        SourceGenerator::new(SRC, DST, self.beacon_path())
    }

    /// A generator with a flyover on every hop whose hop-0 reservation
    /// uses `res0_id` — the knob flow-diverse workloads turn so different
    /// flows land in different policing slots (and, sharded, on different
    /// shards).
    fn reserved_generator(&self, res0_id: u32) -> SourceGenerator {
        let mut generator = self.generator(false);
        for i in 0..self.h {
            let (ingress, egress) = self.interfaces(i);
            let res_info = ResInfo {
                ingress,
                egress,
                res_id: if i == 0 { res0_id } else { i as u32 + 1 },
                bw_encoded: 1000, // huge class so policing never bites
                res_start: EPOCH_S as u32 - 50,
                duration: 36_000,
            };
            let key = self.svs[i].derive_key(&res_info);
            generator
                .attach_reservation(i, SourceReservation { res_info, key })
                .expect("interfaces match");
        }
        generator
    }

    /// A border router for hop 0 of this fixture (the hop every generated
    /// packet is validated at).
    pub fn router(&self) -> BorderRouter {
        BorderRouter::new(self.svs[0].clone(), self.hop_keys[0].clone(), RouterConfig::default())
    }

    /// A serialized packet with `payload_len` bytes, ready for the router.
    pub fn packet(&self, payload_len: usize, with_reservations: bool) -> Vec<u8> {
        let mut generator = self.generator(with_reservations);
        generator.generate(&vec![0u8; payload_len], EPOCH_MS).expect("generation")
    }

    /// A hop-0 engine of the requested kind, type-erased behind
    /// [`Datapath`] — the only constructor the figure binaries use.
    pub fn engine(&self, kind: EngineKind) -> Box<dyn Datapath + Send> {
        match (kind.family(), kind) {
            (Some(family), _) => family.engine(
                &self.svs[0],
                &self.hop_keys[0],
                &DRKEY_MASTER,
                RouterConfig::default(),
            ),
            (None, EngineKind::Gateway) => {
                let reserved = self.generator(true);
                let best_effort = self.generator(false);
                let mut gw = Gateway::new(reserved, best_effort, 10_000_000);
                // Host 1 = the 0.0.0.1 source host address every
                // SourceGenerator-built packet carries.
                gw.admit_host(1, HostShare { rate_kbps: 10_000_000 });
                Box::new(gw)
            }
            (None, EngineKind::Null) => Box::new(NullEngine::new()),
            // scion: the Hummingbird router, over plain packets.
            (None, _) => Box::new(self.router()),
        }
    }

    /// One logical hop-0 router of `kind` sharded across `shards`
    /// engines under [`EngineKind::steering`].
    pub fn sharded_engine(&self, kind: EngineKind, shards: usize) -> ShardedRouter {
        ShardedRouter::new(
            (0..shards.max(1)).map(|_| self.engine(kind)).collect(),
            RouterConfig::default().policer_slots,
            kind.steering(),
        )
    }

    /// A generator from `src` carrying `family`'s hop-0 credential (the
    /// one [`DataplaneFixture::engine`] re-derives), with ResID `res_id`
    /// where the family has reservation identities.
    fn family_generator(&self, family: EngineFamily, src: IsdAs, res_id: u32) -> SourceGenerator {
        let (ingress, egress) = self.interfaces(0);
        let credential = family.credential(
            &self.svs[0],
            &DRKEY_MASTER,
            ingress,
            egress,
            &mut { res_id },
            src,
            10_000_000,
            EPOCH_S,
        );
        let mut generator = SourceGenerator::new(src, DST, self.beacon_path());
        generator.attach_reservation(0, credential).expect("matching interfaces");
        generator
    }

    /// A serialized `payload_len`-byte packet the matching
    /// [`DataplaneFixture::engine`] accepts: the fixture's own every-hop
    /// reservations for Hummingbird (the Fig. 5/14/15 worst case), the
    /// family's hop-0 credential for the baselines, plain SCION for the
    /// rest.
    pub fn engine_packet(&self, kind: EngineKind, payload_len: usize) -> Vec<u8> {
        match kind.family() {
            Some(EngineFamily::Hummingbird) => self.packet(payload_len, true),
            Some(family) => self
                .family_generator(family, SRC, 1)
                .generate(&vec![0u8; payload_len], EPOCH_MS)
                .expect("generation"),
            None => self.packet(payload_len, false),
        }
    }

    /// `flows` distinct packet templates the hop-0 engine of `kind`
    /// accepts, with flow identities spread so RSS steering can balance
    /// them: reservation-bearing kinds get ResIDs spread evenly across
    /// the policing array ([0, `policer_slots`)), plain kinds get
    /// distinct per-packet timestamps (the duplicate-filter key the
    /// plain flow hash covers). EPIC is keyed by source, so its flows
    /// come from distinct source ASes and spread under the family's
    /// [`Steering::BySource`]. DRKey steers by source too, but its
    /// workload here is one template from one source AS, so all of it
    /// lands on one shard — a property of the one-source workload the
    /// sharded sweep makes visible, not of the engine.
    pub fn flow_packets(&self, kind: EngineKind, payload_len: usize, flows: usize) -> Vec<Vec<u8>> {
        let flows = flows.max(1);
        let slots = RouterConfig::default().policer_slots;
        let payload = vec![0u8; payload_len];
        (0..flows)
            .map(|f| {
                // 1 + f·step stays strictly inside [1, slots).
                let step = slots.saturating_sub(2) / flows as u32;
                let res_id = 1 + f as u32 * step;
                let at_ms = EPOCH_MS + f as u64;
                let mut generator = match kind.family() {
                    Some(EngineFamily::Drkey) => return self.engine_packet(kind, payload_len),
                    Some(EngineFamily::Hummingbird) => self.reserved_generator(res_id),
                    // One source AS per flow: the BySource hash is the
                    // axis EPIC shards on.
                    Some(EngineFamily::Epic) => self.family_generator(
                        EngineFamily::Epic,
                        IsdAs::new(SRC.isd, SRC.asn + f as u64),
                        res_id,
                    ),
                    Some(family) => self.family_generator(family, SRC, res_id),
                    None => self.generator(false),
                };
                generator.generate(&payload, at_ms).expect("generation")
            })
            .collect()
    }

    fn beacon_path(&self) -> hummingbird_wire::HummingbirdPath {
        let hops: Vec<BeaconHop> = (0..self.h)
            .map(|i| {
                let (cons_ingress, cons_egress) = self.interfaces(i);
                BeaconHop { key: self.hop_keys[i].clone(), cons_ingress, cons_egress }
            })
            .collect();
        forge_path(&hops, EPOCH_S as u32 - 100, 0x7777)
    }
}

/// The line rate of the paper's testbed: four 40 Gbps links.
pub const LINE_RATE_GBPS: f64 = 160.0;

/// A throughput measurement: a [`RuntimeReport`]'s totals, or a
/// [`generation_throughput`] run's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throughput {
    /// Packets processed (across all cores).
    pub packets: u64,
    /// Bits moved (wire size × packets).
    pub bits: u64,
    /// Wall-clock seconds (slowest core).
    pub seconds: f64,
}

impl From<&RuntimeReport> for Throughput {
    fn from(r: &RuntimeReport) -> Self {
        Throughput { packets: r.packets, bits: r.bits, seconds: r.seconds }
    }
}

impl Throughput {
    /// Aggregate throughput in Gbps (0 for an instantaneous or empty
    /// run — tiny smoke runs must not report `inf`/`NaN`).
    pub fn gbps(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.bits as f64 / self.seconds / 1e9
    }

    /// Aggregate throughput in Gbps, capped at the testbed line rate.
    pub fn gbps_line_capped(&self) -> f64 {
        self.gbps().min(LINE_RATE_GBPS)
    }

    /// Million packets per second (0 for an instantaneous or empty run).
    pub fn mpps(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.packets as f64 / self.seconds / 1e6
    }

    /// Average nanoseconds per packet per core (0 for an empty run).
    pub fn ns_per_pkt(&self, cores: usize) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.seconds * 1e9 * cores as f64 / self.packets as f64
    }
}

/// Packet conservation of a `run_to_completion` that was offered
/// `offered` packets: the shards' `processed` counts sum to the report's
/// `packets`, and `packets` plus the packets shed at rx under
/// backpressure is `offered`. `Err` says which identity broke; the
/// figure binaries exit nonzero on it.
pub fn conserved(offered: u64, r: &RuntimeReport) -> Result<(), String> {
    let processed: u64 = r.per_shard.iter().map(|s| s.processed).sum();
    if processed != r.packets {
        return Err(format!("shards processed {processed}, report says {}", r.packets));
    }
    if r.packets + r.rx_backpressure_drops != offered {
        return Err(format!(
            "offered {offered}, processed {} + shed at rx {}",
            r.packets, r.rx_backpressure_drops
        ));
    }
    Ok(())
}

/// Measures source traffic-generation throughput: `cores` threads each
/// generate `pkts_per_core` packets with their own generator.
pub fn generation_throughput<F>(
    make_generator: F,
    payload_len: usize,
    cores: usize,
    pkts_per_core: u64,
    start_ms: u64,
) -> Throughput
where
    F: Fn() -> SourceGenerator + Sync,
{
    let payload = vec![0u8; payload_len];
    let bits = std::sync::atomic::AtomicU64::new(0);
    let seconds = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cores);
        for _ in 0..cores {
            let make_generator = &make_generator;
            let payload = &payload;
            let bits = &bits;
            handles.push(s.spawn(move || {
                let mut generator = make_generator();
                let mut local_bits = 0u64;
                let start = Instant::now();
                for i in 0..pkts_per_core {
                    // Advance the millisecond clock slowly so the per-ms
                    // counter provides uniqueness.
                    let now_ms = start_ms + i / 1000;
                    let pkt = generator.generate(payload, now_ms).expect("generation failed");
                    local_bits += pkt.len() as u64 * 8;
                    std::hint::black_box(&pkt);
                }
                bits.fetch_add(local_bits, std::sync::atomic::Ordering::Relaxed);
                start.elapsed().as_secs_f64()
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).fold(0.0f64, f64::max)
    });
    Throughput { packets: pkts_per_core * cores as u64, bits: bits.into_inner(), seconds }
}

/// Formats a right-aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Percentile of a sorted slice. Empty populations answer `0` — the
/// same convention as `FlowStats` and the egress `LatencyHistogram`,
/// and finite by construction so no trajectory document gets a `null`
/// from this path.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Distribution summary of a sample set.
pub struct Summary {
    /// 5th percentile.
    pub p5: f64,
    /// Median.
    pub p50: f64,
    /// 83rd percentile (the paper's headline "<3 s in 83%").
    pub p83: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Mean.
    pub mean: f64,
}

impl Summary {
    /// Builds a summary from raw samples.
    pub fn of(mut samples: Vec<f64>) -> Self {
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        Summary {
            p5: percentile(&samples, 0.05),
            p50: percentile(&samples, 0.50),
            p83: percentile(&samples, 0.83),
            p95: percentile(&samples, 0.95),
            mean,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn trailing_valued_flag_errors_instead_of_defaulting() {
        // `--pkts` as the last token is a malformed command line: it must
        // surface as an error, not silently fall through to the default.
        assert!(
            flag_value_in(&argv(&["bench", "--pkts"]), "pkts").is_err(),
            "a dangling --pkts must not fall back to the default"
        );
        // The well-formed spellings still parse.
        assert_eq!(
            flag_value_in(&argv(&["bench", "--pkts", "500"]), "pkts").unwrap().as_deref(),
            Some("500")
        );
        assert_eq!(
            flag_value_in(&argv(&["bench", "--pkts=500"]), "pkts").unwrap().as_deref(),
            Some("500")
        );
        // Absent flag: the default applies.
        assert_eq!(flag_value_in(&argv(&["bench", "--cores", "2"]), "pkts").unwrap(), None);
        // `--json` likewise: a dangling or `=`-spelled flag that fell
        // back to the default would overwrite the checked-in
        // `BENCH_*.json` in the working directory.
        assert!(flag_value_in(&argv(&["bench", "--json"]), "json").is_err());
        for spelling in [&["bench", "--json", "/tmp/x.json"][..], &["bench", "--json=/tmp/x.json"]]
        {
            assert_eq!(
                flag_value_in(&argv(spelling), "json").unwrap().as_deref(),
                Some("/tmp/x.json")
            );
        }
        // `--engine` is repeatable and goes through the same scan: a
        // dangling one must not silently run the default engines.
        assert!(flag_values_in(&argv(&["bench", "--engine"]), "engine").is_err());
        assert!(
            flag_values_in(&argv(&["bench", "--engine", "epic", "--engine"]), "engine").is_err()
        );
        assert_eq!(
            flag_values_in(&argv(&["bench", "--engine", "null", "--engine=helia,epic"]), "engine")
                .unwrap(),
            ["null", "helia,epic"]
        );
        assert!(flag_values_in(&argv(&["bench", "--pkts", "5"]), "engine").unwrap().is_empty());
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        // The empty-population convention everywhere else (FlowStats,
        // LatencyHistogram) is 0 — NaN here would reach a trajectory
        // document as a null.
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
        // Non-empty percentiles are unchanged.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 1.0), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.0), 1.0);
    }

    #[test]
    fn fixture_packets_verify_at_the_router() {
        for h in [1usize, 4, 16] {
            let fx = DataplaneFixture::new(h);
            let mut pkt = fx.packet(500, true);
            let mut router = fx.router();
            let v = router.process(&mut pkt, EPOCH_NS);
            assert!(v.is_flyover(), "h={h}: {v:?}");
            // SCION baseline packets also pass (as best effort).
            let mut pkt = fx.packet(500, false);
            let v = router.process(&mut pkt, EPOCH_NS);
            assert!(v.egress().is_some(), "h={h}: {v:?}");
        }
    }

    #[test]
    fn flow_packets_verify_and_spread_across_shards() {
        use hummingbird_dataplane::Verdict;
        let fx = DataplaneFixture::new(2);
        for kind in
            [EngineKind::Hummingbird, EngineKind::Helia, EngineKind::Epic, EngineKind::Scion]
        {
            let flows = fx.flow_packets(kind, 300, 8);
            assert_eq!(flows.len(), 8);
            let mut sharded = fx.sharded_engine(kind, 4);
            let mut single = fx.engine(kind);
            for pkt in &flows {
                let a = single.process(&mut pkt.clone(), EPOCH_NS);
                let b = sharded.process(&mut pkt.clone(), EPOCH_NS);
                assert_eq!(a, b, "{kind:?}");
                assert!(a.egress().is_some(), "{kind:?}: {a:?}");
            }
            assert_eq!(single.stats(), sharded.stats(), "{kind:?}");
            if kind != EngineKind::Scion {
                // Flow-keyed kinds (by ResID, or by source for EPIC) must
                // actually spread across shards.
                let active = sharded.shard_stats().iter().filter(|s| s.processed > 0).count();
                assert!(active > 1, "{kind:?} flows all landed on one shard");
            }
        }
        // The null engine forwards anything, including flow templates.
        let mut null = fx.engine(EngineKind::Null);
        let pkt = fx.flow_packets(EngineKind::Null, 100, 2).remove(0);
        assert_eq!(null.process(&mut pkt.clone(), EPOCH_NS), Verdict::BestEffort { egress: 0 });
    }

    #[test]
    fn engine_parse_accepts_lists() {
        assert_eq!(EngineKind::parse("null"), Some(vec![EngineKind::Null]));
        assert_eq!(
            EngineKind::parse("null,hummingbird"),
            Some(vec![EngineKind::Null, EngineKind::Hummingbird])
        );
        assert_eq!(EngineKind::parse("all"), Some(EngineKind::ALL.to_vec()));
        assert_eq!(EngineKind::parse("null,bogus"), None);
        assert_eq!(EngineKind::parse(""), None);
    }

    #[test]
    fn throughput_arithmetic() {
        let t = Throughput { packets: 1_000_000, bits: 12_000_000_000, seconds: 0.5 };
        assert!((t.gbps() - 24.0).abs() < 1e-9);
        assert!((t.mpps() - 2.0).abs() < 1e-9);
        assert!((t.ns_per_pkt(4) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn line_rate_cap() {
        let t = Throughput { packets: 1, bits: 400_000_000_000, seconds: 1.0 };
        assert!((t.gbps_line_capped() - LINE_RATE_GBPS).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_and_zero_packets_are_finite() {
        // Tiny smoke runs can complete inside the clock resolution; the
        // arithmetic must stay finite instead of reporting inf/NaN.
        let t = Throughput { packets: 10, bits: 8_000, seconds: 0.0 };
        assert_eq!(t.gbps(), 0.0);
        assert_eq!(t.gbps_line_capped(), 0.0);
        assert_eq!(t.mpps(), 0.0);
        let empty = Throughput { packets: 0, bits: 0, seconds: 1.0 };
        assert_eq!(empty.ns_per_pkt(4), 0.0);
        assert!(t.gbps().is_finite() && empty.mpps().is_finite());
    }

    #[test]
    fn conservation_needs_every_offered_packet_on_one_shard() {
        use hummingbird_dataplane::ShardReport;
        let shard = |processed| ShardReport { processed, ..ShardReport::default() };
        let report = |packets, shards: &[u64]| RuntimeReport {
            packets,
            bits: 0,
            seconds: 0.0,
            rx_backpressure_drops: 0,
            per_shard: shards.iter().map(|&p| shard(p)).collect(),
            egress: None,
        };
        assert_eq!(conserved(100, &report(100, &[60, 40])), Ok(()));
        assert!(conserved(100, &report(99, &[60, 39])).is_err(), "one packet short");
        assert!(conserved(100, &report(100, &[60, 39])).is_err(), "shards disagree");
        // Packets shed at rx under backpressure are accounted for.
        let shed = RuntimeReport { rx_backpressure_drops: 1, ..report(99, &[60, 39]) };
        assert_eq!(conserved(100, &shed), Ok(()));
    }

    #[test]
    fn summary_percentiles() {
        // Nearest-rank on indices 0..=99: p50 -> idx round(49.5) = 50.
        let s = Summary::of((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.p50, 51.0);
        assert_eq!(s.p95, 95.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }
}
