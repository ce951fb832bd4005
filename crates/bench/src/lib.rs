//! Shared fixtures and table formatting for the benchmark harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see ARCHITECTURE.md, "Benchmark output schema",
//! for what each one writes); this library
//! provides the common packet/router/market fixtures so the workloads are
//! identical across experiments.
//!
//! Besides the human-readable tables, the forwarding binaries emit
//! `BENCH_hotpath.json` and the `netsim_scale` binary emits
//! `BENCH_netsim.json` ([`json`] documents both schemas) so ns/pkt,
//! Mpps and simulator events/s are tracked machine-readably across PRs.

pub mod json;

pub use json::{
    control_json, hotpath_json, netsim_json, overload_json, testbed_json, write_control_json,
    write_hotpath_json, write_netsim_json, write_overload_json, write_testbed_json, BenchRecord,
    ControlInvariants, ControlMeta, ControlPhase, ControlState, HotpathMeta, NetsimRecord,
    OverloadRecord, OverloadSaturation, ScalingCurve, ScalingPoint, TestbedClass, TestbedMeta,
    TestbedRecord,
};

use hummingbird_baselines::drkey::epoch_of;
use hummingbird_baselines::{
    epic_auth_key, slot_of, DrKeyDatapath, DrKeySecret, DrKeySender, EpicDatapath, EpicSender,
    HeliaDatapath, HeliaSender,
};
use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, BeaconHop, BorderRouter, Datapath, Gateway, HostShare, NullEngine, RouterConfig,
    ShardedRouter, SourceGenerator, SourceReservation, Steering,
};
use hummingbird_testbed::WaitStrategy;
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;

/// Fixed evaluation epoch (Unix seconds).
pub const EPOCH_S: u64 = 1_700_000_000;
/// Evaluation epoch in milliseconds.
pub const EPOCH_MS: u64 = EPOCH_S * 1000;
/// Evaluation epoch in nanoseconds.
pub const EPOCH_NS: u64 = EPOCH_S * 1_000_000_000;

/// The DRKey master every benchmark baseline AS uses (hop 0).
const DRKEY_MASTER: [u8; 16] = [0xB5; 16];

/// Which [`Datapath`] engine a figure/table binary should drive.
///
/// Every packet-processing binary accepts `--engine
/// hummingbird|scion|helia|drkey|epic|gateway|null|all` (default: the
/// binary's traditional engine set) and constructs engines exclusively
/// through [`DataplaneFixture::engine`] +
/// [`DataplaneFixture::engine_packet`] — the single place that knows
/// concrete engine types.
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

    /// Stable display name (matches `Datapath::engine_name` plus the
    /// workload-only `scion` variant).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Hummingbird => "hummingbird",
            EngineKind::Scion => "scion",
            EngineKind::Helia => "helia",
            EngineKind::Drkey => "drkey",
            EngineKind::Epic => "epic",
            EngineKind::Gateway => "gateway",
            EngineKind::Null => "null",
        }
    }

    /// Parses one engine selector or a comma-separated list of them
    /// (`null,hummingbird`); `all` expands to every engine.
    fn parse(s: &str) -> Option<Vec<EngineKind>> {
        let mut kinds = Vec::new();
        for part in s.split(',') {
            match part.trim() {
                "hummingbird" => kinds.push(EngineKind::Hummingbird),
                "scion" => kinds.push(EngineKind::Scion),
                "helia" => kinds.push(EngineKind::Helia),
                "drkey" => kinds.push(EngineKind::Drkey),
                "epic" => kinds.push(EngineKind::Epic),
                "gateway" => kinds.push(EngineKind::Gateway),
                "null" => kinds.push(EngineKind::Null),
                "all" => kinds.extend(EngineKind::ALL),
                _ => return None,
            }
        }
        if kinds.is_empty() {
            None
        } else {
            Some(kinds)
        }
    }
}

/// Parses `--engine <kind>` (repeatable, or `all`) from the process
/// arguments; `default` applies when the flag is absent. Exits with a
/// usage message on an unknown engine.
pub fn engines_from_args(default: &[EngineKind]) -> Vec<EngineKind> {
    let args: Vec<String> = std::env::args().collect();
    let mut selected = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let value = if args[i] == "--engine" && i + 1 < args.len() {
            i += 1;
            Some(args[i].clone())
        } else {
            args[i].strip_prefix("--engine=").map(str::to_owned)
        };
        if let Some(v) = value {
            match EngineKind::parse(&v) {
                Some(kinds) => selected.extend(kinds),
                None => {
                    eprintln!(
                        "unknown engine '{v}'; expected \
                         hummingbird|scion|helia|drkey|epic|gateway|null|all"
                    );
                    std::process::exit(2);
                }
            }
        }
        i += 1;
    }
    if selected.is_empty() {
        default.to_vec()
    } else {
        selected
    }
}

/// The value of `--<name> <v>` / `--<name>=<v>` in `args`: `Ok(None)`
/// when the flag is absent (the caller's default applies), `Err` when
/// the flag appears as the last token with no value — a malformed
/// command line that must fail loudly, never silently fall back to the
/// default.
fn flag_value_in(args: &[String], name: &str) -> Result<Option<String>, String> {
    let long = format!("--{name}");
    let prefixed = format!("--{name}=");
    let mut i = 0;
    while i < args.len() {
        if args[i] == long {
            return match args.get(i + 1) {
                Some(v) => Ok(Some(v.clone())),
                None => Err(format!("--{name} requires a value (--{name} <v> or --{name}=<v>)")),
            };
        }
        if let Some(v) = args[i].strip_prefix(&prefixed) {
            return Ok(Some(v.to_owned()));
        }
        i += 1;
    }
    Ok(None)
}

/// The value of `--<name> <v>` / `--<name>=<v>` in the process
/// arguments, if present. Exits with a usage message when the flag
/// dangles with no value.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    match flag_value_in(&args, name) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Parses `--<name> <v>` as a `u64` from the process arguments;
/// `default` applies when the flag is absent. Exits with a usage
/// message on malformed input.
pub fn u64_from_args(name: &str, default: u64) -> u64 {
    let Some(v) = flag_value(name) else { return default };
    match v.parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("bad --{name} '{v}'; expected an unsigned integer");
            std::process::exit(2);
        }
    }
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
    match parsed {
        Some(cores) if !cores.is_empty() => cores,
        _ => {
            eprintln!("bad --cores '{v}'; expected a comma-separated list like 1,2,4");
            std::process::exit(2);
        }
    }
}

/// Parses `--pkts <n>` (total per-core packet budget override, letting CI
/// smoke-run the figures with tiny counts); `default` applies when the
/// flag is absent.
pub fn pkts_from_args(default: u64) -> u64 {
    let Some(v) = flag_value("pkts") else { return default };
    match v.parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("bad --pkts '{v}'; expected an unsigned packet count");
            std::process::exit(2);
        }
    }
}

/// Whether `--sharded` was passed (figure binaries add a sharded-runtime
/// sweep next to the per-core-clone one).
pub fn sharded_from_args() -> bool {
    flag_present("sharded")
}

/// Parses `--wait busy|yield[:n]|backoff` into the testbed's
/// credit-wait [`WaitStrategy`]; its default (backoff) applies when the
/// flag is absent. `yield` without a count spins 64 times before
/// yielding. Exits with a usage message on malformed input.
pub fn wait_from_args() -> WaitStrategy {
    let Some(v) = flag_value("wait") else { return WaitStrategy::default() };
    match v.as_str() {
        "busy" => WaitStrategy::BusyPoll,
        "yield" => WaitStrategy::YieldAfter(64),
        "backoff" => WaitStrategy::Backoff,
        other => match other.strip_prefix("yield:").map(str::parse::<u32>) {
            Some(Ok(n)) => WaitStrategy::YieldAfter(n),
            _ => {
                eprintln!("bad --wait '{v}'; expected busy|yield[:n]|backoff");
                std::process::exit(2);
            }
        },
    }
}

/// The `--wait` spelling of a [`WaitStrategy`] (for JSON metadata and
/// log lines).
pub fn wait_label(wait: WaitStrategy) -> String {
    match wait {
        WaitStrategy::BusyPoll => "busy".to_string(),
        WaitStrategy::YieldAfter(n) => format!("yield:{n}"),
        WaitStrategy::Backoff => "backoff".to_string(),
    }
}

/// Parses `--batch <n>` (packets per burst in the runtime hot loop, the
/// knob the batch-size ablation sweeps); `default` applies when the flag
/// is absent. Exits with a usage message on malformed or zero input.
pub fn batch_from_args(default: usize) -> usize {
    let Some(v) = flag_value("batch") else { return default };
    match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("bad --batch '{v}'; expected a positive packet count");
            std::process::exit(2);
        }
    }
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
        let hops: Vec<BeaconHop> = (0..self.h)
            .map(|i| {
                let (cons_ingress, cons_egress) = self.interfaces(i);
                BeaconHop { key: self.hop_keys[i].clone(), cons_ingress, cons_egress }
            })
            .collect();
        let path = forge_path(&hops, EPOCH_S as u32 - 100, 0x7777);
        let mut generator = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
        if with_reservations {
            for i in 0..self.h {
                let (ingress, egress) = self.interfaces(i);
                let res_info = ResInfo {
                    ingress,
                    egress,
                    res_id: i as u32 + 1,
                    bw_encoded: 1000, // huge class so policing never bites
                    res_start: EPOCH_S as u32 - 50,
                    duration: 36_000,
                };
                let key = self.svs[i].derive_key(&res_info);
                generator
                    .attach_reservation(i, SourceReservation { res_info, key })
                    .expect("interfaces match");
            }
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

    /// The source / destination every fixture packet carries.
    fn endpoints() -> (IsdAs, IsdAs) {
        (IsdAs::new(1, 0x10), IsdAs::new(2, 0x20))
    }

    /// A hop-0 engine of the requested kind, type-erased behind
    /// [`Datapath`] — the only constructor the figure binaries use.
    pub fn engine(&self, kind: EngineKind) -> Box<dyn Datapath + Send> {
        match kind {
            EngineKind::Hummingbird | EngineKind::Scion => Box::new(self.router()),
            EngineKind::Helia => Box::new(HeliaDatapath::new(
                DRKEY_MASTER,
                self.hop_keys[0].clone(),
                RouterConfig::default(),
            )),
            EngineKind::Drkey => {
                Box::new(DrKeyDatapath::new(DRKEY_MASTER, self.hop_keys[0].clone()))
            }
            EngineKind::Epic => Box::new(EpicDatapath::new(
                DRKEY_MASTER,
                self.hop_keys[0].clone(),
                RouterConfig::default(),
            )),
            EngineKind::Gateway => {
                let reserved = self.generator(true);
                let best_effort = self.generator(false);
                let mut gw = Gateway::new(reserved, best_effort, 10_000_000);
                // Host 1 = the 0.0.0.1 source host address every
                // SourceGenerator-built packet carries.
                gw.admit_host(1, HostShare { rate_kbps: 10_000_000 });
                Box::new(gw)
            }
            EngineKind::Null => Box::new(NullEngine::new()),
        }
    }

    /// One logical hop-0 router of `kind` sharded across `shards`
    /// engines, with steering matched to how the engine keys its state
    /// (by reservation for routers, by source for the gateway's per-host
    /// buckets and EPIC's per-source keys and replay filters).
    pub fn sharded_engine(&self, kind: EngineKind, shards: usize) -> ShardedRouter {
        let steering = if matches!(kind, EngineKind::Gateway | EngineKind::Epic) {
            Steering::BySource
        } else {
            Steering::ByReservation
        };
        ShardedRouter::new(
            (0..shards.max(1)).map(|_| self.engine(kind)).collect(),
            RouterConfig::default().policer_slots,
            steering,
        )
    }

    /// A serialized `payload_len`-byte packet the matching
    /// [`DataplaneFixture::engine`] accepts (stamped by that engine's own
    /// sender model).
    pub fn engine_packet(&self, kind: EngineKind, payload_len: usize) -> Vec<u8> {
        let (src, dst) = Self::endpoints();
        let payload = vec![0u8; payload_len];
        match kind {
            EngineKind::Hummingbird => self.packet(payload_len, true),
            EngineKind::Scion | EngineKind::Gateway | EngineKind::Null => {
                self.packet(payload_len, false)
            }
            EngineKind::Helia => {
                let path = self.beacon_path();
                let mut sender = HeliaSender::new(src, dst, path);
                let issuer = HeliaDatapath::new(
                    DRKEY_MASTER,
                    self.hop_keys[0].clone(),
                    RouterConfig::default(),
                );
                let (ingress, egress) = self.interfaces(0);
                let grant = issuer
                    .issue_grant(src, slot_of(EPOCH_S), 1, 10_000_000, ingress, egress)
                    .expect("encodable share");
                sender.attach_grant(0, &grant).expect("matching interfaces");
                sender.generate(&payload, EPOCH_MS).expect("generation")
            }
            EngineKind::Drkey => {
                let path = self.beacon_path();
                let mut engine = DrKeyDatapath::new(DRKEY_MASTER, self.hop_keys[0].clone());
                let key = engine.host_key(src, [0, 0, 0, 1], EPOCH_S);
                let mut sender = DrKeySender::new(src, dst, path);
                let (ingress, egress) = self.interfaces(0);
                sender
                    .attach_host_key(0, ingress, egress, key, EPOCH_S)
                    .expect("matching interfaces");
                sender.generate(&payload, EPOCH_MS).expect("generation")
            }
            EngineKind::Epic => self.epic_packet(src, &payload, EPOCH_MS),
        }
    }

    /// A serialized EPIC-stamped packet from `src`, authenticated at
    /// hop 0 under this fixture's DRKey master.
    fn epic_packet(&self, src: IsdAs, payload: &[u8], at_ms: u64) -> Vec<u8> {
        let (_, dst) = Self::endpoints();
        let secret = DrKeySecret::derive(&DRKEY_MASTER, epoch_of(EPOCH_S));
        let key = epic_auth_key(&secret, src, [0, 0, 0, 1]);
        let mut sender = EpicSender::new(src, dst, self.beacon_path());
        let (ingress, egress) = self.interfaces(0);
        sender.attach_auth_key(0, ingress, egress, key, EPOCH_S).expect("matching interfaces");
        sender.generate(payload, at_ms).expect("generation")
    }

    /// A reserved generator whose hop-0 reservation uses `res_id` — the
    /// knob flow-diverse workloads turn so different flows land in
    /// different policing slots (and, sharded, on different shards).
    fn reserved_generator_with_res0(&self, res_id: u32) -> SourceGenerator {
        let mut generator = self.generator(true);
        let (ingress, egress) = self.interfaces(0);
        let res_info = ResInfo {
            ingress,
            egress,
            res_id,
            bw_encoded: 1000, // huge class so policing never bites
            res_start: EPOCH_S as u32 - 50,
            duration: 36_000,
        };
        let key = self.svs[0].derive_key(&res_info);
        generator
            .attach_reservation(0, SourceReservation { res_info, key })
            .expect("interfaces match");
        generator
    }

    /// `flows` distinct packet templates the hop-0 engine of `kind`
    /// accepts, with flow identities spread so RSS steering can balance
    /// them: reservation-bearing kinds get ResIDs spread evenly across
    /// the policing array ([0, `policer_slots`)), plain kinds get
    /// distinct per-packet timestamps (the duplicate-filter key the
    /// plain flow hash covers). EPIC is keyed by source, so its flows
    /// come from distinct source ASes and spread under the
    /// [`Steering::BySource`] map [`DataplaneFixture::sharded_engine`]
    /// gives it. DRKey carries no reservation axis, so
    /// its flows intentionally share one shard under reservation
    /// steering — the engine-model skew the sharded sweep makes visible.
    pub fn flow_packets(&self, kind: EngineKind, payload_len: usize, flows: usize) -> Vec<Vec<u8>> {
        let flows = flows.max(1);
        let slots = RouterConfig::default().policer_slots;
        let payload = vec![0u8; payload_len];
        (0..flows)
            .map(|f| {
                // 1 + f·step stays strictly inside [1, slots).
                let step = slots.saturating_sub(2) / flows as u32;
                let res_id = 1 + f as u32 * step;
                match kind {
                    EngineKind::Hummingbird => self
                        .reserved_generator_with_res0(res_id)
                        .generate(&payload, EPOCH_MS + f as u64)
                        .expect("generation"),
                    EngineKind::Scion | EngineKind::Gateway | EngineKind::Null => self
                        .generator(false)
                        .generate(&payload, EPOCH_MS + f as u64)
                        .expect("generation"),
                    EngineKind::Helia => {
                        let (src, dst) = Self::endpoints();
                        let (ingress, egress) = self.interfaces(0);
                        let issuer = HeliaDatapath::new(
                            DRKEY_MASTER,
                            self.hop_keys[0].clone(),
                            RouterConfig::default(),
                        );
                        let grant = issuer
                            .issue_grant(src, slot_of(EPOCH_S), res_id, 10_000_000, ingress, egress)
                            .expect("encodable share");
                        let mut sender = HeliaSender::new(src, dst, self.beacon_path());
                        sender.attach_grant(0, &grant).expect("matching interfaces");
                        sender.generate(&payload, EPOCH_MS + f as u64).expect("generation")
                    }
                    EngineKind::Drkey => self.engine_packet(kind, payload_len),
                    EngineKind::Epic => {
                        // One source AS per flow: the BySource hash is the
                        // axis EPIC shards on.
                        let src = IsdAs::new(1, 0x10 + f as u64);
                        self.epic_packet(src, &payload, EPOCH_MS + f as u64)
                    }
                }
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
/// and finite by construction so the hand-rolled JSON writers never see
/// a `NaN` from this path.
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
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        // The empty-population convention everywhere else (FlowStats,
        // LatencyHistogram) is 0 — NaN here would leak invalid JSON
        // through the hand-rolled writers.
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
    fn summary_percentiles() {
        // Nearest-rank on indices 0..=99: p50 -> idx round(49.5) = 50.
        let s = Summary::of((1..=100).map(|i| i as f64).collect());
        assert_eq!(s.p50, 51.0);
        assert_eq!(s.p95, 95.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }
}
