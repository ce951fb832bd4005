//! Shared fixtures, runs and table formatting for the benchmark harness.
//!
//! The `paper` binary regenerates the paper's evaluation, one `--claim`
//! per table, figure or section, and prints each as a table. This
//! library provides the packet/router fixtures, so the workloads are
//! identical across claims, the command line parsed once ([`Args`]),
//! and the one checked runtime run they share: [`checked_run`] exits the
//! process on a packet conservation failure, and [`clone_run`] measures
//! an engine on per-core clones. The overload and latency sweeps are tests
//! of `hummingbird-netsim` (`closed_loop.rs`, `latency_model.rs`); the
//! simulator, socket testbed and control-plane numbers are the
//! `netsim_churn`, `chain_*` and `control_*` workloads of the
//! `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

use hummingbird_baselines::EngineFamily;
use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, run_to_completion, BeaconHop, BorderRouter, Datapath, ExecMode, Gateway, HostShare,
    NullEngine, RouterConfig, RuntimeConfig, RuntimeMode, RuntimeReport, SourceGenerator,
    SourceReservation, Steering, BATCH_SIZE,
};
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

/// The source / destination AS every fixture packet carries.
const SRC: IsdAs = IsdAs::new(1, 0x10);
const DST: IsdAs = IsdAs::new(2, 0x20);

/// Which [`Datapath`] engine a claim should drive.
///
/// Every packet-processing claim accepts `--engine
/// hummingbird|scion|helia|drkey|epic|gateway|null|all` (default: the
/// claim's traditional engine set). Four kinds are rows of the
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

/// The flags that take no value.
const SWITCHES: [&str; 2] = ["sharded", "help"];

/// The command line, parsed once: the `--claim` ids, and every other
/// `--<name> <v>`, `--<name>=<v>` or bare switch, in order.
pub struct Args {
    /// The values of the repeatable `--claim`, in order.
    pub claims: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// Prints `msg` and exits with status 2: a malformed command line must
/// fail loudly, never silently fall back to a default.
fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

impl Args {
    /// Parses `tokens`, the arguments after the program name. `Err` on a
    /// token that is not a `--flag`, or on a flag that takes a value and
    /// has none.
    fn parse(tokens: &[String]) -> Result<Args, String> {
        let (mut claims, mut flags) = (Vec::new(), Vec::new());
        let mut tokens = tokens.iter().peekable();
        while let Some(token) = tokens.next() {
            let Some(flag) = token.strip_prefix("--") else {
                return Err(format!("unexpected argument '{token}'; every argument is a --flag"));
            };
            let (name, value) = match flag.split_once('=') {
                Some((name, value)) => (name, Some(value.to_owned())),
                None if SWITCHES.contains(&flag) => (flag, None),
                None => match tokens.next_if(|v| !v.starts_with("--")) {
                    Some(value) => (flag, Some(value.clone())),
                    None => {
                        return Err(format!(
                            "--{flag} requires a value (--{flag} <v> or --{flag}=<v>)"
                        ))
                    }
                },
            };
            match (name, value) {
                ("claim", Some(id)) => claims.push(id),
                (name, value) => flags.push((name.to_owned(), value)),
            }
        }
        Ok(Args { claims, flags })
    }

    /// The process's command line. Exits with status 2 if it is malformed.
    pub fn from_env() -> Args {
        let tokens: Vec<String> = std::env::args().skip(1).collect();
        Args::parse(&tokens).unwrap_or_else(|msg| usage_exit(&msg))
    }

    /// Exits with status 2, naming the flags in `read`, if the command
    /// line has a flag other than `--claim` that `read` does not hold.
    pub fn reject_unread(&self, read: &[&str]) {
        if let Some((name, _)) = self.flags.iter().find(|(name, _)| !read.contains(&name.as_str()))
        {
            let read: Vec<String> = read.iter().map(|flag| format!("--{flag}")).collect();
            let read = if read.is_empty() { "none".to_owned() } else { read.join(" ") };
            usage_exit(&format!(
                "no selected claim reads --{name}; the selected claims read: {read}"
            ));
        }
    }

    /// Every value of the repeatable `--<name>`, in order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags.iter().filter(move |(n, _)| n == name).filter_map(|(_, v)| v.as_deref())
    }

    /// Whether the switch `--<name>` is given.
    pub fn present(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The engines `--engine <kind>` (repeatable, or `all`) selects;
    /// `default` applies when the flag is absent. Exits with a usage
    /// message on an unknown engine.
    pub fn engines(&self, default: &[EngineKind]) -> Vec<EngineKind> {
        let mut selected = Vec::new();
        for v in self.values("engine") {
            selected.extend(EngineKind::parse(v).unwrap_or_else(|| {
                usage_exit(&format!(
                    "unknown engine '{v}'; expected hummingbird|scion|helia|drkey|epic|gateway|null|all"
                ))
            }));
        }
        if selected.is_empty() {
            default.to_vec()
        } else {
            selected
        }
    }

    /// The parsed first value of `--<name>`, or `default` when the flag
    /// is absent. Exits with a usage message naming `expected` when the
    /// value does not parse.
    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T, expected: &str) -> T {
        let Some(v) = self.values(name).next() else { return default };
        v.parse()
            .unwrap_or_else(|_| usage_exit(&format!("bad --{name} '{v}'; expected {expected}")))
    }

    /// `--<name> <v>` as a `u64`; `default` applies when the flag is
    /// absent. Exits with a usage message on malformed input.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.parsed(name, default, "an unsigned integer")
    }

    /// `--cores 1,2,4` (a comma-separated list); `default` applies when
    /// the flag is absent. Exits with a usage message on malformed input.
    pub fn cores(&self, default: &[usize]) -> Vec<usize> {
        let Some(v) = self.values("cores").next() else { return default.to_vec() };
        let parsed: Option<Vec<usize>> =
            v.split(',').map(|p| p.trim().parse::<usize>().ok().filter(|&c| c > 0)).collect();
        parsed.filter(|cores| !cores.is_empty()).unwrap_or_else(|| {
            usage_exit(&format!("bad --cores '{v}'; expected a comma-separated list like 1,2,4"))
        })
    }

    /// `--batch <n>` (packets per burst in the runtime hot loop);
    /// `default` applies when the flag is absent. Exits with a usage
    /// message on malformed or zero input.
    pub fn batch(&self, default: usize) -> usize {
        match self.parsed("batch", default, "a positive packet count") {
            0 => usage_exit("bad --batch '0'; expected a positive packet count"),
            n => n,
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

    /// Hop 0's secret value and hop-field key: the keys every engine
    /// this fixture builds validates with.
    pub fn hop0_keys(&self) -> (&SecretValue, &HopMacKey) {
        (&self.svs[0], &self.hop_keys[0])
    }

    /// A border router for hop 0 of this fixture (the hop every generated
    /// packet is validated at).
    fn router(&self) -> BorderRouter {
        BorderRouter::new(self.svs[0].clone(), self.hop_keys[0].clone(), RouterConfig::default())
    }

    /// A serialized packet with `payload_len` bytes, ready for the router.
    pub fn packet(&self, payload_len: usize, with_reservations: bool) -> Vec<u8> {
        let mut generator = self.generator(with_reservations);
        generator.generate(&vec![0u8; payload_len], EPOCH_MS).expect("generation")
    }

    /// A hop-0 engine of the requested kind, type-erased behind
    /// [`Datapath`] — the only constructor the claims use.
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

/// A throughput measurement: a [`RuntimeReport`]'s totals, or a source
/// generation run's.
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
/// backpressure is `offered`. `Err` says which identity broke.
fn conserved(offered: u64, r: &RuntimeReport) -> Result<(), String> {
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

/// `run_to_completion` of `offered` packets from `templates` through
/// `fx`'s hop-0 engines of `kind`, checked for packet conservation: a
/// run that lost or duplicated a packet prints which identity broke and
/// exits the process with status 1. Every runtime run of the harness
/// goes through here, so a CI smoke leg asserts conservation through its
/// exit status, not by scraping logs.
pub fn checked_run(
    cfg: &RuntimeConfig,
    mode: RuntimeMode,
    fx: &DataplaneFixture,
    kind: EngineKind,
    templates: &[Vec<u8>],
    offered: u64,
) -> RuntimeReport {
    let report = run_to_completion(cfg, mode, |_| fx.engine(kind), templates, offered, EPOCH_NS);
    if let Err(e) = conserved(offered, &report) {
        let mode = if mode == RuntimeMode::Sharded { "sharded" } else { "clone" };
        let (engine, cores) = (kind.name(), cfg.shards);
        eprintln!("CONSERVATION FAILURE: engine {engine} mode {mode} cores {cores}: {e}");
        std::process::exit(1);
    }
    report
}

/// `cores` per-core clones of `kind`'s engine, each driving
/// `pkts_per_core` copies of `pkt` in bursts of up to [`BATCH_SIZE`],
/// on real threads when the host has the cores and as the runtime's
/// dedicated-core estimate when it does not ([`ExecMode::Auto`]).
/// Checked for conservation like every [`checked_run`].
pub fn clone_run(
    fx: &DataplaneFixture,
    kind: EngineKind,
    pkt: Vec<u8>,
    cores: usize,
    pkts_per_core: u64,
) -> Throughput {
    let mut cfg = RuntimeConfig::new(cores);
    cfg.batch_size = BATCH_SIZE.min(pkts_per_core.max(1) as usize);
    cfg.exec = ExecMode::Auto;
    let offered = pkts_per_core * cores as u64;
    Throughput::from(&checked_run(&cfg, RuntimeMode::PerCoreClone, fx, kind, &[pkt], offered))
}

/// Formats a right-aligned table row.
pub fn row<S: AsRef<str>>(cells: &[S], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths.iter())
        .map(|(c, w)| format!("{:>w$}", c.as_ref(), w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Percentile of a sorted slice. Empty populations answer `0` — the
/// same convention as `FlowStats` and the egress `LatencyHistogram`,
/// and finite by construction.
fn percentile(sorted: &[f64], p: f64) -> f64 {
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
    use hummingbird_dataplane::ShardedRouter;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn trailing_valued_flag_errors_instead_of_defaulting() {
        // `--pkts` as the last token is a malformed command line: it must
        // surface as an error, not silently fall through to the default.
        assert!(parse(&["--pkts"]).is_err(), "a dangling --pkts must not fall back to the default");
        // The well-formed spellings still parse.
        assert_eq!(parse(&["--pkts", "500"]).unwrap().u64("pkts", 1), 500);
        assert_eq!(parse(&["--pkts=500"]).unwrap().u64("pkts", 1), 500);
        // Absent flag: the default applies.
        assert_eq!(parse(&["--cores", "2"]).unwrap().u64("pkts", 1), 1);
        // `--engine` is repeatable: a dangling one, or one followed by
        // another flag, must not silently run the default engines.
        assert!(parse(&["--engine"]).is_err());
        assert!(parse(&["--engine", "epic", "--engine"]).is_err());
        assert!(parse(&["--engine", "--sharded"]).is_err());
        let args = parse(&["--engine", "null", "--engine=helia,epic", "--sharded"]).unwrap();
        let engines = [EngineKind::Null, EngineKind::Helia, EngineKind::Epic];
        assert_eq!(args.engines(&[]), engines);
        assert!(args.present("sharded"));
        assert_eq!(
            parse(&["--pkts", "5"]).unwrap().engines(&[EngineKind::Scion]),
            [EngineKind::Scion]
        );
        // A bare word is not a flag, and `--claim` values are kept apart.
        assert!(parse(&["fig5"]).is_err());
        assert_eq!(parse(&["--claim", "fig5", "--claim=sec2"]).unwrap().claims, ["fig5", "sec2"]);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        // The empty-population convention everywhere else (FlowStats,
        // LatencyHistogram) is 0 — never NaN.
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
            let mut sharded = ShardedRouter::new(
                (0..4).map(|_| fx.engine(kind)).collect(),
                RouterConfig::default().policer_slots,
                kind.steering(),
            );
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
