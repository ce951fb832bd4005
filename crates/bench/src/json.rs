//! Machine-readable benchmark output: `BENCH_hotpath.json`,
//! `BENCH_netsim.json` and `BENCH_overload.json`.
//!
//! The figure binaries print human-readable tables; this module emits the
//! same numbers as small JSON documents so the performance trajectory can
//! be tracked across PRs (one run of each is checked in at the repository
//! root as the trajectory seed).
//!
//! # Hot-path schema (`schema = 4`)
//!
//! ```json
//! {
//!   "schema": 4,
//!   "bench": "hotpath",
//!   "aes_backend": "ni",          // active AES backend: "soft" | "ni"
//!   "hardware_threads": 8,        // available parallelism of the host
//!   "batch": 32,                  // packets per burst in the hot loop
//!   "records": [
//!     {
//!       "engine": "hummingbird",  // EngineKind name
//!       "mode": "clone",          // "clone" | "sharded"
//!       "cores": 1,               // worker cores driving the engine
//!       "payload_b": 500,         // payload bytes per packet
//!       "ns_per_pkt": 308.2,      // per-core-seconds per packet
//!       "mpps": 3.24              // aggregate million packets / second
//!     }
//!   ],
//!   "scaling": [
//!     {
//!       "engine": "null",         // EngineKind name
//!       "mode": "sharded",        // "clone" | "sharded"
//!       "curve": [
//!         {
//!           "cores": 2,           // worker cores at this point
//!           "mpps": 18.1,         // aggregate throughput at this point
//!           "speedup": 1.94,     // mpps relative to the 1-core point
//!                                 //   of the same (engine, mode) curve
//!           "exec": "threaded"    // "threaded": workers ran concurrently
//!         }                       //   (or one worker); "sequential":
//!                                 //   the dedicated-core estimate of a
//!                                 //   host with fewer hardware threads
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! Schema 4 is schema 3 with an `exec` label on every scaling point, so
//! a curve says which of its points are concurrent wall clock and which
//! are a sequential estimate; schema 3 dropped two header fields that
//! recorded runtime knobs the runtime no longer has (the worker wait
//! strategy and the rx layout). `records` rows are unchanged since
//! schema 1, the `scaling` section (per-engine core-scaling curves, the
//! Fig. 5 "does N shards buy ~N×?" question in machine-readable form)
//! since schema 2.
//!
//! `ns_per_pkt` / `mpps` / `speedup` are `null` when a degenerate run
//! (zero duration) produced a non-finite value — consumers should drop
//! such points rather than read them as zeros.
//!
//! # Netsim-scale schema (`schema = 1`)
//!
//! Written by the `netsim_scale` binary: one churned four-family sweep of
//! the generated ring-of-PoPs backbone (`netsim::topo` + `netsim::churn`),
//! tracking how fast the discrete-event simulator chews through an
//! Internet-scale topology and whether the recovery contrast holds.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "netsim",
//!   "seed": 12648430,             // topology/key/background-mesh seed
//!   "sim_s": 3,                   // simulated seconds per family run
//!   "records": [
//!     {
//!       "family": "hummingbird",  // EngineFamily name
//!       "shards": 1,              // shards per router datapath
//!       "routers": 100,           // generated backbone routers
//!       "adjacencies": 131,       // bidirectional backbone links
//!       "flows": 258,             // victim + flood + background flows
//!       "events": 5922331,        // simulator events processed
//!       "wall_ms": 812.402,       // host wall-clock for the run
//!       "events_per_sec": 7289e3, // events / wall second (the trend)
//!       "recovery_delivery": 0.97,// victim delivery after the reroute
//!       "recovery_ms": 12.31,     // victim mean latency after reroute
//!       "link_failures": 3,       // injected mid-epoch link failures
//!       "rerouted": 2,            // flows moved onto surviving paths
//!       "stranded": 0             // flows left with no surviving path
//!     }
//!   ]
//! }
//! ```
//!
//! `wall_ms` / `events_per_sec` are host-dependent (trend, not truth);
//! everything else in a record is deterministic for a given seed. Floats
//! degrade to `null` when non-finite, as in the hot-path schema.
//!
//! # Overload schema (`schema = 1`)
//!
//! Written by the `overload_sweep` binary: the closed-loop overload
//! sweep (`netsim::run_overload_scenario`) per engine family ×
//! {single, 4-shard} — a credentialed reserved flow against a
//! best-effort flow whose offered load is swept through and past the
//! bottleneck's saturation point, with bounded link and router queues.
//! The binary verifies conservation and termination for every point
//! before writing, so a checked-in document is also a green light.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "overload",
//!   "pkts_cap": 2000,             // per-flow packet cap (0 = uncapped)
//!   "service_calibrated": true,   // per-pkt cost from BENCH_hotpath.json
//!   "records": [
//!     {
//!       "family": "hummingbird",  // EngineFamily name
//!       "shards": 1,              // shards per router datapath
//!       "offered_kbps": 16000,    // best-effort offered load
//!       "reserved_delivery": 1.0, // reserved delivered / sent copies
//!       "reserved_goodput_kbps": 2230.1,  // over its completion time
//!       "reserved_p99_ms": 8.39,  // reserved p99 end-to-end latency
//!       "be_delivery": 0.945,     // best-effort delivered / sent
//!       "be_goodput_kbps": 6395.2,// over its completion time
//!       "be_p99_ms": 33.55,       // best-effort p99 latency (bounded
//!                                 //   by the queue caps)
//!       "retransmits": 114,       // both flows' retried copies
//!       "timeouts": 116,          // both flows' RTO fires
//!       "stalls": 1950,           // both flows' full-window stalls
//!       "queue_drops": 116,       // link-queue tail drops, both flows
//!       "service_queue_drops": 0, // router-queue drops, both flows
//!       "completed": true         // both flows terminated (no livelock)
//!     }
//!   ],
//!   "saturation": [
//!     {
//!       "family": "hummingbird",  // EngineFamily name
//!       "shards": 1,
//!       "saturation_kbps": 8000,  // largest offered step the best-
//!                                 //   effort flow still finished at
//!                                 //   ≥ 0.9 of (0 = none did)
//!       "post_goodput_kbps": 6953.2, // best-effort goodput at the
//!                                 //   highest (2.5×) step — graceful
//!                                 //   degradation, not collapse
//!       "reserved_held": true     // reserved delivery > 0.95 at every
//!                                 //   step (the reservation promise)
//!     }
//!   ]
//! }
//! ```
//!
//! # Control-plane scale schema (`schema = 1`)
//!
//! Written by the `control_scale` binary: one seeded run that admits
//! `reservations` reservations through the issue → redeem → deliver
//! flow, renews every one through the O(1) renewal fast path, and
//! batch-clears a round of sealed-bid auctions with the
//! [`ClearingEngine`](../hummingbird_control/clearing/index.html). The
//! binary verifies the conservation invariants before writing, so a
//! checked-in document is also a green light.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "control",
//!   "seed": 7,                    // deterministic run seed
//!   "reservations": 1000000,      // reservations admitted and renewed
//!   "shards": 8,                  // data-plane shards steering ResIDs
//!   "auctions": 256,              // auctions in the cleared epoch
//!   "aes_backend": "ni",          // active AES backend: "soft" | "ni"
//!   "sha_backend": "ni",          // active SHA-256 backend, same names
//!   "phases": [
//!     {
//!       "phase": "admit",         // "admit" | "renew" | "clear"
//!       "ops": 1000000,           // logical operations (reservations
//!                                 //   admitted / renewed / auctions
//!                                 //   settled)
//!       "txs": 4000000,           // ledger transactions committed
//!       "wall_ms": 31250.5,       // host wall-clock for the phase
//!       "ops_per_sec": 32000.1    // ops / wall second (the trend)
//!     }
//!   ],
//!   "state": {
//!     "ledger_objects": 2000345,  // committed objects after the run
//!     "ledger_bytes": 312000000,  // committed payload bytes
//!     "bytes_per_reservation": 312.0, // ledger_bytes / reservations
//!     "ledger_txs": 6000123,      // transactions committed in total
//!     "res_id_high_water": 999999,// highest ResID in use on the
//!                                 //   admission interface
//!     "shard_skew": 1.0           // max/min active reservations
//!   },                            //   across shards (1.0 = balanced)
//!   "invariants": {
//!     "bandwidth_time_conserved": true, // Σ granted bw×time == Σ issued
//!     "coin_supply_conserved": true,    // minted == supply + burned gas
//!     "shard_skew_ok": true,            // shard_skew <= 1.1
//!     "renewal_keys_ok": true,          // sampled renewals unwrap to the
//!                                       //   border-router A_K derivation
//!     "auction_escrows_drained": true   // no MIST stranded in escrow
//!   }
//! }
//! ```
//!
//! `wall_ms` / `ops_per_sec` are host-dependent (trend, not truth);
//! counts, state and invariants are deterministic for a given seed.
//! Floats degrade to `null` when non-finite, as everywhere else.
//!
//! # Testbed schema (`schema = 1`)
//!
//! Written by the `testbed_e2e` binary: real UDP datagrams over loopback
//! through a gateway → border-router chain → sink deployment
//! (`hummingbird_testbed`), per engine family × traffic mix. The binary
//! verifies exact packet conservation (globally, per class and per flow)
//! and zero parse failures for every run before writing, so a checked-in
//! document is also a green light.
//!
//! ```json
//! {
//!   "schema": 1,
//!   "bench": "testbed",
//!   "routers": 3,                 // border routers in the chain
//!   "shards": 1,                  // engine shards per router
//!   "pkts_per_run": 1000000,      // datagrams the gateway sends per run
//!   "payload_b": 200,             // L4 payload bytes per packet
//!   "window": 64,                 // credit window per link, frames
//!   "wait": "backoff",            // sender wait strategy (as hotpath)
//!   "records": [
//!     {
//!       "family": "hummingbird",  // EngineFamily name
//!       "mix": "cbr",             // TrafficMix name
//!       "sent": 1000000,          // gateway datagrams
//!       "delivered": 1000000,     // sink datagrams
//!       "engine_drops": 0,        // engine-verdict drops on the chain
//!       "parse_drops": 0,         // structurally invalid datagrams
//!       "wall_ms": 9210.4,        // sink first-delivery → FIN window
//!       "conserved": true,        // sent == delivered + drops, exactly,
//!                                 //   globally and per flow/class
//!       "classes": [
//!         {
//!           "class": "reserved",  // "reserved" | "best_effort"
//!           "sent": 500000,
//!           "delivered": 500000,
//!           "engine_drops": 0,
//!           "goodput_mbps": 78.1, // delivered payload bits / wall time
//!           "p50_us": 127.0,      // end-to-end latency percentiles
//!           "p95_us": 255.0,      //   (log2-bucketed upper bounds,
//!           "p99_us": 511.0,      //   microseconds)
//!           "p999_us": 1023.0
//!         }
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! `wall_ms` / `goodput_mbps` / `p*_us` are host-dependent (trend, not
//! truth); the counts and `conserved` are exact. Floats degrade to
//! `null` when non-finite, as everywhere else.
//!
//! No JSON library exists in the offline build environment, so the writers
//! are hand-rolled for exactly these shapes; all strings they emit are
//! engine/family identifiers (lowercase ASCII, no escaping needed).

use std::io::Write as _;

/// One measured (engine, mode, cores, payload) point.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Engine name (`EngineKind::name`).
    pub engine: &'static str,
    /// Runtime layout: `clone` (independent engine per core) or
    /// `sharded` (one logical router, producer-side RSS into per-shard
    /// workers).
    pub mode: &'static str,
    /// Worker cores driving the engine.
    pub cores: usize,
    /// Payload bytes per packet.
    pub payload_b: usize,
    /// Nanoseconds of core time per packet.
    pub ns_per_pkt: f64,
    /// Aggregate throughput in million packets per second.
    pub mpps: f64,
}

/// Formats a float with enough precision for trend tracking while
/// keeping the file diff-friendly (3 decimal places, no exponent).
/// Non-finite values (a zero-duration degenerate run) serialize as
/// `null` so trend tooling rejects the point instead of reading it as
/// a genuine zero.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

/// Host and runtime configuration stamped into the hot-path document
/// head (everything a reader needs to reproduce the run).
#[derive(Clone, Debug, PartialEq)]
pub struct HotpathMeta {
    /// Active AES backend: `soft` or `ni`.
    pub aes_backend: &'static str,
    /// Available parallelism of the host.
    pub hardware_threads: usize,
    /// Packets per burst in the runtime hot loop.
    pub batch: usize,
}

/// One point on a core-scaling curve: throughput at `cores` workers and
/// its ratio to the 1-core point of the same curve.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Worker cores at this point.
    pub cores: usize,
    /// Aggregate throughput in million packets per second.
    pub mpps: f64,
    /// `mpps` relative to the curve's 1-core point (1.0 at 1 core).
    pub speedup: f64,
    /// How the point was run: `threaded` (concurrent workers, or one)
    /// or `sequential` (the dedicated-core estimate, see
    /// `hummingbird_dataplane::ExecMode::is_concurrent`).
    pub exec: &'static str,
}

/// A per-(engine, mode) core-scaling curve for the `scaling` section.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingCurve {
    /// Engine name (`EngineKind::name`).
    pub engine: &'static str,
    /// Runtime layout: `clone` or `sharded`.
    pub mode: &'static str,
    /// The measured points, in ascending core order.
    pub points: Vec<ScalingPoint>,
}

/// Serializes `records` and `scaling` to the `BENCH_hotpath.json`
/// schema (version 4; shape in the module docs).
pub fn hotpath_json(
    meta: &HotpathMeta,
    records: &[BenchRecord],
    scaling: &[ScalingCurve],
) -> String {
    let mut out = String::with_capacity(512 + records.len() * 128 + scaling.len() * 256);
    out.push_str("{\n");
    out.push_str("  \"schema\": 4,\n");
    out.push_str("  \"bench\": \"hotpath\",\n");
    out.push_str(&format!("  \"aes_backend\": \"{}\",\n", meta.aes_backend));
    out.push_str(&format!("  \"hardware_threads\": {},\n", meta.hardware_threads));
    out.push_str(&format!("  \"batch\": {},\n", meta.batch));
    out.push_str("  \"records\": [");
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"mode\": \"{}\", \"cores\": {}, \"payload_b\": {}, \
             \"ns_per_pkt\": {}, \"mpps\": {}}}",
            r.engine,
            r.mode,
            r.cores,
            r.payload_b,
            num(r.ns_per_pkt),
            num(r.mpps),
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"scaling\": [");
    for (i, c) in scaling.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"engine\": \"{}\", \"mode\": \"{}\", \"curve\": [",
            c.engine, c.mode
        ));
        for (j, p) in c.points.iter().enumerate() {
            out.push_str(if j == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "      {{\"cores\": {}, \"mpps\": {}, \"speedup\": {}, \"exec\": \"{}\"}}",
                p.cores,
                num(p.mpps),
                num(p.speedup),
                p.exec,
            ));
        }
        out.push_str("\n    ]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the document to `path` (atomically enough for a benchmark:
/// truncate + write).
pub fn write_hotpath_json(
    path: &str,
    meta: &HotpathMeta,
    records: &[BenchRecord],
    scaling: &[ScalingCurve],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(hotpath_json(meta, records, scaling).as_bytes())
}

/// The measured single-core (`"mode": "clone"`, `"cores": 1`) ns/pkt of
/// `engine`, averaged over the payload sweep of a [`hotpath_json`]
/// document — the per-router service cost `latency_comparison` and
/// `overload_sweep` feed the simulator so each family pays its own
/// datapath cost. `None` when the document has no such record.
///
/// Hand-rolled (the offline build has no JSON library) against the
/// one-record-per-line layout the writer above emits; the `"cores": 1,`
/// needle keeps its trailing comma so multi-digit core counts never
/// match, and `null` (non-finite) points are skipped.
pub fn hotpath_clone_1core_ns(doc: &str, engine: &str) -> Option<u64> {
    let engine_key = format!("\"engine\": \"{engine}\"");
    let mut sum = 0.0f64;
    let mut n = 0u32;
    for line in doc.lines() {
        if !line.contains(&engine_key)
            || !line.contains("\"mode\": \"clone\"")
            || !line.contains("\"cores\": 1,")
        {
            continue;
        }
        let Some(at) = line.find("\"ns_per_pkt\":") else { continue };
        let rest = line[at + 13..].trim_start();
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        if let Ok(v) = rest[..end].trim().parse::<f64>() {
            if v.is_finite() && v > 0.0 {
                sum += v;
                n += 1;
            }
        }
    }
    (n > 0).then(|| (sum / f64::from(n)).round() as u64)
}

/// One churned netsim run of a single engine family on the generated
/// backbone (the `BENCH_netsim.json` record; schema in the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct NetsimRecord {
    /// Engine family name (`EngineFamily::name`).
    pub family: &'static str,
    /// Shards per router datapath.
    pub shards: usize,
    /// Routers in the generated backbone.
    pub routers: usize,
    /// Bidirectional adjacencies in the generated backbone.
    pub adjacencies: usize,
    /// Total flows driven (victim + flood + background mesh).
    pub flows: usize,
    /// Simulator events processed over the run.
    pub events: u64,
    /// Host wall-clock for the run, milliseconds.
    pub wall_ms: f64,
    /// Events per wall-clock second — the throughput trend.
    pub events_per_sec: f64,
    /// Victim delivery ratio over the post-reroute recovery window.
    pub recovery_delivery: f64,
    /// Victim mean latency over the recovery window, milliseconds.
    pub recovery_ms: f64,
    /// Mid-epoch link failures injected.
    pub link_failures: usize,
    /// Flows rerouted onto surviving paths.
    pub rerouted: usize,
    /// Flows stranded with no surviving path.
    pub stranded: usize,
}

/// Serializes `records` to the `BENCH_netsim.json` schema.
pub fn netsim_json(seed: u64, sim_s: u64, records: &[NetsimRecord]) -> String {
    let mut out = String::with_capacity(256 + records.len() * 256);
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"bench\": \"netsim\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"sim_s\": {sim_s},\n"));
    out.push_str("  \"records\": [");
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"shards\": {}, \"routers\": {}, \"adjacencies\": {}, \
             \"flows\": {}, \"events\": {}, \"wall_ms\": {}, \"events_per_sec\": {}, \
             \"recovery_delivery\": {}, \"recovery_ms\": {}, \"link_failures\": {}, \
             \"rerouted\": {}, \"stranded\": {}}}",
            r.family,
            r.shards,
            r.routers,
            r.adjacencies,
            r.flows,
            r.events,
            num(r.wall_ms),
            num(r.events_per_sec),
            num(r.recovery_delivery),
            num(r.recovery_ms),
            r.link_failures,
            r.rerouted,
            r.stranded,
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the netsim document to `path` (truncate + write, like
/// [`write_hotpath_json`]).
pub fn write_netsim_json(
    path: &str,
    seed: u64,
    sim_s: u64,
    records: &[NetsimRecord],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(netsim_json(seed, sim_s, records).as_bytes())
}

/// One swept overload point of one (family, shards) deployment (the
/// `BENCH_overload.json` record; schema in the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct OverloadRecord {
    /// Engine family name (`EngineFamily::name`).
    pub family: &'static str,
    /// Shards per router datapath.
    pub shards: usize,
    /// Best-effort offered load at this point, kbps.
    pub offered_kbps: u64,
    /// Reserved flow: delivered / sent wire copies.
    pub reserved_delivery: f64,
    /// Reserved flow: goodput over its own completion time, kbps.
    pub reserved_goodput_kbps: f64,
    /// Reserved flow: p99 end-to-end latency, ms.
    pub reserved_p99_ms: f64,
    /// Best-effort flow: delivered / sent wire copies.
    pub be_delivery: f64,
    /// Best-effort flow: goodput over its own completion time, kbps.
    pub be_goodput_kbps: f64,
    /// Best-effort flow: p99 end-to-end latency, ms.
    pub be_p99_ms: f64,
    /// Retransmitted copies, both flows.
    pub retransmits: u64,
    /// RTO fires, both flows.
    pub timeouts: u64,
    /// Full-window send stalls, both flows.
    pub stalls: u64,
    /// Link-queue tail drops, both flows.
    pub queue_drops: u64,
    /// Bounded router-queue drops, both flows.
    pub service_queue_drops: u64,
    /// Both flows terminated (no livelock).
    pub completed: bool,
}

/// The per-(family, shards) saturation summary of an overload sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct OverloadSaturation {
    /// Engine family name (`EngineFamily::name`).
    pub family: &'static str,
    /// Shards per router datapath.
    pub shards: usize,
    /// Largest offered step the best-effort flow still finished at
    /// ≥ 0.9× of (0 when even the first step saturated).
    pub saturation_kbps: u64,
    /// Best-effort goodput at the highest offered step, kbps.
    pub post_goodput_kbps: f64,
    /// Whether reserved delivery stayed above 0.95 at every step.
    pub reserved_held: bool,
}

/// Serializes the overload sweep to the `BENCH_overload.json` schema.
pub fn overload_json(
    pkts_cap: u64,
    service_calibrated: bool,
    records: &[OverloadRecord],
    saturation: &[OverloadSaturation],
) -> String {
    let mut out = String::with_capacity(256 + records.len() * 320 + saturation.len() * 128);
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"bench\": \"overload\",\n");
    out.push_str(&format!("  \"pkts_cap\": {pkts_cap},\n"));
    out.push_str(&format!("  \"service_calibrated\": {service_calibrated},\n"));
    out.push_str("  \"records\": [");
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"shards\": {}, \"offered_kbps\": {}, \
             \"reserved_delivery\": {}, \"reserved_goodput_kbps\": {}, \"reserved_p99_ms\": {}, \
             \"be_delivery\": {}, \"be_goodput_kbps\": {}, \"be_p99_ms\": {}, \
             \"retransmits\": {}, \"timeouts\": {}, \"stalls\": {}, \"queue_drops\": {}, \
             \"service_queue_drops\": {}, \"completed\": {}}}",
            r.family,
            r.shards,
            r.offered_kbps,
            num(r.reserved_delivery),
            num(r.reserved_goodput_kbps),
            num(r.reserved_p99_ms),
            num(r.be_delivery),
            num(r.be_goodput_kbps),
            num(r.be_p99_ms),
            r.retransmits,
            r.timeouts,
            r.stalls,
            r.queue_drops,
            r.service_queue_drops,
            r.completed,
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str("  \"saturation\": [");
    for (i, s) in saturation.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"shards\": {}, \"saturation_kbps\": {}, \
             \"post_goodput_kbps\": {}, \"reserved_held\": {}}}",
            s.family,
            s.shards,
            s.saturation_kbps,
            num(s.post_goodput_kbps),
            s.reserved_held,
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the overload document to `path` (truncate + write, like
/// [`write_hotpath_json`]).
pub fn write_overload_json(
    path: &str,
    pkts_cap: u64,
    service_calibrated: bool,
    records: &[OverloadRecord],
    saturation: &[OverloadSaturation],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(overload_json(pkts_cap, service_calibrated, records, saturation).as_bytes())
}

/// Head fields of a control-plane scale run (the `BENCH_control.json`
/// document; schema in the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct ControlMeta {
    /// Deterministic run seed.
    pub seed: u64,
    /// Reservations admitted and renewed.
    pub reservations: u64,
    /// Data-plane shards the ResID allocation steers across.
    pub shards: usize,
    /// Auctions batch-cleared in the settlement epoch.
    pub auctions: u64,
    /// Active AES backend (`"soft"` / `"ni"`).
    pub aes_backend: &'static str,
    /// Active SHA-256 backend, by the same names: admission time is
    /// mostly hashing and public-key work, so the document says what
    /// ran underneath it.
    pub sha_backend: &'static str,
}

/// One timed phase of a control-plane scale run.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlPhase {
    /// Phase name: `admit`, `renew` or `clear`.
    pub phase: &'static str,
    /// Logical operations (reservations admitted / renewed, auctions
    /// settled).
    pub ops: u64,
    /// Ledger transactions committed during the phase.
    pub txs: u64,
    /// Host wall-clock for the phase, milliseconds.
    pub wall_ms: f64,
    /// Operations per wall-clock second — the throughput trend.
    pub ops_per_sec: f64,
}

/// End-of-run ledger and allocator state.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlState {
    /// Committed objects after the run.
    pub ledger_objects: u64,
    /// Committed payload bytes after the run.
    pub ledger_bytes: u64,
    /// `ledger_bytes / reservations` — the per-reservation footprint.
    pub bytes_per_reservation: f64,
    /// Transactions committed in total.
    pub ledger_txs: u64,
    /// Highest ResID in use on the admission interface.
    pub res_id_high_water: u64,
    /// Max/min active reservations across shards (1.0 = balanced).
    pub shard_skew: f64,
}

/// The hard invariants a control-plane scale run must uphold; the
/// binary exits nonzero when any is `false`.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlInvariants {
    /// Σ granted bandwidth×time equals Σ issued bandwidth×time.
    pub bandwidth_time_conserved: bool,
    /// Minted MIST equals remaining supply plus burned gas, exactly.
    pub coin_supply_conserved: bool,
    /// `shard_skew` within the 1.1 steering bound.
    pub shard_skew_ok: bool,
    /// Sampled renewal deliveries unwrap to the border-router `A_K`.
    pub renewal_keys_ok: bool,
    /// No MIST left in any auction escrow after clearing.
    pub auction_escrows_drained: bool,
}

impl ControlInvariants {
    /// Whether every invariant held.
    pub fn all_ok(&self) -> bool {
        self.bandwidth_time_conserved
            && self.coin_supply_conserved
            && self.shard_skew_ok
            && self.renewal_keys_ok
            && self.auction_escrows_drained
    }
}

/// Serializes a control-plane scale run to the `BENCH_control.json`
/// schema.
pub fn control_json(
    meta: &ControlMeta,
    phases: &[ControlPhase],
    state: &ControlState,
    invariants: &ControlInvariants,
) -> String {
    let mut out = String::with_capacity(512 + phases.len() * 128);
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"bench\": \"control\",\n");
    out.push_str(&format!("  \"seed\": {},\n", meta.seed));
    out.push_str(&format!("  \"reservations\": {},\n", meta.reservations));
    out.push_str(&format!("  \"shards\": {},\n", meta.shards));
    out.push_str(&format!("  \"auctions\": {},\n", meta.auctions));
    out.push_str(&format!("  \"aes_backend\": \"{}\",\n", meta.aes_backend));
    out.push_str(&format!("  \"sha_backend\": \"{}\",\n", meta.sha_backend));
    out.push_str("  \"phases\": [");
    for (i, p) in phases.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"phase\": \"{}\", \"ops\": {}, \"txs\": {}, \"wall_ms\": {}, \
             \"ops_per_sec\": {}}}",
            p.phase,
            p.ops,
            p.txs,
            num(p.wall_ms),
            num(p.ops_per_sec),
        ));
    }
    out.push_str("\n  ],\n");
    out.push_str(&format!(
        "  \"state\": {{\"ledger_objects\": {}, \"ledger_bytes\": {}, \
         \"bytes_per_reservation\": {}, \"ledger_txs\": {}, \"res_id_high_water\": {}, \
         \"shard_skew\": {}}},\n",
        state.ledger_objects,
        state.ledger_bytes,
        num(state.bytes_per_reservation),
        state.ledger_txs,
        state.res_id_high_water,
        num(state.shard_skew),
    ));
    out.push_str(&format!(
        "  \"invariants\": {{\"bandwidth_time_conserved\": {}, \"coin_supply_conserved\": {}, \
         \"shard_skew_ok\": {}, \"renewal_keys_ok\": {}, \"auction_escrows_drained\": {}}}\n",
        invariants.bandwidth_time_conserved,
        invariants.coin_supply_conserved,
        invariants.shard_skew_ok,
        invariants.renewal_keys_ok,
        invariants.auction_escrows_drained,
    ));
    out.push_str("}\n");
    out
}

/// Writes the control-plane document to `path` (truncate + write, like
/// [`write_hotpath_json`]).
pub fn write_control_json(
    path: &str,
    meta: &ControlMeta,
    phases: &[ControlPhase],
    state: &ControlState,
    invariants: &ControlInvariants,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(control_json(meta, phases, state, invariants).as_bytes())
}

/// Run-wide configuration stamped into the testbed document head.
#[derive(Clone, Debug, PartialEq)]
pub struct TestbedMeta {
    /// Border routers in the chain.
    pub routers: usize,
    /// Engine shards per router.
    pub shards: usize,
    /// Datagrams the gateway sends per run.
    pub pkts_per_run: u64,
    /// L4 payload bytes per packet.
    pub payload_b: usize,
    /// Credit window per link, in data frames.
    pub window: usize,
    /// Sender wait strategy: `busy`, `yield:<n>`, or `backoff`.
    pub wait: String,
}

/// One traffic class of one testbed run.
#[derive(Clone, Debug, PartialEq)]
pub struct TestbedClass {
    /// `reserved` or `best_effort`.
    pub class: &'static str,
    /// Gateway datagrams in this class.
    pub sent: u64,
    /// Sink datagrams in this class.
    pub delivered: u64,
    /// Engine-verdict drops along the chain.
    pub engine_drops: u64,
    /// Delivered payload rate over the sink window, Mbit/s.
    pub goodput_mbps: f64,
    /// End-to-end latency percentiles, microseconds (log2-bucketed
    /// upper bounds from the dataplane `LatencyHistogram`).
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// 99.9th percentile, microseconds.
    pub p999_us: f64,
}

/// One (family, mix) testbed run (the `BENCH_testbed.json` record;
/// schema in the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct TestbedRecord {
    /// Engine family name (`EngineFamily::name`).
    pub family: &'static str,
    /// Traffic mix name (`TrafficMix::name`).
    pub mix: &'static str,
    /// Gateway datagrams sent.
    pub sent: u64,
    /// Sink datagrams delivered.
    pub delivered: u64,
    /// Engine-verdict drops along the chain.
    pub engine_drops: u64,
    /// Structurally invalid datagrams (must be 0 on a green run).
    pub parse_drops: u64,
    /// Sink measurement window (first delivery → FIN), milliseconds.
    pub wall_ms: f64,
    /// Exact conservation held globally and per flow/class.
    pub conserved: bool,
    /// Per-class breakdown: reserved, then best_effort.
    pub classes: Vec<TestbedClass>,
}

/// Serializes `records` to the `BENCH_testbed.json` schema.
pub fn testbed_json(meta: &TestbedMeta, records: &[TestbedRecord]) -> String {
    let mut out = String::with_capacity(512 + records.len() * 512);
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"bench\": \"testbed\",\n");
    out.push_str(&format!("  \"routers\": {},\n", meta.routers));
    out.push_str(&format!("  \"shards\": {},\n", meta.shards));
    out.push_str(&format!("  \"pkts_per_run\": {},\n", meta.pkts_per_run));
    out.push_str(&format!("  \"payload_b\": {},\n", meta.payload_b));
    out.push_str(&format!("  \"window\": {},\n", meta.window));
    out.push_str(&format!("  \"wait\": \"{}\",\n", meta.wait));
    out.push_str("  \"records\": [");
    for (i, r) in records.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&format!(
            "    {{\"family\": \"{}\", \"mix\": \"{}\", \"sent\": {}, \"delivered\": {}, \
             \"engine_drops\": {}, \"parse_drops\": {}, \"wall_ms\": {}, \"conserved\": {}, \
             \"classes\": [",
            r.family,
            r.mix,
            r.sent,
            r.delivered,
            r.engine_drops,
            r.parse_drops,
            num(r.wall_ms),
            r.conserved,
        ));
        for (j, c) in r.classes.iter().enumerate() {
            out.push_str(if j == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "      {{\"class\": \"{}\", \"sent\": {}, \"delivered\": {}, \
                 \"engine_drops\": {}, \"goodput_mbps\": {}, \"p50_us\": {}, \"p95_us\": {}, \
                 \"p99_us\": {}, \"p999_us\": {}}}",
                c.class,
                c.sent,
                c.delivered,
                c.engine_drops,
                num(c.goodput_mbps),
                num(c.p50_us),
                num(c.p95_us),
                num(c.p99_us),
                num(c.p999_us),
            ));
        }
        out.push_str("\n    ]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Writes the testbed document to `path` (truncate + write, like
/// [`write_hotpath_json`]).
pub fn write_testbed_json(
    path: &str,
    meta: &TestbedMeta,
    records: &[TestbedRecord],
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(testbed_json(meta, records).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> HotpathMeta {
        HotpathMeta { aes_backend: "ni", hardware_threads: 8, batch: 32 }
    }

    #[test]
    fn float_writer_rejects_non_finite_values() {
        // Every float in every schema funnels through `num`: non-finite
        // values must never reach the document as raw `NaN`/`inf` (which
        // is invalid JSON) — they degrade to `null`, which consumers
        // reject explicitly.
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        // Finite values serialize as plain decimals.
        assert_eq!(num(0.0), "0.000");
        assert_eq!(num(308.25), "308.250");
        assert_eq!(num(-1.5), "-1.500");
    }

    #[test]
    fn hotpath_reader_reads_what_the_writer_writes() {
        let rec = |engine, mode, cores, ns_per_pkt| BenchRecord {
            engine,
            mode,
            cores,
            payload_b: 500,
            ns_per_pkt,
            mpps: 1.0,
        };
        let records = [
            rec("helia", "clone", 1, 100.0),
            rec("helia", "clone", 1, 201.0),
            rec("helia", "clone", 1, f64::NAN), // written as null: skipped
            rec("helia", "clone", 16, 9_999.0), // "cores": 16 is not "cores": 1
            rec("helia", "sharded", 1, 9_999.0),
            rec("epic", "clone", 1, 700.4),
        ];
        let doc = hotpath_json(&meta(), &records, &[]);
        assert_eq!(hotpath_clone_1core_ns(&doc, "helia"), Some(151), "mean of 100 and 201");
        assert_eq!(hotpath_clone_1core_ns(&doc, "epic"), Some(700));
        assert_eq!(hotpath_clone_1core_ns(&doc, "drkey"), None, "no record, no calibration");

        // The checked-in trajectory file is read by the same function.
        // It was recorded with `--engine null,hummingbird`, so that
        // family calibrates and any family without clone/1-core rows
        // falls back to the hand-set cost.
        let checked_in = include_str!("../../../BENCH_hotpath.json");
        assert!(hotpath_clone_1core_ns(checked_in, "hummingbird").is_some_and(|ns| ns > 0));
        for family in hummingbird_baselines::EngineFamily::ALL {
            let recorded = checked_in.contains(&format!(
                "\"engine\": \"{}\", \"mode\": \"clone\", \"cores\": 1,",
                family.name()
            ));
            let parsed = hotpath_clone_1core_ns(checked_in, family.name());
            assert_eq!(parsed.is_some(), recorded, "{}", family.name());
        }
    }

    #[test]
    fn schema_shape_is_stable() {
        let records = [
            BenchRecord {
                engine: "hummingbird",
                mode: "clone",
                cores: 1,
                payload_b: 500,
                ns_per_pkt: 308.25,
                mpps: 3.2446,
            },
            BenchRecord {
                engine: "scion",
                mode: "sharded",
                cores: 4,
                payload_b: 100,
                ns_per_pkt: 123.0,
                mpps: f64::NAN,
            },
        ];
        let scaling = [ScalingCurve {
            engine: "null",
            mode: "sharded",
            points: vec![
                ScalingPoint { cores: 1, mpps: 9.31, speedup: 1.0, exec: "threaded" },
                ScalingPoint {
                    cores: 2,
                    mpps: 18.1004,
                    speedup: f64::INFINITY,
                    exec: "sequential",
                },
            ],
        }];
        let doc = hotpath_json(&meta(), &records, &scaling);
        // The head is exactly these five fields, in this order.
        assert!(doc.starts_with(
            "{\n  \"schema\": 4,\n  \"bench\": \"hotpath\",\n  \"aes_backend\": \"ni\",\n  \
             \"hardware_threads\": 8,\n  \"batch\": 32,\n  \"records\": ["
        ));
        assert!(doc.contains(
            "{\"engine\": \"hummingbird\", \"mode\": \"clone\", \"cores\": 1, \
             \"payload_b\": 500, \"ns_per_pkt\": 308.250, \"mpps\": 3.245}"
        ));
        assert!(doc.contains("{\"engine\": \"null\", \"mode\": \"sharded\", \"curve\": ["));
        assert!(doc.contains(
            "{\"cores\": 2, \"mpps\": 18.100, \"speedup\": null, \"exec\": \"sequential\"}"
        ));
        // Non-finite values degrade to null (rejectable), never NaN/inf.
        assert!(doc.contains("\"mpps\": null"));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn empty_record_set_is_valid() {
        let doc = hotpath_json(&meta(), &[], &[]);
        assert!(doc.contains("\"records\": [\n  ],"));
        assert!(doc.contains("\"scaling\": [\n  ]"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn netsim_schema_shape_is_stable() {
        let records = [NetsimRecord {
            family: "hummingbird",
            shards: 1,
            routers: 100,
            adjacencies: 131,
            flows: 258,
            events: 5_922_331,
            wall_ms: 812.4019,
            events_per_sec: 7_289_456.7,
            recovery_delivery: 0.9734,
            recovery_ms: f64::INFINITY,
            link_failures: 3,
            rerouted: 2,
            stranded: 0,
        }];
        let doc = netsim_json(0xC0FFEE, 3, &records);
        assert!(doc.starts_with("{\n  \"schema\": 1,\n  \"bench\": \"netsim\","));
        assert!(doc.contains("\"seed\": 12648430"));
        assert!(doc.contains("\"sim_s\": 3"));
        assert!(doc.contains(
            "{\"family\": \"hummingbird\", \"shards\": 1, \"routers\": 100, \
             \"adjacencies\": 131, \"flows\": 258, \"events\": 5922331, \
             \"wall_ms\": 812.402, \"events_per_sec\": 7289456.700, \
             \"recovery_delivery\": 0.973, \"recovery_ms\": null, \
             \"link_failures\": 3, \"rerouted\": 2, \"stranded\": 0}"
        ));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        // Empty sweeps still serialize.
        assert!(netsim_json(1, 1, &[]).contains("\"records\": [\n  ]"));
    }

    #[test]
    fn overload_schema_shape_is_stable() {
        let records = [OverloadRecord {
            family: "hummingbird",
            shards: 1,
            offered_kbps: 16_000,
            reserved_delivery: 1.0,
            reserved_goodput_kbps: 2230.11,
            reserved_p99_ms: 8.3886,
            be_delivery: 0.9455,
            be_goodput_kbps: 6395.249,
            be_p99_ms: f64::NAN,
            retransmits: 114,
            timeouts: 116,
            stalls: 1950,
            queue_drops: 116,
            service_queue_drops: 0,
            completed: true,
        }];
        let saturation = [OverloadSaturation {
            family: "hummingbird",
            shards: 1,
            saturation_kbps: 8_000,
            post_goodput_kbps: 6953.2,
            reserved_held: true,
        }];
        let doc = overload_json(2000, true, &records, &saturation);
        assert!(doc.starts_with("{\n  \"schema\": 1,\n  \"bench\": \"overload\","));
        assert!(doc.contains("\"pkts_cap\": 2000"));
        assert!(doc.contains("\"service_calibrated\": true"));
        assert!(doc.contains(
            "{\"family\": \"hummingbird\", \"shards\": 1, \"offered_kbps\": 16000, \
             \"reserved_delivery\": 1.000, \"reserved_goodput_kbps\": 2230.110, \
             \"reserved_p99_ms\": 8.389, \"be_delivery\": 0.946, \
             \"be_goodput_kbps\": 6395.249, \"be_p99_ms\": null, \
             \"retransmits\": 114, \"timeouts\": 116, \"stalls\": 1950, \"queue_drops\": 116, \
             \"service_queue_drops\": 0, \"completed\": true}"
        ));
        assert!(doc.contains(
            "{\"family\": \"hummingbird\", \"shards\": 1, \"saturation_kbps\": 8000, \
             \"post_goodput_kbps\": 6953.200, \"reserved_held\": true}"
        ));
        // Non-finite floats degrade to null; booleans are bare.
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        // Empty sweeps still serialize.
        let empty = overload_json(0, false, &[], &[]);
        assert!(empty.contains("\"records\": [\n  ],"));
        assert!(empty.contains("\"saturation\": [\n  ]"));
    }

    #[test]
    fn control_schema_shape_is_stable() {
        let meta = ControlMeta {
            seed: 7,
            reservations: 1_000_000,
            shards: 8,
            auctions: 256,
            aes_backend: "ni",
            sha_backend: "soft",
        };
        let phases = vec![
            ControlPhase {
                phase: "admit",
                ops: 1_000_000,
                txs: 4_000_000,
                wall_ms: 31250.5,
                ops_per_sec: 32000.0512,
            },
            ControlPhase {
                phase: "renew",
                ops: 1_000_000,
                txs: 1_000_128,
                wall_ms: f64::NAN,
                ops_per_sec: f64::INFINITY,
            },
        ];
        let state = ControlState {
            ledger_objects: 2_000_345,
            ledger_bytes: 312_000_000,
            bytes_per_reservation: 312.0,
            ledger_txs: 6_000_123,
            res_id_high_water: 999_999,
            shard_skew: 1.0004,
        };
        let invariants = ControlInvariants {
            bandwidth_time_conserved: true,
            coin_supply_conserved: true,
            shard_skew_ok: true,
            renewal_keys_ok: true,
            auction_escrows_drained: false,
        };
        assert!(!invariants.all_ok());
        let doc = control_json(&meta, &phases, &state, &invariants);
        assert!(doc.starts_with("{\n  \"schema\": 1,\n  \"bench\": \"control\","));
        assert!(doc.contains("\"seed\": 7"));
        assert!(doc.contains("\"reservations\": 1000000"));
        assert!(doc.contains("\"shards\": 8"));
        assert!(doc.contains(
            "\"auctions\": 256,\n  \"aes_backend\": \"ni\",\n  \"sha_backend\": \"soft\","
        ));
        assert!(doc.contains(
            "{\"phase\": \"admit\", \"ops\": 1000000, \"txs\": 4000000, \
             \"wall_ms\": 31250.500, \"ops_per_sec\": 32000.051}"
        ));
        // Non-finite floats degrade to null.
        assert!(doc.contains(
            "{\"phase\": \"renew\", \"ops\": 1000000, \"txs\": 1000128, \
             \"wall_ms\": null, \"ops_per_sec\": null}"
        ));
        assert!(doc.contains(
            "\"state\": {\"ledger_objects\": 2000345, \"ledger_bytes\": 312000000, \
             \"bytes_per_reservation\": 312.000, \"ledger_txs\": 6000123, \
             \"res_id_high_water\": 999999, \"shard_skew\": 1.000}"
        ));
        assert!(doc.contains(
            "\"invariants\": {\"bandwidth_time_conserved\": true, \
             \"coin_supply_conserved\": true, \"shard_skew_ok\": true, \
             \"renewal_keys_ok\": true, \"auction_escrows_drained\": false}"
        ));
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        // A run with no phases still serializes.
        let all_ok = ControlInvariants { auction_escrows_drained: true, ..invariants };
        assert!(all_ok.all_ok());
        let empty = control_json(&meta, &[], &state, &all_ok);
        assert!(empty.contains("\"phases\": [\n  ],"));
        assert_eq!(empty.matches('{').count(), empty.matches('}').count());
    }

    #[test]
    fn testbed_schema_shape_is_stable() {
        let meta = TestbedMeta {
            routers: 3,
            shards: 1,
            pkts_per_run: 1_000_000,
            payload_b: 200,
            window: 64,
            wait: "backoff".to_string(),
        };
        let records = [TestbedRecord {
            family: "hummingbird",
            mix: "cbr",
            sent: 1_000_000,
            delivered: 1_000_000,
            engine_drops: 0,
            parse_drops: 0,
            wall_ms: 9210.4189,
            conserved: true,
            classes: vec![
                TestbedClass {
                    class: "reserved",
                    sent: 500_000,
                    delivered: 500_000,
                    engine_drops: 0,
                    goodput_mbps: 78.0912,
                    p50_us: 127.0,
                    p95_us: 255.0,
                    p99_us: 511.0,
                    p999_us: f64::NAN,
                },
                TestbedClass {
                    class: "best_effort",
                    sent: 500_000,
                    delivered: 500_000,
                    engine_drops: 0,
                    goodput_mbps: 77.5,
                    p50_us: 127.0,
                    p95_us: 255.0,
                    p99_us: 511.0,
                    p999_us: 1023.0,
                },
            ],
        }];
        let doc = testbed_json(&meta, &records);
        assert!(doc.starts_with("{\n  \"schema\": 1,\n  \"bench\": \"testbed\","));
        assert!(doc.contains("\"routers\": 3"));
        assert!(doc.contains("\"pkts_per_run\": 1000000"));
        assert!(doc.contains("\"window\": 64"));
        assert!(doc.contains("\"wait\": \"backoff\""));
        assert!(doc.contains(
            "{\"family\": \"hummingbird\", \"mix\": \"cbr\", \"sent\": 1000000, \
             \"delivered\": 1000000, \"engine_drops\": 0, \"parse_drops\": 0, \
             \"wall_ms\": 9210.419, \"conserved\": true, \"classes\": ["
        ));
        assert!(doc.contains(
            "{\"class\": \"reserved\", \"sent\": 500000, \"delivered\": 500000, \
             \"engine_drops\": 0, \"goodput_mbps\": 78.091, \"p50_us\": 127.000, \
             \"p95_us\": 255.000, \"p99_us\": 511.000, \"p999_us\": null}"
        ));
        assert!(doc.contains("\"class\": \"best_effort\""));
        // Non-finite floats degrade to null; booleans are bare.
        assert!(!doc.contains("NaN") && !doc.contains("inf"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        // An empty run set still serializes.
        let empty = testbed_json(&meta, &[]);
        assert!(empty.contains("\"records\": [\n  ]"));
        assert_eq!(empty.matches('{').count(), empty.matches('}').count());
    }
}
