//! Layer sweeps of the traced run: each per-packet public function is
//! timed as a whole sweep over the workload's own packet set — one
//! span per sweep, never one clock read per 20 ns call — and the
//! span's self time divided by its calls is the layer's metric.

use crate::metrics::Layers;
use crate::router::RouterWorld;
use crate::trace::{layer_times, Recorder};
use crate::workload::{EPOCH_MS, EPOCH_NS, EPOCH_S};
use hummingbird_crypto::{flyover_tags_batch_with, AuthKey, AuthKeyCache, FlyoverMacInput, Tag};
use hummingbird_dataplane::router::stages::{self, FlyoverInputs, HopKind, Parsed};
use hummingbird_dataplane::runtime::{SpscRing, TxScheduler};
use hummingbird_dataplane::{
    run_to_completion, Datapath, EgressConfig, NullEngine, PacketBuf, Policer, RouterConfig,
    RuntimeConfig, RuntimeMode, ShardMap, Verdict, BATCH_SIZE,
};
use hummingbird_netsim::{EngineFamily, LinearTopology, LinkSpec};
use hummingbird_wire::{bwcls, IsdAs, PacketView};
use std::hint::black_box;
use std::time::Instant;

/// Span name → the metric its self time per call becomes.
pub const SPAN_METRICS: [(&str, &str); 39] = [
    ("crypto.derive_key", "crypto.derive_key_ns"),
    ("crypto.flyover_mac", "crypto.flyover_mac_ns"),
    ("crypto.derive_keys_batch", "crypto.derive_keys_batch_ns_per_key"),
    ("crypto.flyover_tags_batch", "crypto.flyover_tags_batch_ns_per_tag"),
    ("crypto.sig_sign", "crypto.sig_sign_ns"),
    ("crypto.sig_verify", "crypto.sig_verify_ns"),
    ("crypto.sealed_open", "crypto.sealed_open_ns"),
    ("wire.new_checked", "wire.new_checked_ns"),
    ("source.generate", "source.generate_ns"),
    ("router.parse", "router.parse_ns"),
    ("router.flyover_inputs", "router.flyover_inputs_ns"),
    ("router.freshness", "router.freshness_ns"),
    ("router.verify_hop_mac", "router.verify_hop_mac_ns"),
    ("router.advance", "router.advance_ns"),
    ("policing.check", "policing.check_ns"),
    ("router.process", "router.process_ns"),
    ("router.process_batch", "router.process_batch_ns_per_pkt"),
    ("ring.push_pop_burst", "ring.push_pop_burst_ns"),
    ("shard.shard_of", "shard.shard_of_ns"),
    ("egress.stage", "egress.stage_ns"),
    ("egress.transmit", "egress.transmit_ns_per_pkt"),
    ("baselines.helia", "baselines.helia_ns_per_pkt"),
    ("baselines.drkey", "baselines.drkey_ns_per_pkt"),
    ("baselines.epic", "baselines.epic_ns_per_pkt"),
    ("testbed.udp_hop_floor", "testbed.udp_hop_floor_ns"),
    ("ledger.execute", "ledger.execute_ns_per_tx"),
    ("control.issue_asset", "control.issue_asset_ns"),
    ("control.create_listing", "control.create_listing_ns"),
    ("control.buy_and_redeem", "control.buy_and_redeem_ns"),
    ("control.process_requests", "control.process_requests_ns_per_op"),
    ("control.collect_deliveries", "control.collect_deliveries_ns_per_op"),
    ("control.sweep", "control.sweep_ns_per_op"),
    ("control.request_renewals", "control.request_renewals_ns_per_op"),
    ("control.process_renewals", "control.process_renewals_ns_per_op"),
    ("control.create_auction", "control.create_auction_ns"),
    ("control.commit_bid", "control.commit_bid_ns"),
    ("control.reveal_bid", "control.reveal_bid_ns"),
    ("control.clear_epoch", "control.clear_epoch_ns_per_auction"),
    ("coloring.assign", "coloring.assign_ns"),
];

/// Sets every span-derived metric from the spans recorded so far.
pub fn apply_span_metrics(rec: &Recorder, out: &mut Layers) {
    let times = layer_times(rec.spans());
    for (span, metric) in SPAN_METRICS {
        if let Some(t) = times.get(span) {
            out.set(metric, t.ns_per_call);
        }
    }
}

/// Records `passes` spans named `name`, each one pass of `calls` calls.
fn sweep(
    rec: &mut Recorder,
    name: &'static str,
    passes: usize,
    calls: usize,
    mut pass: impl FnMut(),
) {
    for p in 0..passes {
        rec.span(name, p as u64, calls as u64, |_| pass());
    }
}

/// What stage sweeps learn about one packet.
struct Staged {
    parsed: Parsed,
    /// Flyover hops only: MAC inputs, the derived key and its tag.
    flyover: Option<(FlyoverInputs, AuthKey, Tag)>,
    /// The hop-field MAC candidate the earlier stages hand to
    /// verification.
    candidate: Tag,
}

/// The border router's stages, one sweep each over `pkts` (`passes`
/// passes, one span a pass), then the engine's two entry points on the
/// same packets and the accounting row
/// `stages + residual = engine ns/pkt`.
pub fn engine_sweeps(
    world: &RouterWorld,
    pkts: &[Vec<u8>],
    passes: usize,
    rec: &mut Recorder,
    out: &mut Layers,
) {
    let cfg = RouterConfig::default();
    let (sv, hop_key) = (world.sv0(), world.hop_key0());

    sweep(rec, "wire.new_checked", passes, pkts.len(), || {
        for p in pkts {
            let len = PacketView::new_checked(black_box(&p[..])).and_then(|v| v.wire_len());
            black_box(len.ok() == Some(p.len()));
        }
    });
    sweep(rec, "router.parse", passes, pkts.len(), || {
        for p in pkts {
            let _ = black_box(stages::parse(black_box(p)));
        }
    });

    // Untimed: collect what the later stages take as input. Packets the
    // parser rejects have no later stages.
    let staged: Vec<Option<Staged>> = pkts
        .iter()
        .map(|p| {
            let parsed = stages::parse(p).ok()?;
            let flyover = match stages::flyover_inputs(&parsed) {
                Ok(inputs) if parsed.is_flyover() => {
                    let key = sv.derive_key(&inputs.res_info);
                    let tag = key.flyover_mac(&inputs.mac_input);
                    Some((inputs, key, tag))
                }
                _ => None,
            };
            let candidate = match (&flyover, parsed.hop) {
                (Some((inputs, key, _)), _) => stages::candidate_hop_mac(key, inputs),
                (None, HopKind::Plain(hf)) => hf.mac,
                (None, HopKind::Flyover(f)) => f.agg_mac,
            };
            Some(Staged { parsed, flyover, candidate })
        })
        .collect();
    let flyovers: Vec<(&Parsed, &FlyoverInputs, &AuthKey)> = staged
        .iter()
        .flatten()
        .filter_map(|s| s.flyover.as_ref().map(|(i, k, _)| (&s.parsed, i, k)))
        .collect();
    let nf = flyovers.len();

    sweep(rec, "router.flyover_inputs", passes, nf, || {
        for (parsed, ..) in &flyovers {
            let _ = black_box(stages::flyover_inputs(black_box(parsed)));
        }
    });
    sweep(rec, "crypto.derive_key", passes, nf, || {
        for (_, inputs, _) in &flyovers {
            black_box(sv.derive_key(black_box(&inputs.res_info)));
        }
    });
    sweep(rec, "crypto.flyover_mac", passes, nf, || {
        for (_, inputs, key) in &flyovers {
            black_box(key.flyover_mac(black_box(&inputs.mac_input)));
        }
    });
    // The burst-sized sweeps the batch path uses.
    let infos: Vec<_> = flyovers.iter().map(|(_, i, _)| i.res_info).collect();
    let mac_inputs: Vec<FlyoverMacInput> = flyovers.iter().map(|(_, i, _)| i.mac_input).collect();
    let (mut blocks, mut keys_out, mut tags_out) = (Vec::new(), Vec::new(), Vec::new());
    sweep(rec, "crypto.derive_keys_batch", passes, nf, || {
        for chunk in infos.chunks(BATCH_SIZE) {
            keys_out.clear();
            sv.derive_keys_batch(black_box(chunk), &mut blocks, &mut keys_out);
            black_box(&keys_out);
        }
    });
    sweep(rec, "crypto.flyover_tags_batch", passes, nf, || {
        for (c, chunk) in mac_inputs.chunks(BATCH_SIZE).enumerate() {
            tags_out.clear();
            let base = c * BATCH_SIZE;
            flyover_tags_batch_with(|i| flyovers[base + i].2, chunk, &mut blocks, &mut tags_out);
            black_box(&tags_out);
        }
    });
    sweep(rec, "router.freshness", passes, nf, || {
        for (parsed, inputs, _) in &flyovers {
            black_box(stages::freshness(&cfg, parsed, black_box(&inputs.res_info), EPOCH_MS));
        }
    });

    // Hop-field verification runs on every parsed packet, with the
    // candidate MAC the earlier stages produced.
    let parsed_pkts: Vec<&Staged> = staged.iter().flatten().collect();
    sweep(rec, "router.verify_hop_mac", passes, parsed_pkts.len(), || {
        for s in &parsed_pkts {
            let _ = black_box(stages::verify_hop_mac(
                hop_key,
                &s.parsed,
                black_box(&s.candidate),
                EPOCH_S,
            ));
        }
    });

    // Header mutation, on copies of the packets that verify.
    let mut verified: Vec<(Vec<u8>, &Parsed, Tag)> = pkts
        .iter()
        .zip(&staged)
        .filter_map(|(p, s)| {
            let s = s.as_ref()?;
            let computed =
                stages::verify_hop_mac(hop_key, &s.parsed, &s.candidate, EPOCH_S).ok()?;
            Some((p.clone(), &s.parsed, computed))
        })
        .collect();
    let nv = verified.len();
    sweep(rec, "router.advance", passes, nv, || {
        for (buf, parsed, computed) in verified.iter_mut() {
            let _ = black_box(stages::advance(buf, parsed, computed));
        }
    });

    let mut policer = Policer::new(cfg.policer_slots, cfg.burst_time_ns);
    sweep(rec, "policing.check", passes, nf, || {
        for (_, inputs, _) in &flyovers {
            let bw = bwcls::decode(inputs.res_info.bw_encoded);
            black_box(policer.check(inputs.res_info.res_id, bw, inputs.pkt_len, EPOCH_NS));
        }
    });

    // The engine's entry points on the same packets: `process` (what a
    // socket node calls per datagram) and `process_batch` in bursts.
    let mut router = world.router();
    let mut copies: Vec<Vec<u8>> = pkts.to_vec();
    for pass in 0..passes {
        for (c, p) in copies.iter_mut().zip(pkts) {
            c.copy_from_slice(p);
        }
        rec.span("router.process", pass as u64, pkts.len() as u64, |_| {
            for c in copies.iter_mut() {
                black_box(router.process(c, EPOCH_NS));
            }
        });
    }
    let mut router = world.router();
    let mut bufs: Vec<PacketBuf> = pkts.iter().cloned().map(PacketBuf::new).collect();
    let mut verdicts: Vec<Verdict> = Vec::with_capacity(BATCH_SIZE);
    for pass in 0..passes {
        for b in bufs.iter_mut() {
            b.reset();
        }
        rec.span("router.process_batch", pass as u64, pkts.len() as u64, |_| {
            for burst in bufs.chunks_mut(BATCH_SIZE) {
                verdicts.clear();
                router.process_batch(burst, EPOCH_NS, &mut verdicts);
                black_box(&verdicts);
            }
        });
    }
    let stats = router.stats();
    let processed = stats.processed.max(1) as f64;
    out.set("router.drop_share", stats.dropped as f64 / processed);
    out.set(
        "router.demoted_share",
        (stats.demoted_overuse + stats.demoted_untimely) as f64 / processed,
    );

    // Key-cache behaviour of this packet sequence: replay its ResInfo
    // sequence through a default-size cache and count the steady-state
    // pass.
    let mut cache: AuthKeyCache = AuthKeyCache::new(cfg.auth_key_cache_slots as usize);
    for (_, inputs, key) in &flyovers {
        cache.get_or_derive(&inputs.res_info, || (*key).clone());
    }
    cache.reset_counters();
    for (_, inputs, key) in &flyovers {
        cache.get_or_derive(&inputs.res_info, || (*key).clone());
    }
    let lookups = (cache.hits() + cache.misses()).max(1) as f64;
    let hit_share = cache.hits() as f64 / lookups;
    out.set("crypto.key_cache_hit_share", hit_share);

    // Accounting row 1: stages + residual = engine ns/pkt. A stage that
    // only some packets reach counts for that share of the packets; key
    // derivation counts only for the share that misses the cache.
    apply_span_metrics(rec, out);
    let share = |n: usize| n as f64 / pkts.len() as f64;
    let stage_sum = out.get("router.parse_ns")
        + share(nf)
            * (out.get("router.flyover_inputs_ns")
                + out.get("crypto.derive_keys_batch_ns_per_key") * (1.0 - hit_share)
                + out.get("crypto.flyover_tags_batch_ns_per_tag")
                + out.get("router.freshness_ns")
                + out.get("policing.check_ns"))
        + share(parsed_pkts.len()) * out.get("router.verify_hop_mac_ns")
        + share(nv) * out.get("router.advance_ns");
    let engine = out.get("router.process_batch_ns_per_pkt");
    out.set("account.engine_stage_sum_ns", stage_sum);
    out.set("account.engine_ns_per_pkt", engine);
    out.set("router.residual_ns", engine - stage_sum);
    out.set("account.engine_residual_share", (engine - stage_sum) / engine.max(1e-9));
}

/// Packets per baseline sweep.
const BASELINE_PKTS: usize = 4_096;
/// Passes of a sweep whose length the workload does not set: one span
/// each, so a pass a neighbour disturbed does not set the metric.
pub const SWEEP_PASSES: usize = 8;

/// Informational: the three baseline engine families on their own
/// valid packets, same burst sweep as the router's.
pub fn baseline_sweeps(rec: &mut Recorder, out: &mut Layers) {
    let cfg = RouterConfig::default();
    for (family, span) in [
        (EngineFamily::Helia, "baselines.helia"),
        (EngineFamily::Drkey, "baselines.drkey"),
        (EngineFamily::Epic, "baselines.epic"),
    ] {
        let mut topo = LinearTopology::build(2, LinkSpec::default(), EPOCH_NS, cfg);
        let src = IsdAs::new(1, 0x77);
        let mut generator = topo.make_generator(src, IsdAs::new(2, 0xB));
        for hop in 0..2 {
            let cred = topo.make_family_credential(family, hop, src, 10_000_000, EPOCH_S);
            generator.attach_reservation(hop, cred).expect("interfaces match");
        }
        let payload = [0u8; 100];
        // Distinct packets, each processed once: EPIC suppresses replays.
        let mut bufs: Vec<PacketBuf> = (0..BASELINE_PKTS)
            .map(|i| {
                let at = EPOCH_MS + (i / 4096) as u64;
                PacketBuf::new(generator.generate(&payload, at).expect("generation"))
            })
            .collect();
        let mut verdicts: Vec<Verdict> = Vec::with_capacity(BATCH_SIZE);
        for pass in 0..SWEEP_PASSES {
            // A fresh engine every pass: EPIC would call the second
            // pass's packets replays.
            let mut engine = topo.make_family_hop_engine(family, 0, cfg);
            for b in bufs.iter_mut() {
                b.reset();
            }
            let mut forwarded = 0usize;
            rec.span(span, pass as u64, BASELINE_PKTS as u64, |_| {
                for burst in bufs.chunks_mut(BATCH_SIZE) {
                    verdicts.clear();
                    engine.process_batch(burst, EPOCH_NS, &mut verdicts);
                    forwarded += verdicts.iter().filter(|v| !v.is_drop()).count();
                }
            });
            assert_eq!(forwarded, BASELINE_PKTS, "{span}: baseline packets must be valid");
        }
    }
    apply_span_metrics(rec, out);
}

/// The runtime's parts on the sharded workload's templates: ring,
/// steering, tx scheduler, the same configuration under `NullEngine`,
/// and the per-core-clone layout — then the accounting row
/// `clone + tax = sharded ns/pkt`.
pub fn runtime_sweeps(
    world: &RouterWorld,
    templates: &[Vec<u8>],
    cfg: &RuntimeConfig,
    unit_pkts: u64,
    rec: &mut Recorder,
    out: &mut Layers,
) {
    const ROUNDS: usize = 2_500;
    // Ring: one burst in, one burst out — the NIC-model hop.
    let ring: SpscRing<PacketBuf> = SpscRing::new(cfg.ring_capacity);
    let mut burst: Vec<PacketBuf> =
        templates.iter().take(BATCH_SIZE).cloned().map(PacketBuf::new).collect();
    sweep(rec, "ring.push_pop_burst", SWEEP_PASSES, ROUNDS, || {
        for _ in 0..ROUNDS {
            assert!(ring.push_burst(&mut burst), "an empty ring accepts a burst");
            ring.pop_burst(&mut burst);
        }
    });

    let map = ShardMap::new(cfg.shards, cfg.policer_slots, cfg.steering);
    sweep(rec, "shard.shard_of", 4 * SWEEP_PASSES, templates.len(), || {
        for t in templates {
            black_box(map.shard_of(black_box(t)));
        }
    });

    // Tx scheduler: stage a burst, then let the wire drain it.
    let mut sched = TxScheduler::new(&EgressConfig::default());
    let wire_len = templates[0].len();
    let burst_wire_ns = sched.tx_time_ns(wire_len) * BATCH_SIZE as u64;
    let mut now_ns = 0u64;
    for round in 0..(SWEEP_PASSES * ROUNDS) as u64 {
        rec.span("egress.stage", round, BATCH_SIZE as u64, |_| {
            for i in 0..BATCH_SIZE {
                let verdict = if i % 2 == 0 {
                    Verdict::Flyover { egress: 1 }
                } else {
                    Verdict::BestEffort { egress: 1 }
                };
                let _ = black_box(sched.stage(verdict, wire_len, now_ns));
            }
        });
        now_ns += burst_wire_ns;
        rec.span("egress.transmit", round, BATCH_SIZE as u64, |_| sched.transmit(now_ns));
    }
    sched.flush();

    // Whole-runtime comparisons on the same templates and packet count.
    // ns/pkt are per shard thread: wall × shards ÷ packets.
    // Each is the best of three runs.
    let per_pkt = |wall_s: f64| wall_s * 1e9 * cfg.shards as f64 / unit_pkts as f64;
    let timed = |mode: RuntimeMode, null: bool| {
        let once = || {
            let t0 = Instant::now();
            let report = if null {
                run_to_completion(cfg, mode, |_| NullEngine::new(), templates, unit_pkts, EPOCH_NS)
            } else {
                run_to_completion(cfg, mode, |_| world.router(), templates, unit_pkts, EPOCH_NS)
            };
            (t0.elapsed().as_secs_f64(), report)
        };
        let mut best = once();
        for _ in 0..2 {
            let next = once();
            if next.0 < best.0 {
                best = next;
            }
        }
        best
    };
    let (sharded_s, sharded) = timed(RuntimeMode::Sharded, false);
    let (clone_s, _) = timed(RuntimeMode::PerCoreClone, false);
    let (null_s, _) = timed(RuntimeMode::Sharded, true);
    out.set("runtime.sharded_ns_per_pkt", per_pkt(sharded_s));
    out.set("runtime.clone_ns_per_pkt", per_pkt(clone_s));
    out.set("runtime.null_floor_ns", per_pkt(null_s));
    out.set("runtime.tax_ns", per_pkt(sharded_s) - per_pkt(clone_s));
    let loads: Vec<u64> = sharded.per_shard.iter().map(|s| s.processed).collect();
    let (max, min) =
        (loads.iter().max().copied().unwrap_or(0), loads.iter().min().copied().unwrap_or(0));
    out.set("runtime.shard_skew", max as f64 / min.max(1) as f64);
    out.set("runtime.rx_backpressure_drops", sharded.rx_backpressure_drops as f64);
    if let Some(e) = sharded.egress {
        out.set("egress.tx_queue_full", e.tx_queue_full as f64);
        out.set(
            "egress.residence_p99_ns",
            e.priority.residence_p99_ns().max(e.best_effort.residence_p99_ns()) as f64,
        );
    }
    apply_span_metrics(rec, out);

    // Accounting row 2: clone + tax = sharded, by construction; what is
    // left to explain is how much of the tax the measured ring, steering
    // and tx-scheduler costs cover.
    let parts = out.get("ring.push_pop_burst_ns") / BATCH_SIZE as f64
        + out.get("egress.stage_ns")
        + out.get("egress.transmit_ns_per_pkt");
    let tax = out.get("runtime.tax_ns");
    out.set("account.runtime_residual_share", (tax - parts) / per_pkt(sharded_s).max(1e-9));
}
