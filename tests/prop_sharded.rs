//! Property tests for the sharded multi-queue runtime:
//!
//! 1. **ResID ownership** — a reservation's policer state never splits
//!    across shards: all traffic on one ResID (whatever its source,
//!    timestamps, or hash-collision-crafted siblings) lands on exactly
//!    one shard, so overuse demotion matches the single-engine count.
//! 2. **The runtime's contract** — in every layout `run_to_completion`
//!    has, no packet is lost or duplicated between rx and tx, the
//!    shards' counters are one engine's, and no count depends on how
//!    shards map onto threads.
//! 3. **Plain-packet steering** keeps one duplicate identity on one shard.
//! 4. **Simulator determinism** — one seed replays bit-identically.
//!
//! That a `ShardedRouter` of 1-5 shards under each engine family's own
//! steering gives the verdicts, bytes and counters of one router, through
//! `process` and `process_batch`, on valid, forged, replayed and over-rate
//! traffic, is checked against a reference by
//! `crates/baselines/tests/differential.rs`.

use hummingbird::dataplane::runtime::{
    run_to_completion, ExecMode, RuntimeConfig, RuntimeMode, RuntimeReport, ShardMap,
    ShardedRouter, Steering,
};
use hummingbird::dataplane::{
    forge_path, BackpressurePolicy, BeaconHop, BorderRouter, Datapath, DatapathStats, DropReason,
    PacketBuf, RouterConfig, SourceGenerator, SourceReservation, Verdict,
};
use hummingbird::{IsdAs, ResInfo, SecretValue};
use hummingbird_wire::scion_mac::HopMacKey;
use proptest::prelude::*;

const NOW_S: u64 = 1_700_000_096;
const NOW_MS: u64 = NOW_S * 1000;
const NOW_NS: u64 = NOW_S * 1_000_000_000;
const SLOTS: u32 = 100_000; // RouterConfig::default().policer_slots

fn hop_key() -> HopMacKey {
    HopMacKey::new([0x10; 16])
}

fn sv() -> SecretValue {
    SecretValue::new([0x60; 16])
}

fn make_engine(dup: bool) -> Box<dyn Datapath + Send> {
    let cfg = RouterConfig { duplicate_suppression: dup, ..RouterConfig::default() };
    Box::new(BorderRouter::new(sv(), hop_key(), cfg))
}

fn make_sharded(shards: usize, dup: bool) -> ShardedRouter {
    ShardedRouter::from_fn(shards, SLOTS, |_| make_engine(dup))
}

/// ResIDs spread across the slot space so contiguous shard ranges each
/// own some — including range-boundary IDs, the adversarial case for
/// ownership.
const RES_IDS: [u32; 6] = [1, 24_999, 25_000, 50_000, 75_001, 99_999];

/// A generator over a 1-hop path with a reservation on `res_id` at a
/// bandwidth class small enough that sustained traffic trips the policer.
fn generator(res_id: u32, bw_encoded: u16) -> SourceGenerator {
    let hops = vec![BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 0 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 0x1234);
    let mut generator = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    let res_info = ResInfo {
        ingress: 0,
        egress: 0,
        res_id,
        bw_encoded,
        res_start: NOW_S as u32 - 50,
        duration: 600,
    };
    let key = sv().derive_key(&res_info);
    generator.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
    generator
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ResID ownership: every packet of one reservation — across
    /// payloads, timestamps and source hosts — is processed by exactly
    /// one shard, and the policer's overuse demotions match a single
    /// engine exactly (the state never splits).
    #[test]
    fn res_id_policer_state_never_splits(
        shards in 2usize..6,
        res_choice in 0usize..6,
        n_pkts in 8usize..40,
    ) {
        let res_id = RES_IDS[res_choice];
        // 240 kbps class: one big packet fills the 50 ms burst budget, so
        // a sustained burst must be demoted — visible policer state.
        let mut generator = generator(res_id, 124);
        let packets: Vec<Vec<u8>> = (0..n_pkts)
            .map(|i| generator.generate(&[0u8; 1200], NOW_MS + i as u64).unwrap())
            .collect();
        let mut single = make_engine(false);
        let mut sharded = make_sharded(shards, false);
        for pkt in &packets {
            let a = single.process(&mut pkt.clone(), NOW_NS);
            let b = sharded.process(&mut pkt.clone(), NOW_NS);
            prop_assert_eq!(a, b, "policing verdict diverged");
        }
        let s = sharded.stats();
        prop_assert_eq!(single.stats(), s);
        prop_assert!(s.demoted_overuse > 0, "workload must trip the policer");
        // All packets of this ResID landed on one shard.
        let active: Vec<usize> = sharded
            .shard_stats()
            .iter()
            .enumerate()
            .filter(|(_, st)| st.processed > 0)
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(active.len(), 1, "ResID {} split across shards {:?}", res_id, active);
        let map = ShardMap::new(shards, SLOTS, Steering::ByReservation);
        prop_assert_eq!(active[0], map.shard_of_res_id(res_id));
        prop_assert!(map.res_id_range(active[0]).contains(&res_id));
    }
}

/// Plain-packet steering hashes exactly the duplicate-filter identity
/// `(src AS, BaseTS, MillisTS, Counter)`: two packets sharing that
/// identity but differing in source *host* (which the dup filter
/// ignores) must co-locate, so the owning shard's filter drops the
/// second exactly like a single engine.
#[test]
fn dup_identity_colliding_plain_packets_colocate() {
    let hops = vec![BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 0 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 0x1234);
    let mut plain = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    let original = plain.generate(&[0u8; 200], NOW_MS).unwrap();
    // Same dup identity, different src host (unauthenticated on plain
    // SCION packets, byte 20 of the address header).
    let mut sibling = original.clone();
    sibling[12 + 20] ^= 0x7F;
    assert_ne!(original, sibling);

    let map = ShardMap::new(5, SLOTS, Steering::ByReservation);
    assert_eq!(
        map.shard_of(&original),
        map.shard_of(&sibling),
        "dup-identity packets must steer together"
    );

    for shards in [2usize, 3, 5] {
        let mut single = make_engine(true);
        let mut sharded = make_sharded(shards, true);
        for pkt in [&original, &sibling] {
            let a = single.process(&mut pkt.clone(), NOW_NS);
            let b = sharded.process(&mut pkt.clone(), NOW_NS);
            assert_eq!(a, b, "{shards} shards");
        }
        assert_eq!(single.stats(), sharded.stats(), "{shards} shards");
        assert_eq!(sharded.stats().dropped, 1, "sibling must drop as a duplicate");
    }
}

/// Adversarial flow-hash collisions: packets crafted so their *plain*
/// hash would collide on one shard still steer by ResID when they carry
/// a reservation — the reservation axis always wins, so no collision can
/// move policer state.
#[test]
fn reservation_steering_overrides_hash_collisions() {
    let map = ShardMap::new(4, SLOTS, Steering::ByReservation);
    // Same source, same timestamps (identical plain-hash material),
    // different ResIDs: must steer by ResID range, not by the hash.
    let a = generator(1, 700).generate(&[0u8; 100], NOW_MS).unwrap();
    let b = generator(99_999, 700).generate(&[0u8; 100], NOW_MS).unwrap();
    assert_eq!(map.shard_of(&a), map.shard_of_res_id(1));
    assert_eq!(map.shard_of(&b), map.shard_of_res_id(99_999));
    assert_ne!(map.shard_of(&a), map.shard_of(&b), "range ends live on different shards");
    // And a verdict-level double check through the facade.
    let mut sharded = make_sharded(4, false);
    assert!(sharded.process(&mut a.clone(), NOW_NS).is_flyover());
    assert!(sharded.process(&mut b.clone(), NOW_NS).is_flyover());
    let active = sharded.shard_stats().iter().filter(|s| s.processed > 0).count();
    assert_eq!(active, 2, "two reservations at opposite range ends → two shards");
}

/// The threaded tx path conserves packets: with the egress model on,
/// every packet a worker processes is staged into its shard's two-class
/// scheduler and serialized exactly once — the per-class totals balance
/// against the verdicts, and the workers' own forwarded tallies agree
/// with the merged scheduler counts.
#[test]
fn threaded_tx_path_conserves_and_orders_packets() {
    use hummingbird::dataplane::EgressConfig;
    // Class-1000 reservations: policing never demotes, so every packet
    // is deterministically priority class.
    let templates: Vec<Vec<u8>> = RES_IDS
        .iter()
        .map(|&r| generator(r, 1000).generate(&[0u8; 400], NOW_MS).unwrap())
        .collect();
    for shards in [1usize, 2, 4] {
        let mut cfg = RuntimeConfig::new(shards);
        cfg.egress = Some(EgressConfig::default());
        let total = 2_000u64;
        let report = run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| make_engine(false),
            &templates,
            total,
            NOW_NS,
        );
        assert_eq!(report.packets, total, "{shards} shards");
        let e = report.egress.expect("tx path enabled");
        assert_eq!(e.forwarded() + e.dropped, total, "{shards} shards: tx conserves");
        assert_eq!(e.priority.pkts, total, "{shards} shards: valid reserved → all priority");
        assert_eq!(e.best_effort.pkts, 0, "{shards} shards");
        assert_eq!(e.dropped, 0, "{shards} shards");
        // Residence accrues monotonically ordered wire departures.
        assert!(e.priority.residence_ns_max >= e.priority.residence_ns_sum / total);
        // Worker-side tallies agree with the scheduler's view.
        let forwarded: u64 = report.per_shard.iter().map(|r| r.forwarded).sum();
        assert_eq!(forwarded, e.forwarded(), "{shards} shards");
    }
}

/// Determinism, simulated side: the same seed and topology produce
/// bit-identical `FlowStats` (latency sums included) and engine
/// counters across two runs — for every engine family, single and
/// 4-shard. The event loop has no hidden entropy.
#[test]
fn same_seed_same_topology_is_bit_identical() {
    use hummingbird::netsim::{run, EngineFamily, EngineScenario, Scenario};
    let cfg = RouterConfig::default();
    const START_NS: u64 = 1_700_000_000 * 1_000_000_000;
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let scenario = Scenario::latency(EngineScenario { family, shards }, 30_000);
            let a = run(cfg, &scenario, START_NS);
            let b = run(cfg, &scenario, START_NS);
            let label = format!("{}x{shards}", family.name());
            assert_eq!(a, b, "{label}: flow stats or engine counters diverged");
        }
    }
}

/// Determinism under churn: the full fault timeline — link failures,
/// stranding, the reroute pass, an on-path cold reboot — replays
/// bit-identically for the same seed, for every family, single and
/// 4-shard. The churn layer adds no hidden entropy on top of the event
/// loop's `(time, seq)` ordering.
#[test]
fn same_seed_churned_run_is_bit_identical() {
    use hummingbird::netsim::{run_churn_scenario, ChurnSpec, EngineFamily, EngineScenario};
    let cfg = RouterConfig::default();
    const START_NS: u64 = 1_700_000_000 * 1_000_000_000;
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let mut spec = ChurnSpec::new(EngineScenario { family, shards }).with_flood(8_000);
            // A small backbone keeps the root suite quick; the full
            // 104-router acceptance sweep lives in the netsim crate.
            spec.pops = 6;
            spec.routers_per_pop = 2;
            spec.background_flows = 16;
            spec.run_s = 2;
            let a = run_churn_scenario(cfg, &spec, START_NS);
            let b = run_churn_scenario(cfg, &spec, START_NS);
            let label = format!("{}x{shards}", family.name());
            assert!(a.report.link_failures() >= 3, "{label}: {:?}", a.report);
            assert_eq!(a, b, "{label}: churned runs with one seed must be bit-identical");
        }
    }
}

/// Determinism, threaded side: two runs over the same single-flow
/// workload produce identical per-shard packet/verdict counts, engine
/// stats and egress class totals (wall-clock fields aside). A single
/// flow steers to one shard, so even the per-shard split is fully
/// determined; multi-flow mixes are covered by the conservation checks
/// above, whose totals are order-free.
#[test]
fn threaded_tx_path_is_deterministic_for_a_pinned_flow() {
    use hummingbird::dataplane::EgressConfig;
    let templates = vec![generator(50_000, 1000).generate(&[0u8; 400], NOW_MS).unwrap()];
    let run = || {
        let mut cfg = RuntimeConfig::new(3);
        cfg.egress = Some(EgressConfig::default());
        run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| make_engine(false),
            &templates,
            1_500,
            NOW_NS,
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.bits, b.bits);
    for (sa, sb) in a.per_shard.iter().zip(b.per_shard.iter()) {
        assert_eq!(sa.processed, sb.processed, "per-shard split must be deterministic");
        assert_eq!(sa.forwarded, sb.forwarded);
        assert_eq!(sa.dropped, sb.dropped);
        assert_eq!(sa.stats, sb.stats, "engine counters must be deterministic");
    }
    let (ea, eb) = (a.egress.unwrap(), b.egress.unwrap());
    assert_eq!(ea.priority.pkts, eb.priority.pkts);
    assert_eq!(ea.priority.bytes, eb.priority.bytes);
    assert_eq!(ea.best_effort.pkts, eb.best_effort.pkts);
    assert_eq!(ea.dropped, eb.dropped);
}

/// Order-free aggregate verdict counts of a run.
fn verdict_totals(report: &hummingbird::dataplane::RuntimeReport) -> [u64; 5] {
    let f = |get: fn(&hummingbird::dataplane::ShardReport) -> u64| {
        report.per_shard.iter().map(get).sum()
    };
    [
        f(|s| s.stats.flyover),
        f(|s| s.stats.best_effort),
        f(|s| s.stats.dropped),
        f(|s| s.stats.demoted_overuse),
        f(|s| s.stats.demoted_untimely),
    ]
}

/// An engine held to at least [`Paced::NS_PER_PKT`] per packet, so how
/// busy the modelled wire is does not depend on the build profile.
struct Paced(Box<dyn Datapath + Send>);

impl Paced {
    const NS_PER_PKT: u64 = 2_000;
}

impl Datapath for Paced {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        self.0.process(pkt, now_ns)
    }

    fn process_batch(&mut self, pkts: &mut [PacketBuf], now_ns: u64, out: &mut Vec<Verdict>) {
        use std::time::{Duration, Instant};
        let until = Instant::now() + Duration::from_nanos(Self::NS_PER_PKT * pkts.len() as u64);
        self.0.process_batch(pkts, now_ns, out);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }

    fn engine_name(&self) -> &'static str {
        self.0.engine_name()
    }

    fn stats(&self) -> DatapathStats {
        self.0.stats()
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats()
    }
}

/// The tx path at its defaults loses nothing on a mixed workload: a
/// 45/45/10 flyover / plain / adversarial (forged MAC) mix through the
/// sharded runtime with `EgressConfig::default()` (40 Gbps) and
/// `BackpressureConfig::default()` (`Drop` past a 1 536-packet
/// watermark) is neither shed at rx nor tail-dropped, and its verdict
/// counts equal one engine's. A packet is ≈ 4.1 kB, 0.82 µs on the
/// wire, and the engine is paced to ≥ 2 µs per packet, so the wire is
/// at most ≈ 37 % busy in any build: a loss here is the scheduler
/// starving best effort. Before PR 22 the scheduler picked the class
/// at poll time, and this run shed 8 896 to 26 656 of its 40 000
/// packets at rx (five runs, debug and release builds).
#[test]
fn mixed_traffic_conserves_at_tx_defaults() {
    use hummingbird::dataplane::{BackpressureConfig, EgressConfig};
    let hops = vec![BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 0 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 0x1234);
    let mut plain = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    let payload = [0u8; 4_000];
    // A twenty-template period: nine flyover and nine plain,
    // interleaved, then two forged-MAC flyover packets.
    let templates: Vec<Vec<u8>> = (0..100u32)
        .map(|i| {
            let at = NOW_MS + u64::from(i);
            let reserved = || generator(1 + i * 997, 1000).generate(&payload, at).unwrap();
            match i % 20 {
                18 | 19 => {
                    let mut bytes = reserved();
                    bytes[56 + i as usize % 12] ^= 0x40;
                    bytes
                }
                r if r % 2 == 0 => reserved(),
                _ => plain.generate(&payload, at).unwrap(),
            }
        })
        .collect();
    let rounds = 400u64;
    let mut single = make_engine(false);
    for _ in 0..rounds {
        for t in &templates {
            single.process(&mut t.clone(), NOW_NS);
        }
    }
    let s = single.stats();
    let want = [s.flyover, s.best_effort, s.dropped, s.demoted_overuse, s.demoted_untimely];
    assert!(want[..3].iter().all(|&n| n > 0), "the mix has every verdict: {want:?}");

    let mut cfg = RuntimeConfig::new(2);
    cfg.egress = Some(EgressConfig::default());
    cfg.backpressure = BackpressureConfig::default();
    let total = rounds * templates.len() as u64;
    let report = run_to_completion(
        &cfg,
        RuntimeMode::Sharded,
        |_| Paced(make_engine(false)),
        &templates,
        total,
        NOW_NS,
    );
    let e = report.egress.expect("tx path enabled");
    assert_eq!(report.rx_backpressure_drops, 0, "shed at rx with the wire mostly idle");
    assert_eq!(e.tx_queue_full, 0, "tail-dropped with the wire mostly idle");
    assert_eq!(report.packets, total);
    assert_eq!(e.forwarded() + e.dropped, total, "tx conserves");
    assert_eq!(verdict_totals(&report), want, "sharded verdicts diverged from one engine");
}

/// Traffic with every verdict: flyover on ResIDs in every shard's range,
/// an over-rate reservation on two templates of one size (overuse), a
/// stale packet (untimely), plain packets, a forged MAC and junk.
fn contract_templates() -> Vec<Vec<u8>> {
    let reserved = |res_id, at_ms| generator(res_id, 1000).generate(&[0u8; 400], at_ms).unwrap();
    let mut templates: Vec<Vec<u8>> = RES_IDS.iter().map(|&r| reserved(r, NOW_MS)).collect();
    // 240 kbps: one 1.2 kB packet fills the 50 ms burst budget.
    let mut over_rate = generator(60_000, 124);
    templates.extend((0..2).map(|i| over_rate.generate(&[0u8; 1200], NOW_MS + i).unwrap()));
    templates.push(reserved(30_000, NOW_MS - 10_000));
    let hops = vec![BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 0 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 0x1234);
    let mut plain = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    templates.extend((0..2).map(|i| plain.generate(&[0u8; 300], NOW_MS + i).unwrap()));
    let mut forged = reserved(80_000, NOW_MS);
    forged[60] ^= 0x40;
    templates.push(forged);
    templates.push(vec![0xA5; 128]);
    templates
}

/// Part `i` of `total` split `parts` ways, by `run_to_completion`'s rule.
fn share(total: u64, parts: usize, i: usize) -> u64 {
    total / parts as u64 + u64::from((i as u64) < total % parts as u64)
}

/// A fresh engine's counters over `counts[j]` copies of template `j`,
/// in template order: no counter here depends on the order (one packet
/// size per ResID, a fixed clock, no duplicate filter).
fn fresh_engine_stats(templates: &[Vec<u8>], counts: &[u64]) -> DatapathStats {
    let mut engine = make_engine(false);
    for (template, &n) in templates.iter().zip(counts) {
        for _ in 0..n {
            engine.process(&mut template.clone(), NOW_NS);
        }
    }
    engine.stats()
}

/// The runtime's contract in every layout: clone and sharded × 1-4
/// shards × sequential, threaded and auto × egress off and on (under
/// `Block`) × 0, 3 and 600 packets.
/// 1. Conservation: each packet is processed once, each shard's
///    verdicts and counters balance, `bits` is exact.
/// 2. Equivalence: sharded, the shards' counters sum to one fresh
///    engine's; cloned, each worker's are a fresh engine's over its share.
/// 3. Independence: every field that does not read the clock is equal
///    across the exec modes.
/// 4. Egress: processed = serialized + verdict drops, no tail drop, the
///    classes carry the engines' verdicts, residence accrues.
/// 5. Termination: tiny runs complete; a run with packets took time.
#[test]
fn runtime_contract_holds_in_every_layout() {
    use hummingbird::dataplane::EgressConfig;
    const EXECS: [ExecMode; 3] = [ExecMode::Sequential, ExecMode::Threaded, ExecMode::Auto];
    let templates = contract_templates();
    let t = templates.len();
    let fresh_stats = |counts: Vec<u64>| fresh_engine_stats(&templates, &counts);
    let mix = fresh_stats((0..t).map(|j| share(600, t, j)).collect());
    assert!(mix.flyover > 0 && mix.best_effort > 0, "{mix:?}");
    assert!(mix.demoted_overuse > 0 && mix.demoted_untimely > 0, "{mix:?}");
    for reason in [DropReason::Malformed, DropReason::BadMac] {
        assert!(mix.drops[reason as usize] > 0, "no {reason:?}: {mix:?}");
    }
    // Every field of a report that does not read the clock.
    let deterministic = |r: &RuntimeReport| {
        let shards = r.per_shard.iter().map(|s| (s.processed, s.forwarded, s.dropped, s.stats));
        let egress = r.egress.map(|e| {
            let (p, b) = (e.priority, e.best_effort);
            [p.pkts, p.bytes, b.pkts, b.bytes, e.dropped, e.tx_queue_full]
        });
        (r.packets, r.bits, shards.collect::<Vec<_>>(), egress)
    };

    let layouts = [RuntimeMode::PerCoreClone, RuntimeMode::Sharded].into_iter().flat_map(|mode| {
        (1..=4).flat_map(move |shards| {
            [None, Some(EgressConfig::default())].into_iter().flat_map(move |egress| {
                [0u64, 3, 600].map(|offered| (mode, shards, egress, offered))
            })
        })
    });
    for (mode, shards, egress, offered) in layouts {
        let layout = format!("{mode:?}/{shards} shards/egress {}/{offered} pkts", egress.is_some());
        // The offered packets per template; a clone worker takes its
        // share of the total, spread over all templates.
        let clone_counts =
            |i| -> Vec<u64> { (0..t).map(|j| share(share(offered, shards, i), t, j)).collect() };
        let counts: Vec<u64> = match mode {
            RuntimeMode::Sharded => (0..t).map(|j| share(offered, t, j)).collect(),
            RuntimeMode::PerCoreClone => {
                (0..t).map(|j| (0..shards).map(|i| clone_counts(i)[j]).sum()).collect()
            }
        };
        let bits: u64 = templates.iter().zip(&counts).map(|(p, &n)| p.len() as u64 * 8 * n).sum();
        let reports = EXECS.map(|exec| {
            let mut cfg = RuntimeConfig::new(shards);
            cfg.exec = exec;
            cfg.egress = egress;
            cfg.backpressure.policy = BackpressurePolicy::Block;
            run_to_completion(&cfg, mode, |_| make_engine(false), &templates, offered, NOW_NS)
        });
        for (exec, r) in EXECS.iter().zip(&reports) {
            let label = format!("{layout}/{exec:?}");
            // 1. Conservation.
            assert_eq!((r.packets, r.rx_backpressure_drops), (offered, 0), "{label}");
            assert_eq!(r.per_shard.len(), shards, "{label}");
            assert_eq!(r.per_shard.iter().map(|s| s.processed).sum::<u64>(), r.packets, "{label}");
            for (i, s) in r.per_shard.iter().enumerate() {
                let (st, label) = (s.stats, format!("{label}: shard {i}: {s:?}"));
                assert_eq!(s.forwarded + s.dropped, s.processed, "{label}");
                assert_eq!((st.processed, st.dropped), (s.processed, s.dropped), "{label}");
                assert_eq!(st.flyover + st.best_effort, s.forwarded, "{label}");
                assert_eq!(st.drops.iter().sum::<u64>(), st.dropped, "{label}");
            }
            assert_eq!(r.bits, bits, "{label}");
            // 2. Equivalence.
            let engines: DatapathStats = r.per_shard.iter().map(|s| s.stats).sum();
            if mode == RuntimeMode::Sharded {
                assert_eq!(engines, fresh_stats(counts.clone()), "{label}: shards ≠ one engine");
            } else {
                for (i, s) in r.per_shard.iter().enumerate() {
                    assert_eq!(s.stats, fresh_stats(clone_counts(i)), "{label}: worker {i}");
                }
            }
            // 4. Egress, which only the sharded router has.
            let tx_port = egress.is_some() && mode == RuntimeMode::Sharded;
            assert_eq!(r.egress.is_some(), tx_port, "{label}");
            if let Some(e) = r.egress {
                let label = format!("{label}: {e:?}");
                assert_eq!(e.forwarded() + e.dropped, r.packets, "{label}");
                assert_eq!(e.tx_queue_full, 0, "{label}");
                let classes = [e.priority.pkts, e.best_effort.pkts, e.dropped];
                assert_eq!(
                    classes,
                    [engines.flyover, engines.best_effort, engines.dropped],
                    "{label}"
                );
                let forwarded: u64 = r.per_shard.iter().map(|s| s.forwarded).sum();
                assert_eq!(forwarded, e.forwarded(), "{label}");
                for class in [e.priority, e.best_effort].iter().filter(|c| c.pkts > 0) {
                    assert!(class.residence_ns_sum >= class.pkts, "{label}");
                    assert!(
                        class.residence_ns_max >= class.residence_ns_sum / class.pkts,
                        "{label}"
                    );
                }
            }
            // 5. Termination.
            assert!(offered == 0 || r.seconds > 0.0, "{label}: {}", r.seconds);
        }
        // 3. Independence from how shards map to threads.
        let [sequential, threaded, auto] = reports.each_ref().map(deterministic);
        assert_eq!(threaded, sequential, "{layout}: threaded ≠ sequential");
        assert_eq!(auto, sequential, "{layout}: auto ≠ sequential");
    }
}
