//! Property tests for the sharded worker-ring runtime:
//!
//! 1. **Sharded ≡ single** — for duplicate-free traffic, a
//!    `ShardedRouter` over N identically-keyed engines produces verdicts
//!    and aggregate stats element-wise identical to one engine, for any
//!    shard count, through both the per-packet and the batch path.
//! 2. **ResID ownership** — a reservation's policer state never splits
//!    across shards: all traffic on one ResID (whatever its source,
//!    timestamps, or hash-collision-crafted siblings) lands on exactly
//!    one shard, so overuse demotion matches the single-engine count.
//! 3. **Replay co-location** — exact replays are bit-identical, steer to
//!    the same shard, and are caught by that shard's duplicate filter
//!    exactly as a single engine would.
//! 4. **Packet conservation** — the threaded runtime processes every
//!    dispatched packet exactly once, in both clone and sharded modes.
//! 5. **Multi-queue ≡ single** — the per-shard rx queues conserve
//!    packets and produce the same aggregate verdict counts as one
//!    shard, for every shard count.
//! 6. **Runtime determinism** — two runs with one configuration are
//!    bit-identical per shard, with the tx path off or on.

use hummingbird::dataplane::runtime::{
    run_to_completion, RuntimeConfig, RuntimeMode, ShardMap, ShardedRouter, Steering,
};
use hummingbird::dataplane::{
    forge_path, BeaconHop, Datapath, DatapathBuilder, PacketBuf, RouterConfig, SourceGenerator,
    SourceReservation,
};
use hummingbird::{IsdAs, ResInfo, SecretValue};
use hummingbird_baselines::EngineFamily;
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
    DatapathBuilder::new(sv(), hop_key()).duplicate_suppression(dup).build_boxed()
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

/// A duplicate-free mixed workload: per spec `(res_choice, payload,
/// corrupt)`, a packet on `RES_IDS[res_choice % 6]` (or plain when
/// `res_choice == 6`), each stamped at a distinct millisecond so no two
/// packets share a duplicate-filter identity.
fn workload(specs: &[(u8, u16, bool)]) -> Vec<Vec<u8>> {
    let mut reserved: Vec<SourceGenerator> = RES_IDS.iter().map(|&r| generator(r, 700)).collect();
    let hops = vec![BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 0 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 0x1234);
    let mut plain = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    specs
        .iter()
        .enumerate()
        .map(|(i, &(res_choice, payload, corrupt))| {
            let payload = vec![0u8; usize::from(payload)];
            let at = NOW_MS + i as u64; // unique ms → duplicate-free
            let mut bytes = if usize::from(res_choice) % 7 == 6 {
                plain.generate(&payload, at).unwrap()
            } else {
                reserved[usize::from(res_choice) % 7 % 6].generate(&payload, at).unwrap()
            };
            if corrupt {
                let idx = 56 + (i % 12);
                bytes[idx] ^= 0x40;
            }
            bytes
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded ≡ single: verdicts and aggregate stats match for any
    /// shard count on duplicate-free mixed traffic (per-packet path).
    #[test]
    fn sharded_equals_single_engine(
        shards in 1usize..6,
        specs in prop::collection::vec((any::<u8>(), 0u16..600, any::<bool>()), 1..24),
        dup in any::<bool>(),
    ) {
        let packets = workload(&specs);
        let mut single = make_engine(dup);
        let mut sharded = make_sharded(shards, dup);
        for pkt in &packets {
            let a = single.process(&mut pkt.clone(), NOW_NS);
            let b = sharded.process(&mut pkt.clone(), NOW_NS);
            prop_assert_eq!(a, b, "sharded verdict diverged");
        }
        prop_assert_eq!(single.stats(), sharded.stats(), "aggregate stats diverged");
    }

    /// The same equivalence through `process_batch` (which regroups the
    /// burst into per-shard runs and drives each engine's batch path).
    #[test]
    fn sharded_batch_equals_single_batch(
        shards in 1usize..6,
        specs in prop::collection::vec((any::<u8>(), 0u16..600, any::<bool>()), 1..24),
    ) {
        let packets = workload(&specs);
        let mut single = make_engine(false);
        let mut sharded = make_sharded(shards, false);
        let mut bufs_a: Vec<PacketBuf> = packets.iter().cloned().map(PacketBuf::new).collect();
        let mut bufs_b: Vec<PacketBuf> = packets.into_iter().map(PacketBuf::new).collect();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        single.process_batch(&mut bufs_a, NOW_NS, &mut out_a);
        sharded.process_batch(&mut bufs_b, NOW_NS, &mut out_b);
        prop_assert_eq!(&out_a, &out_b, "batch verdicts diverged");
        prop_assert_eq!(single.stats(), sharded.stats(), "batch stats diverged");
    }

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

    /// Key-cache correctness across shard steering: per-shard `AuthKey`
    /// caches behave exactly like one engine-wide cache, because every
    /// reservation steers to one shard — aggregate hit/miss counters
    /// match a single engine, and revisiting the same flows adds hits
    /// but never misses (each revisit lands on the shard that already
    /// holds the expanded schedule).
    #[test]
    fn key_cache_counters_survive_sharding(
        shards in 1usize..6,
        specs in prop::collection::vec((any::<u8>(), 0u16..400, any::<bool>()), 1..24),
    ) {
        let packets = workload(&specs);
        let mut single = make_engine(false);
        let mut sharded = make_sharded(shards, false);
        for pkt in &packets {
            single.process(&mut pkt.clone(), NOW_NS);
            sharded.process(&mut pkt.clone(), NOW_NS);
        }
        let (s, sh) = (single.stats(), sharded.stats());
        prop_assert_eq!(s.key_cache_hits, sh.key_cache_hits, "aggregate hits diverged");
        prop_assert_eq!(s.key_cache_misses, sh.key_cache_misses, "aggregate misses diverged");
        // A second pass over the identical flows derives nothing new,
        // wherever the packets steer.
        let misses_after_first = sh.key_cache_misses;
        for pkt in &packets {
            sharded.process(&mut pkt.clone(), NOW_NS);
        }
        prop_assert_eq!(
            sharded.stats().key_cache_misses, misses_after_first,
            "revisit missed: a flow reached a shard without its key"
        );
    }

    /// Exact replays steer to the owning shard and are dropped by its
    /// duplicate filter exactly as a single engine drops them.
    #[test]
    fn replays_colocate_with_their_original(
        shards in 2usize..6,
        res_choice in 0usize..6,
        copies in 1usize..5,
    ) {
        let mut generator = generator(RES_IDS[res_choice], 700);
        let original = generator.generate(&[0u8; 300], NOW_MS).unwrap();
        let mut single = make_engine(true);
        let mut sharded = make_sharded(shards, true);
        for i in 0..=copies {
            let a = single.process(&mut original.clone(), NOW_NS + i as u64);
            let b = sharded.process(&mut original.clone(), NOW_NS + i as u64);
            prop_assert_eq!(a, b, "copy {} diverged", i);
            if i == 0 {
                prop_assert!(a.is_flyover(), "original must pass: {:?}", a);
            } else {
                prop_assert!(a.is_drop(), "replay {} must drop: {:?}", i, a);
            }
        }
        prop_assert_eq!(single.stats(), sharded.stats());
    }
}

const MASTER: [u8; 16] = [0xB5; 16];

fn epic_cfg(dup: bool) -> RouterConfig {
    RouterConfig { duplicate_suppression: dup, ..RouterConfig::default() }
}

/// EPIC engine + `Steering::BySource` (the family's steering) helpers
/// for the source-keyed sharding properties below.
fn make_epic(dup: bool) -> Box<dyn Datapath + Send> {
    EngineFamily::Epic.engine(&sv(), &hop_key(), &MASTER, epic_cfg(dup))
}

fn make_sharded_epic(shards: usize, dup: bool) -> ShardedRouter {
    assert_eq!(EngineFamily::Epic.steering(), Steering::BySource);
    EngineFamily::Epic.sharded_engine(shards, &sv(), &hop_key(), &MASTER, epic_cfg(dup))
}

/// An EPIC-stamped duplicate-free workload from up to five source ASes
/// (the axis `Steering::BySource` shards on): per spec `(src_choice,
/// payload, corrupt)`, a packet on source `src_choice % 5` (or plain
/// SCION when the choice hashes to 5), each at a distinct millisecond.
fn epic_workload(specs: &[(u8, u16, bool)]) -> Vec<Vec<u8>> {
    let hops = vec![BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 0 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 0x1234);
    let mut senders: Vec<SourceGenerator> = (0..5u64)
        .map(|i| {
            let src = IsdAs::new(1, 0x10 + i);
            let credential =
                EngineFamily::Epic.credential(&sv(), &MASTER, 0, 0, &mut 0, src, 0, NOW_S);
            let mut sender = SourceGenerator::new(src, IsdAs::new(2, 0x20), path.clone());
            sender.attach_reservation(0, credential).unwrap();
            sender
        })
        .collect();
    let mut plain = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);
    specs
        .iter()
        .enumerate()
        .map(|(i, &(src_choice, payload, corrupt))| {
            let payload = vec![0u8; usize::from(payload)];
            let at = NOW_MS + i as u64; // unique ms → duplicate-free
            let choice = usize::from(src_choice) % 6;
            let mut bytes = if choice == 5 {
                plain.generate(&payload, at).unwrap()
            } else {
                senders[choice].generate(&payload, at).unwrap()
            };
            if corrupt {
                let idx = 56 + (i % 12);
                bytes[idx] ^= 0x40;
            }
            bytes
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sharded ≡ single for the source-keyed EPIC engine under
    /// `Steering::BySource`: verdicts, aggregate stats and key-cache
    /// counters match for any shard count on duplicate-free mixed
    /// traffic, through both the per-packet and the batch path — every
    /// source's key cache and replay state lives on exactly one shard.
    #[test]
    fn epic_sharded_by_source_equals_single(
        shards in 1usize..6,
        specs in prop::collection::vec((any::<u8>(), 0u16..400, any::<bool>()), 1..24),
        dup in any::<bool>(),
    ) {
        let packets = epic_workload(&specs);
        let mut single = make_epic(dup);
        let mut sharded = make_sharded_epic(shards, dup);
        for pkt in &packets {
            let a = single.process(&mut pkt.clone(), NOW_NS);
            let b = sharded.process(&mut pkt.clone(), NOW_NS);
            prop_assert_eq!(a, b, "sharded EPIC verdict diverged");
        }
        prop_assert_eq!(single.stats(), sharded.stats(), "aggregate stats diverged");

        // The same equivalence through the batch path (which regroups
        // the burst into per-shard runs and drives the three-sweep
        // batched key derivation per run).
        let mut single_b = make_epic(dup);
        let mut sharded_b = make_sharded_epic(shards, dup);
        let mut bufs_a: Vec<PacketBuf> = packets.iter().cloned().map(PacketBuf::new).collect();
        let mut bufs_b: Vec<PacketBuf> = packets.into_iter().map(PacketBuf::new).collect();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        single_b.process_batch(&mut bufs_a, NOW_NS, &mut out_a);
        sharded_b.process_batch(&mut bufs_b, NOW_NS, &mut out_b);
        prop_assert_eq!(&out_a, &out_b, "batch verdicts diverged");
        prop_assert_eq!(single_b.stats(), sharded_b.stats(), "batch stats diverged");
    }

    /// EPIC replays co-locate under source steering: exact copies steer
    /// to the owning shard and its window filter drops them exactly as a
    /// single engine would.
    #[test]
    fn epic_replays_colocate_with_their_original(
        shards in 2usize..6,
        src_choice in 0u8..5,
        copies in 1usize..5,
    ) {
        let original = epic_workload(&[(src_choice, 300, false)]).remove(0);
        let mut single = make_epic(true);
        let mut sharded = make_sharded_epic(shards, true);
        for i in 0..=copies {
            let a = single.process(&mut original.clone(), NOW_NS + i as u64);
            let b = sharded.process(&mut original.clone(), NOW_NS + i as u64);
            prop_assert_eq!(a, b, "copy {} diverged", i);
            if i == 0 {
                prop_assert!(a.egress().is_some(), "original must validate: {:?}", a);
            } else {
                prop_assert!(a.is_drop(), "replay {} must drop: {:?}", i, a);
            }
        }
        prop_assert_eq!(single.stats(), sharded.stats());
    }
}

/// The threaded runtime conserves packets: every dispatched packet is
/// processed exactly once, in both modes, and the per-shard stats add up.
#[test]
fn threaded_runtime_conserves_packets() {
    let templates: Vec<Vec<u8>> =
        RES_IDS.iter().map(|&r| generator(r, 700).generate(&[0u8; 400], NOW_MS).unwrap()).collect();
    for mode in [RuntimeMode::PerCoreClone, RuntimeMode::Sharded] {
        for shards in [1usize, 2, 4] {
            let mut cfg = RuntimeConfig::new(shards);
            cfg.ring_capacity = 16;
            let total = 2_000u64;
            let report =
                run_to_completion(&cfg, mode, |_| make_engine(false), &templates, total, NOW_NS);
            assert_eq!(report.packets, total, "{mode:?}/{shards}");
            let processed: u64 = report.per_shard.iter().map(|r| r.processed).sum();
            assert_eq!(processed, total, "{mode:?}/{shards}");
            for shard in &report.per_shard {
                assert_eq!(
                    shard.stats.flyover + shard.stats.best_effort + shard.stats.dropped,
                    shard.stats.processed,
                    "{mode:?}/{shards}: shard stats must balance"
                );
            }
            // Valid reserved traffic: nothing drops in either mode.
            let dropped: u64 = report.per_shard.iter().map(|r| r.dropped).sum();
            assert_eq!(dropped, 0, "{mode:?}/{shards}");
        }
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
/// every dispatched packet crosses its shard's egress ring exactly once
/// (the dispatcher asserts the per-shard sequence numbers — a leaked,
/// duplicated or reordered packet panics the run), is serialized by the
/// two-class scheduler, and the per-class totals balance against the
/// verdicts.
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
        cfg.ring_capacity = 16;
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
    use hummingbird::netsim::{run_latency_scenario, EngineFamily, EngineScenario, LatencySpec};
    let cfg = RouterConfig::default();
    const START_NS: u64 = 1_700_000_000 * 1_000_000_000;
    for family in EngineFamily::ALL {
        for shards in [1usize, 4] {
            let scenario = EngineScenario { family, shards };
            let spec = LatencySpec::new(scenario).with_flood(30_000);
            let a = run_latency_scenario(cfg, &spec, START_NS);
            let b = run_latency_scenario(cfg, &spec, START_NS);
            let label = format!("{}x{shards}", family.name());
            assert_eq!(a.victim, b.victim, "{label}: victim FlowStats diverged");
            assert_eq!(a.flood, b.flood, "{label}: flood FlowStats diverged");
            assert_eq!(a.entry_stats, b.entry_stats, "{label}: engine counters diverged");
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
        cfg.ring_capacity = 16;
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

/// Order-free aggregate verdict counts of a run (key-cache hits are
/// excluded: they depend on how flows interleave on an engine, which
/// legitimately differs between shard counts).
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

/// Multi-queue ≡ single: the run conserves packets at every shard
/// count, and its aggregate verdict counts match the single-shard run —
/// the per-shard rx queues are a pure transport change, invisible to
/// what the router decides.
#[test]
fn multi_queue_matches_dispatcher_and_single_shard() {
    let templates: Vec<Vec<u8>> =
        RES_IDS.iter().map(|&r| generator(r, 700).generate(&[0u8; 400], NOW_MS).unwrap()).collect();
    let total = 2_000u64;
    let mut baseline: Option<[u64; 5]> = None;
    for shards in [1usize, 2, 4] {
        let mut cfg = RuntimeConfig::new(shards);
        cfg.ring_capacity = 16;
        let report = run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| make_engine(false),
            &templates,
            total,
            NOW_NS,
        );
        assert_eq!(report.packets, total, "{shards}");
        let processed: u64 = report.per_shard.iter().map(|r| r.processed).sum();
        assert_eq!(processed, total, "{shards}: conservation");
        let totals = verdict_totals(&report);
        match &baseline {
            None => baseline = Some(totals),
            Some(b) => assert_eq!(&totals, b, "{shards}: verdicts diverged from baseline"),
        }
    }
}

/// Runtime determinism: for every shard count, two runs produce
/// bit-identical per-shard reports.
#[test]
fn multi_queue_runs_are_bit_identical() {
    let templates: Vec<Vec<u8>> =
        RES_IDS.iter().map(|&r| generator(r, 700).generate(&[0u8; 400], NOW_MS).unwrap()).collect();
    let total = 1_500u64;
    for shards in [1usize, 2, 4] {
        let run = || {
            let mut cfg = RuntimeConfig::new(shards);
            cfg.ring_capacity = 16;
            run_to_completion(
                &cfg,
                RuntimeMode::Sharded,
                |_| make_engine(false),
                &templates,
                total,
                NOW_NS,
            )
        };
        let (x, y) = (run(), run());
        assert_eq!(x.packets, y.packets, "{shards}");
        assert_eq!(x.bits, y.bits, "{shards}");
        for (i, (sx, sy)) in x.per_shard.iter().zip(y.per_shard.iter()).enumerate() {
            assert_eq!(sx.processed, sy.processed, "{shards}: shard {i}");
            assert_eq!(sx.forwarded, sy.forwarded, "{shards}: shard {i}");
            assert_eq!(sx.dropped, sy.dropped, "{shards}: shard {i}");
            assert_eq!(sx.stats, sy.stats, "{shards}: shard {i}");
        }
    }
}

/// The worker-drained tx path conserves packets: each worker serializes
/// its own egress through its shard's TxScheduler, the per-shard
/// sequence numbers prove nothing leaked or reordered, and the merged
/// class totals balance.
#[test]
fn multi_queue_tx_path_conserves() {
    use hummingbird::dataplane::EgressConfig;
    let templates: Vec<Vec<u8>> = RES_IDS
        .iter()
        .map(|&r| generator(r, 1000).generate(&[0u8; 400], NOW_MS).unwrap())
        .collect();
    let total = 1_500u64;
    for shards in [1usize, 2, 4] {
        let mut cfg = RuntimeConfig::new(shards);
        cfg.ring_capacity = 16;
        cfg.egress = Some(EgressConfig::default());
        let report = run_to_completion(
            &cfg,
            RuntimeMode::Sharded,
            |_| make_engine(false),
            &templates,
            total,
            NOW_NS,
        );
        assert_eq!(report.packets, total, "{shards}");
        let e = report.egress.expect("tx path enabled");
        assert_eq!(e.forwarded() + e.dropped, total, "{shards}: tx conserves");
        assert_eq!(e.priority.pkts, total, "{shards}: valid reserved → all priority");
        assert_eq!(e.dropped, 0, "{shards}");
        let forwarded: u64 = report.per_shard.iter().map(|r| r.forwarded).sum();
        assert_eq!(forwarded, e.forwarded(), "{shards}: worker tallies agree");
    }
}
