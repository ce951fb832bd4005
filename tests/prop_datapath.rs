//! Property tests for the unified `Datapath` API:
//!
//! 1. **Batch ≡ sequential** — for every engine, `process_batch` verdicts
//!    are element-wise identical to sequential `process` calls on an
//!    identically-configured engine (the contract that lets later PRs
//!    amortize work across a burst without changing semantics).
//! 2. **Owned ≡ zero-copy** — a `BorderRouter` reaches the same verdict
//!    whether a packet's bytes are used directly, round-tripped through
//!    the owned `Packet` repr, or wrapped in a checked zero-copy
//!    `PacketView` first.

use hummingbird::dataplane::{
    forge_path, BeaconHop, Datapath, DatapathBuilder, PacketBuf, RouterConfig, SourceGenerator,
    SourceReservation,
};
use hummingbird::{IsdAs, ResInfo, SecretValue};
use hummingbird_baselines::EngineFamily;
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::{HummingbirdPath, Packet, PacketView};
use proptest::prelude::*;

const NOW_S: u64 = 1_700_000_096; // slot-aligned (divisible by 16)
const NOW_MS: u64 = NOW_S * 1000;
const NOW_NS: u64 = NOW_S * 1_000_000_000;

fn hop_key(i: usize) -> HopMacKey {
    HopMacKey::new([0x10 + i as u8; 16])
}

fn sv(i: usize) -> SecretValue {
    SecretValue::new([0x60 + i as u8; 16])
}

fn interfaces(n: usize, i: usize) -> (u16, u16) {
    (if i == 0 { 0 } else { 2 * i as u16 }, if i == n - 1 { 0 } else { 2 * i as u16 + 1 })
}

fn beaconed_path(n_hops: usize) -> HummingbirdPath {
    let hops: Vec<BeaconHop> = (0..n_hops)
        .map(|i| {
            let (cons_ingress, cons_egress) = interfaces(n_hops, i);
            BeaconHop { key: hop_key(i), cons_ingress, cons_egress }
        })
        .collect();
    forge_path(&hops, NOW_S as u32 - 100, 0x1234)
}

/// The verifying AS's DRKey master (what the baseline families key on).
const MASTER: [u8; 16] = [0xB5; 16];

/// A hop-0 engine of `family` over the verifying AS's secrets.
fn hop0_engine(family: EngineFamily, cfg: RouterConfig) -> Box<dyn Datapath + Send> {
    family.engine(&sv(0), &hop_key(0), &MASTER, cfg)
}

/// A sender from `src` over the two-hop path, carrying `family`'s hop-0
/// credential (ResID 1 at `bw_kbps` where the family has them).
fn hop0_sender(family: EngineFamily, src: IsdAs, bw_kbps: u64) -> SourceGenerator {
    let mut sender = SourceGenerator::new(src, IsdAs::new(2, 0x20), beaconed_path(2));
    let credential = family.credential(&sv(0), &MASTER, 0, 1, &mut 1, src, bw_kbps, NOW_S);
    sender.attach_reservation(0, credential).unwrap();
    sender
}

/// A mixed workload: `n_hops`-hop packets, hop 0 reserved on a subset,
/// with a per-packet payload size and a corrupted-byte option so batches
/// mix Flyover, BestEffort and Drop verdicts.
fn workload(n_hops: usize, specs: &[(u16, bool, bool)]) -> Vec<Vec<u8>> {
    let path = beaconed_path(n_hops);
    let (ing, eg) = interfaces(n_hops, 0);
    let res_info = ResInfo {
        ingress: ing,
        egress: eg,
        res_id: 9,
        bw_encoded: 700,
        res_start: NOW_S as u32 - 50,
        duration: 600,
    };
    let key = sv(0).derive_key(&res_info);
    let mut reserved = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path.clone());
    reserved.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
    let mut plain = SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path);

    specs
        .iter()
        .enumerate()
        .map(|(i, &(payload, with_res, corrupt))| {
            let generator = if with_res { &mut reserved } else { &mut plain };
            let mut bytes =
                generator.generate(&vec![0u8; usize::from(payload)], NOW_MS + i as u64).unwrap();
            if corrupt {
                let idx = 56 + (i % 12);
                bytes[idx] ^= 0x40;
            }
            bytes
        })
        .collect()
}

fn router() -> DatapathBuilder {
    DatapathBuilder::new(sv(0), hop_key(0))
}

/// An EPIC-stamped mixed workload from up to three source ASes: per spec
/// `(src_choice, payload, stale, corrupt)`, a packet authenticated under
/// the verifying AS's EPIC key for that source — optionally stamped 10 s
/// in the past (→ the strict-freshness drop) or corrupted (→ BadMac) —
/// so bursts mix BestEffort and both Drop reasons across sources.
fn epic_workload(specs: &[(u8, u16, bool, bool)]) -> Vec<Vec<u8>> {
    let mut senders: Vec<SourceGenerator> =
        (0..3u64).map(|i| hop0_sender(EngineFamily::Epic, IsdAs::new(1, 0x10 + i), 0)).collect();
    specs
        .iter()
        .enumerate()
        .map(|(i, &(src_choice, payload, stale, corrupt))| {
            let at = if stale { NOW_MS - 10_000 } else { NOW_MS } + i as u64;
            let sender = &mut senders[usize::from(src_choice) % 3];
            let mut bytes = sender.generate(&vec![0u8; usize::from(payload)], at).unwrap();
            if corrupt {
                let idx = 56 + (i % 12);
                bytes[idx] ^= 0x40;
            }
            bytes
        })
        .collect()
}

/// Asserts batch ≡ sequential on two identically-configured engines.
fn assert_batch_matches_sequential(
    mut batch_engine: Box<dyn Datapath + Send>,
    mut seq_engine: Box<dyn Datapath + Send>,
    packets: Vec<Vec<u8>>,
) -> Result<(), String> {
    let sequential: Vec<_> =
        packets.iter().map(|p| seq_engine.process(&mut p.clone(), NOW_NS)).collect();
    let mut bufs: Vec<PacketBuf> = packets.into_iter().map(PacketBuf::new).collect();
    let mut batched = Vec::new();
    batch_engine.process_batch(&mut bufs, NOW_NS, &mut batched);
    prop_assert_eq!(&batched, &sequential, "batch verdicts diverge from sequential");
    prop_assert_eq!(batch_engine.stats(), seq_engine.stats(), "stats diverge");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `process_batch` ≡ sequential `process` for the Hummingbird router,
    /// across mixed flyover/best-effort/corrupted bursts — including the
    /// stateful stages (policing shares one token bucket across the
    /// burst; duplicate suppression sees the same stream).
    #[test]
    fn border_router_batch_equals_sequential(
        n_hops in 1usize..5,
        specs in prop::collection::vec((0u16..600, any::<bool>(), any::<bool>()), 1..24),
        dup in any::<bool>(),
    ) {
        let packets = workload(n_hops, &specs);
        let make = || router().duplicate_suppression(dup).build_boxed();
        assert_batch_matches_sequential(make(), make(), packets)?;
    }

    /// The same batch contract holds for the baseline engines (for EPIC
    /// this drives the real three-sweep batched key derivation against
    /// foreign-keyed flyover packets: fresh ones derive and fail the MAC,
    /// stale ones drop at the pass-1 freshness gate).
    #[test]
    fn baseline_engines_batch_equals_sequential(
        specs in prop::collection::vec((0u16..400, any::<bool>(), any::<bool>()), 1..16),
    ) {
        let packets = workload(2, &specs);
        for family in [EngineFamily::Helia, EngineFamily::Drkey, EngineFamily::Epic] {
            let make = || hop0_engine(family, RouterConfig::default());
            assert_batch_matches_sequential(make(), make(), packets.clone())?;
        }
    }

    /// EPIC-stamped traffic from several sources: batch ≡ sequential with
    /// verdicts that actually validate (plus stale/corrupt packets mixed
    /// in), and cached ≡ uncached key derivation through both paths.
    #[test]
    fn epic_stamped_batch_and_cache_equivalence(
        specs in prop::collection::vec((0u8..3, 0u16..400, any::<bool>(), any::<bool>()), 1..16),
        dup in any::<bool>(),
    ) {
        let packets = epic_workload(&specs);
        let make = |cache_slots: u32| -> Box<dyn Datapath + Send> {
            let cfg = RouterConfig {
                duplicate_suppression: dup,
                auth_key_cache_slots: cache_slots,
                ..RouterConfig::default()
            };
            hop0_engine(EngineFamily::Epic, cfg)
        };
        let mut probe = make(0);
        let fresh = epic_workload(&[(0, 64, false, false)]);
        let v = probe.process(&mut fresh[0].clone(), NOW_NS);
        prop_assert!(matches!(v, hummingbird::dataplane::Verdict::BestEffort { .. }),
            "stamped packet must validate best-effort: {:?}", v);

        // Batch ≡ sequential on the default (cached) configuration.
        assert_batch_matches_sequential(
            make(RouterConfig::default().auth_key_cache_slots),
            make(RouterConfig::default().auth_key_cache_slots),
            packets.clone(),
        )?;

        // Cached ≡ uncached: verdicts agree packet by packet, and core
        // stats agree once the cache counters are masked off.
        let mut cached = make(RouterConfig::default().auth_key_cache_slots);
        let mut uncached = make(0);
        for pkt in &packets {
            let a = cached.process(&mut pkt.clone(), NOW_NS);
            let b = uncached.process(&mut pkt.clone(), NOW_NS);
            prop_assert_eq!(a, b, "cached EPIC verdict diverged");
        }
        let mut cached_stats = cached.stats();
        let uncached_stats = uncached.stats();
        prop_assert_eq!(uncached_stats.key_cache_hits, 0, "disabled cache must not count");
        prop_assert_eq!(uncached_stats.key_cache_misses, 0, "disabled cache must not count");
        cached_stats.key_cache_hits = 0;
        cached_stats.key_cache_misses = 0;
        prop_assert_eq!(cached_stats, uncached_stats, "core stats diverged");
    }

    /// Helia-stamped packets also verify batch ≡ sequential with verdicts
    /// that actually reach the priority class.
    #[test]
    fn helia_stamped_batch_equals_sequential(
        payloads in prop::collection::vec(0u16..400, 1..12),
    ) {
        let mut sender = hop0_sender(EngineFamily::Helia, IsdAs::new(1, 0x10), 1_000_000);
        let packets: Vec<Vec<u8>> = payloads
            .iter()
            .enumerate()
            .map(|(i, &p)| sender.generate(&vec![0u8; usize::from(p)], NOW_MS + i as u64).unwrap())
            .collect();
        let make = || hop0_engine(EngineFamily::Helia, RouterConfig::default());
        let mut probe = make();
        let v = probe.process(&mut packets[0].clone(), NOW_NS);
        prop_assert!(v.is_flyover(), "stamped packet must prioritize: {:?}", v);
        assert_batch_matches_sequential(make(), make(), packets)?;
    }

    /// AuthKey-cache ≡ uncached: a router resolving `A_i` through the
    /// per-engine key cache reaches identical verdicts and core stats to
    /// one that re-derives (and re-expands) per packet, through both the
    /// sequential and the batch path.
    #[test]
    fn cached_key_derivation_equals_uncached(
        n_hops in 1usize..5,
        specs in prop::collection::vec((0u16..600, any::<bool>(), any::<bool>()), 1..24),
    ) {
        let packets = workload(n_hops, &specs);
        let mut cached = router().build_boxed();
        let mut uncached = router().auth_key_cache(0).build_boxed();
        for pkt in &packets {
            let a = cached.process(&mut pkt.clone(), NOW_NS);
            let b = uncached.process(&mut pkt.clone(), NOW_NS);
            prop_assert_eq!(a, b, "cached verdict diverged (sequential)");
        }
        let mut cached_stats = cached.stats();
        let uncached_stats = uncached.stats();
        prop_assert_eq!(uncached_stats.key_cache_hits, 0, "disabled cache must not count");
        prop_assert_eq!(uncached_stats.key_cache_misses, 0, "disabled cache must not count");
        // The workload repeats one reservation, so any second flyover
        // lookup is a hit; core counters agree once cache fields align.
        cached_stats.key_cache_hits = 0;
        cached_stats.key_cache_misses = 0;
        prop_assert_eq!(cached_stats, uncached_stats, "core stats diverged");

        // Batch path: same equivalence, and batch ≡ sequential counters
        // on the cached engine (burst repeats count as hits).
        let mut cached_batch = router().build_boxed();
        let mut uncached_batch = router().auth_key_cache(0).build_boxed();
        let mut bufs_a: Vec<PacketBuf> = packets.iter().cloned().map(PacketBuf::new).collect();
        let mut bufs_b: Vec<PacketBuf> = packets.into_iter().map(PacketBuf::new).collect();
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        cached_batch.process_batch(&mut bufs_a, NOW_NS, &mut out_a);
        uncached_batch.process_batch(&mut bufs_b, NOW_NS, &mut out_b);
        prop_assert_eq!(&out_a, &out_b, "cached verdict diverged (batch)");
        prop_assert_eq!(cached_batch.stats(), cached.stats(),
            "batch cache counters diverged from sequential");
    }

    /// A `BorderRouter` verdict is identical whether the packet bytes are
    /// processed directly, reconstructed through the owned `Packet` repr,
    /// or passed through a checked zero-copy `PacketView`.
    #[test]
    fn owned_and_view_paths_agree(
        n_hops in 1usize..5,
        payload in 0u16..600,
        with_res in any::<bool>(),
        corrupt in any::<bool>(),
    ) {
        let packets = workload(n_hops, &[(payload, with_res, corrupt)]);
        let direct_bytes = packets[0].clone();

        // Owned path: parse into the Repr types and re-serialize.
        let owned_bytes = match Packet::parse(&direct_bytes) {
            Ok(pkt) => pkt.to_bytes().unwrap(),
            Err(_) => direct_bytes.clone(), // unparseable stays as-is
        };
        // Zero-copy path: checked view over the same buffer.
        let view_bytes = match PacketView::new_checked(direct_bytes.clone()) {
            Ok(view) => view.into_inner(),
            Err(_) => direct_bytes.clone(),
        };

        let mut verdicts = Vec::new();
        for bytes in [direct_bytes, owned_bytes, view_bytes] {
            let mut engine = router().build();
            verdicts.push(engine.process(&mut bytes.clone(), NOW_NS));
        }
        prop_assert_eq!(verdicts[0], verdicts[1], "owned Packet path diverged");
        prop_assert_eq!(verdicts[0], verdicts[2], "PacketView path diverged");
    }
}
