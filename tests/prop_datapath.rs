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
//! 3. **Cached ≡ uncached** on EPIC, the engine whose batch path
//!    resolves keys through `BurstKeyResolver` — and with a key cache
//!    small enough that its generations flip mid-burst, batch ≡
//!    sequential still holds and each path counts exactly the hits and
//!    misses a replayed `AuthKeyCache` counts.
//! 4. **Policer slots across the whole ResID range** — bursts whose
//!    ResIDs span the default 10⁵ slots, each led by a packet whose
//!    policing grows (reallocates) the deadline array after the batch
//!    path's pass 1 has already hinted the burst's later slots, leave
//!    verdicts, bytes, stats and every policer slot as sequential
//!    `process` leaves them.

use hummingbird::crypto::{AuthKey, AuthKeyCache, BurstKeyResolver, RES_ID_MAX};
use hummingbird::dataplane::router::stages;
use hummingbird::dataplane::{
    forge_path, BeaconHop, Datapath, DatapathBuilder, PacketBuf, RouterConfig, SourceGenerator,
    SourceReservation,
};
use hummingbird::{IsdAs, ResInfo, SecretValue};
use hummingbird_baselines::EngineFamily;
use hummingbird_wire::bwcls;
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

/// A hop-0 EPIC engine with a key cache of `cache_slots` (0: none).
fn epic_engine(cache_slots: u32, dup: bool) -> Box<dyn Datapath + Send> {
    let cfg = RouterConfig {
        duplicate_suppression: dup,
        auth_key_cache_slots: cache_slots,
        ..RouterConfig::default()
    };
    hop0_engine(EngineFamily::Epic, cfg)
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
    /// in).
    #[test]
    fn epic_stamped_batch_and_cache_equivalence(
        specs in prop::collection::vec((0u8..3, 0u16..400, any::<bool>(), any::<bool>()), 1..16),
        dup in any::<bool>(),
    ) {
        let packets = epic_workload(&specs);
        let make = || epic_engine(RouterConfig::default().auth_key_cache_slots, dup);
        let mut probe = make();
        let fresh = epic_workload(&[(0, 64, false, false)]);
        let v = probe.process(&mut fresh[0].clone(), NOW_NS);
        prop_assert!(matches!(v, hummingbird::dataplane::Verdict::BestEffort { .. }),
            "stamped packet must validate best-effort: {:?}", v);
        assert_batch_matches_sequential(make(), make(), packets)?;
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

    /// AuthKey-cache ≡ uncached on EPIC: an engine resolving its
    /// per-source keys through the key cache reaches identical verdicts
    /// and core stats to one that re-derives (and re-expands) per packet,
    /// through both the sequential and the batch path.
    #[test]
    fn cached_key_derivation_equals_uncached(
        specs in prop::collection::vec((0u8..3, 0u16..400, any::<bool>(), any::<bool>()), 1..24),
        dup in any::<bool>(),
    ) {
        let packets = epic_workload(&specs);
        let cached_slots = RouterConfig::default().auth_key_cache_slots;
        let mut cached = epic_engine(cached_slots, dup);
        let mut uncached = epic_engine(0, dup);
        for pkt in &packets {
            let a = cached.process(&mut pkt.clone(), NOW_NS);
            let b = uncached.process(&mut pkt.clone(), NOW_NS);
            prop_assert_eq!(a, b, "cached verdict diverged (sequential)");
        }
        let mut cached_stats = cached.stats();
        let uncached_stats = uncached.stats();
        prop_assert_eq!(uncached_stats.key_cache_hits, 0, "disabled cache must not count");
        prop_assert_eq!(uncached_stats.key_cache_misses, 0, "disabled cache must not count");
        // The workload repeats three sources, so any second lookup is a
        // hit; core counters agree once cache fields align.
        cached_stats.key_cache_hits = 0;
        cached_stats.key_cache_misses = 0;
        prop_assert_eq!(cached_stats, uncached_stats, "core stats diverged");

        // Batch path: same equivalence, and batch ≡ sequential counters
        // on the cached engine (burst repeats count as hits).
        let mut cached_batch = epic_engine(cached_slots, dup);
        let mut uncached_batch = epic_engine(0, dup);
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

/// Per spec `(src, forged, stale)`: one EPIC-stamped packet at hop 0 of
/// the two-hop path from source AS `0x10 + src`. Forged ones carry a
/// credential under a wrong DRKey master, which the engine still derives
/// (and caches) a key for before the MAC check drops the packet; stale
/// ones are dropped before key derivation.
fn epic_source_mix(specs: &[(u64, bool, bool)]) -> Vec<Vec<u8>> {
    const WRONG_MASTER: [u8; 16] = [0xEE; 16];
    specs
        .iter()
        .enumerate()
        .map(|(i, &(src, forged, stale))| {
            let src = IsdAs::new(1, 0x10 + src);
            let master = if forged { &WRONG_MASTER } else { &MASTER };
            let credential =
                EngineFamily::Epic.credential(&sv(0), master, 0, 1, &mut 1, src, 0, NOW_S);
            let mut sender = SourceGenerator::new(src, IsdAs::new(2, 0x20), beaconed_path(2));
            sender.attach_reservation(0, credential).unwrap();
            let at = if stale { NOW_MS - 10_000 } else { NOW_MS } + i as u64;
            sender.generate(&[0u8; 64], at).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cache rollover mid-burst: an EPIC key cache of a few slots flips
    /// generations inside most bursts; repeats within a burst, forged
    /// sources and stale packets are mixed in. Verdicts stay batch ≡
    /// sequential, and each path's hit/miss counters equal an
    /// `AuthKeyCache` over the source identities replaying what that path
    /// does (per packet sequentially; per burst — dedupe, lookups, then
    /// inserts — in batch).
    #[test]
    fn key_cache_flips_inside_bursts_keep_batch_equal_to_sequential(
        specs in prop::collection::vec((0u64..24, any::<bool>(), any::<bool>()), 1..96),
        slots in 2u32..12,
        burst in 1usize..33,
    ) {
        let packets = epic_source_mix(&specs);
        let (mut seq_engine, mut batch_engine) = (epic_engine(slots, false), epic_engine(slots, false));

        let sequential: Vec<_> =
            packets.iter().map(|p| seq_engine.process(&mut p.clone(), NOW_NS)).collect();
        let mut bufs: Vec<PacketBuf> = packets.iter().cloned().map(PacketBuf::new).collect();
        let mut batched = Vec::new();
        for chunk in bufs.chunks_mut(burst) {
            batch_engine.process_batch(chunk, NOW_NS, &mut batched);
        }
        prop_assert_eq!(&batched, &sequential, "batch verdicts diverge from sequential");

        // The identity of each packet that reaches key derivation: fresh
        // and tagged. Any key will do, only the counters are compared.
        let cache_id = |p: &Vec<u8>| match stages::prepare(p) {
            Ok((parsed, Some(inputs)))
                if stages::freshness(&RouterConfig::default(), &parsed, &inputs.res_info, NOW_MS) =>
            {
                Some((parsed.addr.src, parsed.addr.src_host))
            }
            _ => None,
        };
        let key = || AuthKey::new([0; 16]);
        let mut seq_ref: AuthKeyCache<(IsdAs, [u8; 4])> = AuthKeyCache::new(slots as usize);
        for id in packets.iter().filter_map(cache_id) {
            seq_ref.get_or_derive(&id, key);
        }
        let seq = seq_engine.stats();
        prop_assert_eq!((seq.key_cache_hits, seq.key_cache_misses),
            (seq_ref.hits(), seq_ref.misses()), "sequential counters differ from the replay");

        let mut batch_ref: AuthKeyCache<(IsdAs, [u8; 4])> = AuthKeyCache::new(slots as usize);
        let mut resolver = BurstKeyResolver::new();
        for chunk in packets.chunks(burst) {
            resolver.begin();
            for id in chunk.iter().filter_map(cache_id) {
                resolver.visit(id, Some(&mut batch_ref));
            }
            let keys: Vec<_> = resolver.pending().map(|_| key()).collect();
            resolver.fill_pending(keys, Some(&mut batch_ref));
        }
        let batch = batch_engine.stats();
        prop_assert_eq!((batch.key_cache_hits, batch.key_cache_misses),
            (batch_ref.hits(), batch_ref.misses()), "batch counters differ from the replay");
    }
}

/// The default ResIDmax: the bursts below span every slot below it.
const RES_IDS: u32 = 100_000;

/// Reservation rates in kbps. At `BurstTime` = 50 ms a slot at the
/// slowest admits one packet of a few hundred bytes per instant and at the
/// fastest about a dozen, so a probe after the run reads its deadline.
const RATES_KBPS: [u64; 3] = [100, 300, 1_000];

/// A hop-0 reserved packet of the two-hop path on `res_id` at `bw_kbps`,
/// with a valid flyover MAC, stamped `at_ms`.
fn reserved_on(res_id: u32, bw_kbps: u64, payload: usize, at_ms: u64) -> Vec<u8> {
    let (ingress, egress) = interfaces(2, 0);
    let res_info = ResInfo {
        ingress,
        egress,
        res_id,
        bw_encoded: bwcls::encode_floor(bw_kbps).unwrap(),
        res_start: NOW_S as u32 - 50,
        duration: 600,
    };
    let key = sv(0).derive_key(&res_info);
    let mut sender =
        SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), beaconed_path(2));
    sender.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
    sender.generate(&vec![0u8; payload], at_ms).unwrap()
}

/// One burst of the policer workload: `lead` draws the ResID of its first
/// packet, and each `(kind, draw, payload, rate, corrupt)` describes one
/// later packet.
type PolicerBurst = (u32, Vec<(u8, u32, u16, u8, bool)>);

/// Builds the bursts. Burst `k` opens with a valid packet on a ResID
/// above every earlier one: its `check` is the only one that grows the
/// array, and from the second burst on it reallocates it (growth doubles
/// capacity, and no earlier growth reached ResIDmax). Next comes a packet
/// on the previous burst's lead, resident and hinted in pass 1, then the
/// drawn packets: one on a ResID used before (so slot state carries across
/// packets and bursts), one on a new ResID below this burst's lead, one
/// at or beyond ResIDmax, or a plain packet, any of them corrupted. Leads
/// climb through the whole range; returns the bursts and every in-range
/// ResID.
fn policer_workload(bursts: &[PolicerBurst]) -> (Vec<Vec<Vec<u8>>>, Vec<u32>) {
    let mut plain =
        SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), beaconed_path(2));
    let mut at_ms = NOW_MS;
    let mut stamp = || {
        at_ms += 1;
        at_ms
    };
    let mut leads: Vec<u32> = Vec::new();
    let mut used = Vec::new();
    let built = bursts
        .iter()
        .enumerate()
        .map(|(k, (lead_draw, rest))| {
            let next_free = leads.last().map_or(0, |&l| l + 1);
            let room = (RES_IDS - next_free) / (bursts.len() - k) as u32;
            let lead = next_free + lead_draw % room;
            let mut burst = vec![reserved_on(lead, RATES_KBPS[k % 3], 200, stamp())];
            if let Some(&previous) = leads.last() {
                burst.push(reserved_on(previous, RATES_KBPS[0], 200, stamp()));
            }
            leads.push(lead);
            used.push(lead);
            for (i, &(kind, draw, payload, rate, corrupt)) in rest.iter().enumerate() {
                let (payload, bw_kbps) = (usize::from(payload), RATES_KBPS[usize::from(rate) % 3]);
                let mut bytes = match kind % 4 {
                    0 => {
                        let res_id = used[draw as usize % used.len()];
                        reserved_on(res_id, bw_kbps, payload, stamp())
                    }
                    1 => {
                        let res_id = draw % (lead + 1);
                        used.push(res_id);
                        reserved_on(res_id, bw_kbps, payload, stamp())
                    }
                    2 => {
                        let res_id = RES_IDS + draw % (RES_ID_MAX - RES_IDS + 1);
                        reserved_on(res_id, bw_kbps, payload, stamp())
                    }
                    _ => plain.generate(&vec![0u8; payload], stamp()).unwrap(),
                };
                if corrupt {
                    bytes[56 + i % 12] ^= 0x40;
                }
                burst.push(bytes);
            }
            burst
        })
        .collect();
    used.sort_unstable();
    used.dedup();
    (built, used)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Batch ≡ sequential on the default 10⁵-slot policer, with the array
    /// reallocated mid-burst after pass 1: identical verdicts, packet
    /// bytes and stats, and afterwards an identical verdict for a probe
    /// on every ResID the run policed (each probe reads that slot's
    /// deadline, since a slow reservation admits it only with budget left).
    #[test]
    fn policer_growth_mid_burst_keeps_batch_equal_to_sequential(
        bursts in prop::collection::vec(
            (any::<u32>(), prop::collection::vec(
                (0u8..4, any::<u32>(), 0u16..600, 0u8..3, any::<bool>()), 0..31)),
            2..7),
        dup in any::<bool>(),
    ) {
        let (bursts, used) = policer_workload(&bursts);
        let make = || router().duplicate_suppression(dup).build();
        let (mut seq_engine, mut batch_engine) = (make(), make());
        let mut now_ns = NOW_NS;
        for burst in bursts {
            now_ns += 7_000_000;
            let mut sequential = Vec::new();
            let mut seq_bytes = Vec::new();
            for pkt in &burst {
                let mut bytes = pkt.clone();
                sequential.push(seq_engine.process(&mut bytes, now_ns));
                seq_bytes.push(bytes);
            }
            let mut bufs: Vec<PacketBuf> = burst.into_iter().map(PacketBuf::new).collect();
            let mut batched = Vec::new();
            batch_engine.process_batch(&mut bufs, now_ns, &mut batched);
            prop_assert_eq!(&batched, &sequential, "batch verdicts diverge from sequential");
            for (buf, bytes) in bufs.iter().zip(&seq_bytes) {
                prop_assert_eq!(buf.as_bytes(), bytes.as_slice(), "packet bytes diverge");
            }
            prop_assert_eq!(batch_engine.stats(), seq_engine.stats(), "stats diverge");
        }
        for (i, &res_id) in used.iter().enumerate() {
            // Stamped after every workload packet, within the clock skew.
            let probe = reserved_on(res_id, RATES_KBPS[1], 300, NOW_MS + 250 + i as u64);
            let seq = seq_engine.process(&mut probe.clone(), now_ns);
            let batch = batch_engine.process(&mut probe.clone(), now_ns);
            prop_assert_eq!(batch, seq, "policer slot {} diverges", res_id);
        }
        prop_assert_eq!(batch_engine.stats(), seq_engine.stats(), "probe stats diverge");
    }
}
