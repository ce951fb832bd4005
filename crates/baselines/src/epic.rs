//! An EPIC L1-style per-packet path-validation engine (Legner et al.,
//! "EPIC: Every Packet Is Checked in the Data Plane of a Path-Aware
//! Internet", USENIX Security 2020) — the heavyweight end of the baseline
//! family the paper positions Hummingbird against.
//!
//! # The model
//!
//! EPIC L1 replaces SCION's static per-segment hop MACs with **per-packet
//! hop validation fields**: every on-path AS `A_i` holds a DRKey-derived
//! key bound to the packet's source `(AS, host)` and verifies, for every
//! single packet, a MAC over the packet's timestamp, length, destination
//! and per-packet counter — chained through the path because each hop's
//! authenticator aggregates into the SCION hop-field MAC whose SegID
//! chain the previous hops already updated. Mapped onto this repository's
//! shared pipeline ([`hummingbird_dataplane::router::stages`]):
//!
//! * **key hierarchy** — [`epic_auth_key`]: a third derivation level on
//!   the DRKey chain, `K^{epic} = PRF_{K_{A→S:H}}("epic-l1")`, so the
//!   validating AS re-derives the key from nothing but its epoch secret
//!   and the packet's (authenticated) source address;
//! * **per-packet MAC** — the 6-byte flyover tag (Eq. 7a input: DstAddr ∥
//!   PktLen ∥ TS ∥ Counter) aggregated into the hop-field MAC, playing
//!   the role of EPIC's HVF;
//! * **strict freshness** — a packet outside the `now − absTS ∈
//!   [−δ, Δ+δ]` window is **dropped**
//!   ([`DropReason::Untimely`]), not demoted: EPIC's replay suppression
//!   only covers the validation window, so anything outside it must be
//!   rejected;
//! * **replay suppression** — the shared duplicate filter, sized to the
//!   freshness window (`RouterConfig::duplicate_suppression`);
//! * **no reservations** — EPIC authenticates sources and paths but
//!   carries no bandwidth class: every validated packet rides best
//!   effort, which is exactly the contrast the QoS sweeps surface.
//!
//! Per-source state is cached in the shared
//! [`AuthKeyCache`] keyed by `(src AS, host, epoch)`, and
//! [`EpicDatapath`]'s `process_batch` override amortizes a burst of
//! cache misses into three AES sweeps (two inside
//! [`DrKeySecret::as_to_host_batch`], one multi-key pass here) plus one
//! multi-key tag sweep — the same batching discipline as the Hummingbird
//! router, so the fig5/table3 comparisons measure the *designs*, not the
//! harness.

use crate::drkey::{epoch_of, DrKeySecret};
use crate::engine::cached_epoch_secret;
use hummingbird_crypto::aes::Aes128;
use hummingbird_crypto::{
    flyover_tags_batch_with, AuthKey, AuthKeyCache, BurstKeyResolver, FlyoverMacInput, Tag,
};
use hummingbird_dataplane::dup::DuplicateSuppressor;
use hummingbird_dataplane::router::{stages, RouterConfig};
use hummingbird_dataplane::{
    Datapath, DatapathBuilder, DatapathStats, DropReason, PacketBuf, Verdict,
};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;

/// The identity an EPIC authenticator key is derived from (and cached
/// under): the packet's source AS and host plus the DRKey epoch.
pub type EpicKeyId = (IsdAs, [u8; 4], u64);

/// The EPIC L1 per-packet authenticator key for source `(src, host)`:
/// one more PRF level on the DRKey chain, domain-separated from the
/// plain host key so an EPIC deployment and a PISKES deployment of the
/// same AS never share MAC keys.
pub fn epic_auth_key(secret: &DrKeySecret, src: IsdAs, host: [u8; 4]) -> [u8; 16] {
    let host_cipher = Aes128::new(&secret.as_to_host(src, host));
    host_cipher.encrypt(&EPIC_LEVEL_BLOCK)
}

/// The domain-separation block of the third derivation level.
const EPIC_LEVEL_BLOCK: [u8; 16] =
    [b'e', b'p', b'i', b'c', b'-', b'l', b'1', 0, 0, 0, 0, 0, 0, 0, 0, 0];

/// Reusable per-burst scratch of [`EpicDatapath`]'s batched
/// `process_batch` override (allocation-free once vectors reach burst
/// size).
#[derive(Default)]
struct EpicBatchScratch {
    /// Per-packet outcome of the read-only pipeline half; `Err` also
    /// encodes the strict-freshness drop decided in pass 1.
    prepared: Vec<Result<(stages::Parsed, Option<stages::FlyoverInputs>), DropReason>>,
    /// Burst source-identity dedupe + cache resolution (shared helper).
    resolver: BurstKeyResolver<EpicKeyId>,
    /// `(src, host)` pairs that missed the cache, awaiting the sweeps.
    to_derive: Vec<(IsdAs, [u8; 4])>,
    /// Per fresh flyover packet: the MAC input of the tag sweep.
    mac_inputs: Vec<FlyoverMacInput>,
    /// 16-byte block scratch shared by the AES sweeps.
    blocks: Vec<[u8; 16]>,
    /// Intermediate per-identity ciphers of the multi-key sweeps.
    ciphers: Vec<Aes128>,
    /// Host keys out of the DRKey sweep.
    host_keys: Vec<[u8; 16]>,
    /// Flyover tags out of the tag sweep, in fresh-flyover order.
    tags: Vec<Tag>,
}

/// An EPIC L1-style border-router engine: per-packet path validation
/// with strict freshness and (optionally) replay suppression, no
/// priority class.
///
/// Constructed per AS from the DRKey master and SCION hop key;
/// [`RouterConfig`] supplies the freshness window `Δ`/`δ`, the replay
/// filter toggle, and the key-cache capacity (policing fields are
/// ignored — EPIC has nothing to police).
pub struct EpicDatapath {
    drkey_master: [u8; 16],
    hop_key: HopMacKey,
    cfg: RouterConfig,
    dup: Option<DuplicateSuppressor>,
    /// Cached epoch secret (derives lazily; rotates with the clock).
    epoch_secret: Option<(u64, DrKeySecret)>,
    /// `(src AS, host, epoch)` → expanded EPIC key, so the three-level
    /// DRKey chain and the AES key expansion run once per source per
    /// epoch instead of once per packet. `None` when
    /// `cfg.auth_key_cache_slots == 0` (the configuration the
    /// cached-≡-uncached property test compares against).
    key_cache: Option<AuthKeyCache<EpicKeyId>>,
    stats: DatapathStats,
    batch: EpicBatchScratch,
}

impl EpicDatapath {
    /// Creates the engine with the AS's DRKey master and SCION hop key.
    pub fn new(drkey_master: [u8; 16], hop_key: HopMacKey, cfg: RouterConfig) -> Self {
        EpicDatapath {
            drkey_master,
            hop_key,
            dup: DatapathBuilder::make_suppressor(&cfg),
            epoch_secret: None,
            key_cache: (cfg.auth_key_cache_slots > 0)
                .then(|| AuthKeyCache::new(cfg.auth_key_cache_slots as usize)),
            cfg,
            stats: DatapathStats::default(),
            batch: EpicBatchScratch::default(),
        }
    }

    /// Stages 1-7 with EPIC's rules: key derivation through the
    /// three-level DRKey chain (via the per-source cache), strict
    /// freshness (stale → [`DropReason::Untimely`]), optional replay
    /// suppression, no policing, no priority class.
    fn process_one(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let EpicDatapath {
            drkey_master,
            hop_key,
            cfg,
            dup,
            epoch_secret,
            key_cache,
            stats: _,
            batch: _,
        } = self;
        let now_ms = now_ns / 1_000_000;
        let epoch = epoch_of(now_ms / 1000);
        let (parsed, inputs) = match stages::prepare(pkt) {
            Ok(prep) => prep,
            Err(r) => return Verdict::Drop(r),
        };
        let auth_key = match &inputs {
            Some(inputs) => {
                // EPIC validates the window *before* spending AES cycles
                // on the key chain: a stale packet is rejected outright.
                if !stages::freshness(cfg, &parsed, &inputs.res_info, now_ms) {
                    return Verdict::Drop(DropReason::Untimely);
                }
                let id = (parsed.addr.src, parsed.addr.src_host, epoch);
                let mut derive = || {
                    let secret = cached_epoch_secret(epoch_secret, drkey_master, epoch);
                    AuthKey::new(epic_auth_key(secret, id.0, id.1))
                };
                Some(match key_cache {
                    Some(cache) => cache.get_or_derive(&id, derive).clone(),
                    None => derive(),
                })
            }
            None => None,
        };
        let flyover = inputs.as_ref().zip(auth_key.as_ref());
        // `eligible` is constant `false`: EPIC has no priority class, so
        // every validated packet — tagged or plain — rides best effort.
        let out = stages::complete(
            pkt,
            now_ns,
            hop_key,
            None,
            dup.as_mut(),
            &parsed,
            flyover,
            |_, _, _| false,
        );
        out.verdict
    }
}

impl Datapath for EpicDatapath {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let verdict = self.process_one(pkt, now_ns);
        self.stats.record(verdict);
        verdict
    }

    /// The batched EPIC pipeline, mirroring `BorderRouter::process_batch`:
    /// the read-only half (parse + MAC-input reconstruction + the strict
    /// freshness gate) runs over the whole burst first; distinct source
    /// identities are **deduplicated** and resolved against the
    /// [`AuthKeyCache`]; the misses run through **three AES sweeps** (the
    /// two-level [`DrKeySecret::as_to_host_batch`] plus one multi-key
    /// [`Aes128::encrypt_blocks_per_key`]-shaped pass for the EPIC
    /// level); every fresh tag comes out of **one multi-key AES pass**
    /// ([`flyover_tags_batch_with`]). The stateful stages (hop-field
    /// verification, replay suppression, header mutation) then run per
    /// packet in input order — verdicts and stats stay element-wise
    /// identical to sequential [`Datapath::process`] calls (enforced by
    /// `tests/prop_datapath.rs`; the cache-counter caveat of
    /// [`AuthKeyCache::record_burst_hit`] applies here too).
    fn process_batch(&mut self, pkts: &mut [PacketBuf], now_ns: u64, out: &mut Vec<Verdict>) {
        let EpicDatapath { drkey_master, hop_key, cfg, dup, epoch_secret, key_cache, stats, batch } =
            self;
        let EpicBatchScratch {
            prepared,
            resolver,
            to_derive,
            mac_inputs,
            blocks,
            ciphers,
            host_keys,
            tags,
        } = batch;
        prepared.clear();
        resolver.begin();
        to_derive.clear();
        mac_inputs.clear();
        host_keys.clear();
        tags.clear();
        let now_ms = now_ns / 1_000_000;
        let epoch = epoch_of(now_ms / 1000);

        // Pass 1 (read-only): parse, strict-freshness gate, and
        // source-identity dedupe resolved against the key cache.
        for pkt in pkts.iter() {
            let mut prep = stages::prepare(pkt.as_bytes());
            if let Ok((parsed, Some(inputs))) = &prep {
                if !stages::freshness(cfg, parsed, &inputs.res_info, now_ms) {
                    // Decided here, sequenced in pass 2 — exactly what a
                    // sequential run would return for this packet.
                    prep = Err(DropReason::Untimely);
                } else {
                    let id = (parsed.addr.src, parsed.addr.src_host, epoch);
                    resolver.visit(id, key_cache.as_mut());
                    mac_inputs.push(inputs.mac_input);
                }
            }
            prepared.push(prep);
        }

        // The amortized per-burst work: the cache misses run through the
        // two DRKey sweeps, one multi-key EPIC-level sweep, and the key
        // expansion; then every fresh tag comes out of one multi-key
        // pass.
        to_derive.extend(resolver.pending().map(|&(src, host, _)| (src, host)));
        if !to_derive.is_empty() {
            let secret = cached_epoch_secret(epoch_secret, drkey_master, epoch);
            secret.as_to_host_batch(to_derive, blocks, ciphers, host_keys);
            ciphers.clear();
            ciphers.extend(host_keys.iter().map(Aes128::new));
            blocks.clear();
            blocks.extend(std::iter::repeat_n(EPIC_LEVEL_BLOCK, host_keys.len()));
            Aes128::encrypt_blocks_with(|i| &ciphers[i], blocks);
            resolver
                .fill_pending(blocks.iter().map(|bytes| AuthKey::new(*bytes)), key_cache.as_mut());
        }
        flyover_tags_batch_with(|i| resolver.key_of(i), mac_inputs, blocks, tags);

        // Pass 2 (stateful, in input order).
        out.reserve(pkts.len());
        let mut next_tag = tags.iter();
        for (pkt, prep) in pkts.iter_mut().zip(prepared.drain(..)) {
            let verdict = match prep {
                Err(r) => Verdict::Drop(r),
                Ok((parsed, inputs)) => {
                    let flyover = inputs
                        .as_ref()
                        .map(|i| (i, *next_tag.next().expect("one tag per fresh flyover hop")));
                    let hop_mac = hop_key.hop_mac(&stages::hop_mac_input(&parsed));
                    let outcome = stages::complete_with_tag(
                        pkt.bytes_mut(),
                        now_ns,
                        &hop_mac,
                        None,
                        dup.as_mut(),
                        &parsed,
                        flyover,
                        |_, _, _| false,
                    );
                    outcome.verdict
                }
            };
            stats.record(verdict);
            out.push(verdict);
        }
    }

    fn engine_name(&self) -> &'static str {
        "epic"
    }

    fn stats(&self) -> DatapathStats {
        let mut stats = self.stats;
        if let Some(cache) = &self.key_cache {
            stats.key_cache_hits = cache.hits();
            stats.key_cache_misses = cache.misses();
        }
        stats
    }

    fn reset_stats(&mut self) {
        self.stats = DatapathStats::default();
        if let Some(cache) = &mut self.key_cache {
            cache.reset_counters();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{generator, hop_key, sender, sv, MASTER, NOW_MS, NOW_NS, NOW_S};
    use crate::EngineFamily::Epic;

    fn engine(cfg: RouterConfig) -> EpicDatapath {
        EpicDatapath::new(MASTER, hop_key(), cfg)
    }

    fn stamped(src: IsdAs, at_ms: u64) -> Vec<u8> {
        sender(Epic, &MASTER, src, 0, 0, NOW_S).generate(&[0u8; 300], at_ms).unwrap()
    }

    #[test]
    fn epic_validates_sources_without_priority() {
        let src = IsdAs::new(4, 0x44);
        let mut engine = engine(RouterConfig::default());
        let mut pkt = stamped(src, NOW_MS);
        let v = engine.process(&mut pkt, NOW_NS);
        assert!(matches!(v, Verdict::BestEffort { .. }), "no priority class: {v:?}");
        assert_eq!(engine.stats().best_effort, 1);

        // A different host's key does not verify (source binding).
        let secret = DrKeySecret::derive(&MASTER, epoch_of(NOW_S));
        let mut credential = Epic.credential(&sv(), &MASTER, 0, 1, &mut 0, src, 0, NOW_S);
        credential.key = AuthKey::new(epic_auth_key(&secret, src, [9, 9, 9, 9]));
        let mut other = generator(src);
        other.attach_reservation(0, credential).unwrap();
        let mut forged = other.generate(&[0u8; 300], NOW_MS).unwrap();
        assert_eq!(engine.process(&mut forged, NOW_NS), Verdict::Drop(DropReason::BadMac));
    }

    #[test]
    fn epic_keys_are_domain_separated_from_drkey() {
        let secret = DrKeySecret::derive(&[5u8; 16], 3);
        let src = IsdAs::new(1, 0x10);
        assert_ne!(
            epic_auth_key(&secret, src, [0, 0, 0, 1]),
            secret.as_to_host(src, [0, 0, 0, 1]),
            "EPIC level must not reuse the PISKES host key"
        );
    }

    #[test]
    fn stale_packets_are_dropped_not_demoted() {
        let mut engine = engine(RouterConfig::default());
        let mut pkt = stamped(IsdAs::new(4, 0x44), NOW_MS);
        // Validate 10 s late: outside [−δ, Δ+δ] — rejected outright.
        let v = engine.process(&mut pkt, NOW_NS + 10_000_000_000);
        assert_eq!(v, Verdict::Drop(DropReason::Untimely));
    }

    #[test]
    fn replay_suppression_covers_the_window() {
        let cfg = RouterConfig { duplicate_suppression: true, ..Default::default() };
        let mut engine = engine(cfg);
        let pkt = stamped(IsdAs::new(4, 0x44), NOW_MS);
        let mut first = pkt.clone();
        let mut replay = pkt;
        assert!(matches!(engine.process(&mut first, NOW_NS), Verdict::BestEffort { .. }));
        assert_eq!(
            engine.process(&mut replay, NOW_NS + 1000),
            Verdict::Drop(DropReason::Duplicate)
        );
    }

    #[test]
    fn key_cache_expands_once_per_source_epoch() {
        let mut engine = engine(RouterConfig::default());
        for i in 0..5u64 {
            let mut pkt = stamped(IsdAs::new(4, 0x44), NOW_MS + i);
            assert!(engine.process(&mut pkt, NOW_NS).egress().is_some());
        }
        let stats = engine.stats();
        assert_eq!(stats.key_cache_misses, 1, "one derivation chain per source per epoch");
        assert_eq!(stats.key_cache_hits, 4);
    }
}
