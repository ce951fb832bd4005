//! Per-packet [`Datapath`] engines for the Helia and DRKey baselines, so
//! the simulator, testbed and every benchmark binary can sweep
//! Hummingbird vs Helia vs DRKey through one interface.
//!
//! Both engines reuse the border-router pipeline stages of
//! [`hummingbird_dataplane::router::stages`] — parse, flyover-MAC
//! aggregation, freshness, SCION hop-field verification, header
//! advancement — and substitute their own key hierarchies for
//! Hummingbird's `A_i = PRF_SV(ResInfo)`:
//!
//! * [`HeliaDatapath`] derives the authenticator from the **DRKey
//!   AS-to-AS hierarchy bound to a fixed 16 s slot** (per-source-AS
//!   authorization, AS-assigned bandwidth) — the Wyss et al. model;
//! * [`DrKeyDatapath`] performs **per-packet source authentication
//!   only** (PISKES-style `K_{A→B:H}` host keys): no reservations, no
//!   priority class, every authenticated packet rides best effort.
//!
//! Packets either engine verifies are stamped by a plain
//! `hummingbird_dataplane::SourceGenerator` carrying the family's
//! [`EngineFamily::credential`](crate::EngineFamily::credential).

use crate::drkey::{epoch_of, DrKeySecret};
use crate::helia::{slot_key, slot_of, SLOT_SECS};
use hummingbird_crypto::aes::Aes128;
use hummingbird_crypto::{AuthKey, AuthKeyCache};
use hummingbird_dataplane::router::{stages, RouterConfig, DEFAULT_AUTH_KEY_CACHE_SLOTS};
use hummingbird_dataplane::{Datapath, DatapathStats, Policer, Verdict};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;

/// The per-packet Helia authenticator key: the per-slot grant key
/// (`slot_key`) further bound to the AS-assigned monitor index and
/// bandwidth, so a source cannot rewrite either field without breaking
/// the MAC (they are AS-chosen in Helia — the property under test).
pub fn helia_packet_key(
    drkey_master: &[u8; 16],
    source_as: IsdAs,
    slot: u64,
    res_id: u32,
    bw_encoded: u16,
) -> [u8; 16] {
    let grant = Aes128::new(&slot_key(drkey_master, source_as, slot));
    let mut block = [0u8; 16];
    block[..4].copy_from_slice(&res_id.to_be_bytes());
    block[4..6].copy_from_slice(&bw_encoded.to_be_bytes());
    block[6..10].copy_from_slice(b"hpkt");
    grant.encrypt(&block)
}

/// A Helia-style border-router engine.
///
/// Verifies flyover-tagged packets against the DRKey-derived per-slot,
/// per-source-AS key, enforces slot freshness (a packet stamped for a
/// past or future slot is demoted, never prioritized — Helia cannot
/// reserve ahead of time), polices per monitor index, and forwards plain
/// SCION packets best-effort after standard hop-field verification.
pub struct HeliaDatapath {
    drkey_master: [u8; 16],
    hop_key: HopMacKey,
    cfg: RouterConfig,
    policer: Policer,
    /// `(source AS, slot, res_id, bw)` → expanded packet key: the shared
    /// [`AuthKeyCache`], instantiated over Helia's grant identity, so
    /// consecutive packets of one flow skip
    /// the DRKey derivation chain *and* the AES key expansion (a real
    /// Helia router holds per-grant keys for the whole slot). `None`
    /// when `cfg.auth_key_cache_slots == 0`.
    key_cache: Option<AuthKeyCache<(IsdAs, u64, u32, u16)>>,
    stats: DatapathStats,
}

impl HeliaDatapath {
    /// Creates the engine with the AS's DRKey master and SCION hop key.
    pub fn new(drkey_master: [u8; 16], hop_key: HopMacKey, cfg: RouterConfig) -> Self {
        HeliaDatapath {
            drkey_master,
            hop_key,
            policer: Policer::new(cfg.policer_slots, cfg.burst_time_ns),
            key_cache: (cfg.auth_key_cache_slots > 0)
                .then(|| AuthKeyCache::new(cfg.auth_key_cache_slots as usize)),
            cfg,
            stats: DatapathStats::default(),
        }
    }

    /// Runs the shared [`stages::run_pipeline`] driver with Helia's key
    /// hierarchy: the slot index is recovered from the packet's
    /// reservation start (slots are aligned), the key is bound to the
    /// *source AS* — not to the destination, host, or path — and slot
    /// freshness rides the shared freshness stage (the reservation
    /// window *is* the slot) plus a current-slot check.
    fn process_inner(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let HeliaDatapath { drkey_master, hop_key, cfg, policer, key_cache, stats } = self;
        let now_s = now_ns / 1_000_000_000;
        let out = stages::run_pipeline(
            pkt,
            now_ns,
            hop_key,
            Some(policer),
            None,
            |parsed, inputs| {
                let slot = u64::from(inputs.res_info.res_start) / SLOT_SECS;
                let id =
                    (parsed.addr.src, slot, inputs.res_info.res_id, inputs.res_info.bw_encoded);
                let derive = || {
                    AuthKey::new(helia_packet_key(drkey_master, parsed.addr.src, slot, id.2, id.3))
                };
                match key_cache {
                    Some(cache) => cache.get_or_derive(&id, derive).clone(),
                    None => derive(),
                }
            },
            |parsed, inputs, now_ms| {
                let slot = u64::from(inputs.res_info.res_start) / SLOT_SECS;
                stages::freshness(cfg, parsed, &inputs.res_info, now_ms) && slot == slot_of(now_s)
            },
        );
        stats.demoted_overuse += u64::from(out.demoted_overuse);
        stats.demoted_untimely += u64::from(out.demoted_untimely);
        out.verdict
    }
}

impl Datapath for HeliaDatapath {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let verdict = self.process_inner(pkt, now_ns);
        self.stats.record(verdict);
        verdict
    }

    fn engine_name(&self) -> &'static str {
        "helia"
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

/// Derives (and memoizes) the DRKey epoch secret — shared by the engines'
/// hot paths (DRKey here, EPIC in [`crate::epic`]) and the key-service
/// helpers.
pub(crate) fn cached_epoch_secret<'a>(
    cache: &'a mut Option<(u64, DrKeySecret)>,
    master: &[u8; 16],
    epoch: u64,
) -> &'a DrKeySecret {
    match cache {
        Some((e, _)) if *e == epoch => {}
        _ => *cache = Some((epoch, DrKeySecret::derive(master, epoch))),
    }
    &cache.as_ref().expect("just cached").1
}

/// A DRKey-only engine: per-packet source authentication without
/// reservations (the PISKES model Helia builds on).
///
/// Flyover-tagged packets carry a MAC under the host key
/// `K_{A→B:H} = PRF_{K_{A→B}}(H)`; the engine re-derives the key from the
/// packet's source AS + host address and the current epoch, verifies, and
/// forwards **best effort** (there is no priority class to grant). A bad
/// authenticator is a drop; plain SCION packets pass standard hop-field
/// verification only.
pub struct DrKeyDatapath {
    drkey_master: [u8; 16],
    hop_key: HopMacKey,
    /// Cached epoch secret (derives lazily; rotates with the clock).
    epoch_secret: Option<(u64, DrKeySecret)>,
    /// `(source AS, host, epoch)` → expanded host key, so the AES key
    /// expansion of `K_{A→B:H}` runs once per host per epoch instead of
    /// once per packet (the shared [`AuthKeyCache`] over the PISKES key
    /// identity).
    host_key_cache: AuthKeyCache<(IsdAs, [u8; 4], u64)>,
    stats: DatapathStats,
}

impl DrKeyDatapath {
    /// Creates the engine with the AS's DRKey master and SCION hop key.
    pub fn new(drkey_master: [u8; 16], hop_key: HopMacKey) -> Self {
        DrKeyDatapath {
            drkey_master,
            hop_key,
            epoch_secret: None,
            host_key_cache: AuthKeyCache::new(DEFAULT_AUTH_KEY_CACHE_SLOTS as usize),
            stats: DatapathStats::default(),
        }
    }

    /// Runs the shared [`stages::run_pipeline`] driver with the DRKey
    /// host-key hierarchy and no priority class at all: `eligible` is
    /// constant `false` and the policing stage is disabled, so every
    /// authenticated packet — flyover-tagged or plain — rides best
    /// effort.
    fn process_inner(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let DrKeyDatapath { drkey_master, hop_key, epoch_secret, host_key_cache, stats: _ } = self;
        let now_s = now_ns / 1_000_000_000;
        let epoch = epoch_of(now_s);
        let out = stages::run_pipeline(
            pkt,
            now_ns,
            hop_key,
            None,
            None,
            |parsed, _| {
                let id = (parsed.addr.src, parsed.addr.src_host, epoch);
                host_key_cache
                    .get_or_derive(&id, || {
                        let sv = cached_epoch_secret(epoch_secret, drkey_master, epoch);
                        AuthKey::new(sv.as_to_host(parsed.addr.src, parsed.addr.src_host))
                    })
                    .clone()
            },
            |_, _, _| false,
        );
        out.verdict
    }
}

impl Datapath for DrKeyDatapath {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let verdict = self.process_inner(pkt, now_ns);
        self.stats.record(verdict);
        verdict
    }

    fn engine_name(&self) -> &'static str {
        "drkey"
    }

    fn stats(&self) -> DatapathStats {
        let mut stats = self.stats;
        stats.key_cache_hits = self.host_key_cache.hits();
        stats.key_cache_misses = self.host_key_cache.misses();
        stats
    }

    fn reset_stats(&mut self) {
        self.stats = DatapathStats::default();
        self.host_key_cache.reset_counters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{generator, hop_key, sender, sv, MASTER, NOW_MS, NOW_NS, NOW_S};
    use crate::EngineFamily::{Drkey, Helia};
    use hummingbird_dataplane::DropReason;

    fn helia_engine() -> HeliaDatapath {
        HeliaDatapath::new(MASTER, hop_key(), RouterConfig::default())
    }

    #[test]
    fn helia_roundtrip_verifies_and_prioritizes() {
        let src = IsdAs::new(3, 0x30);
        let mut pkt =
            sender(Helia, &MASTER, src, 7, 100_000, NOW_S).generate(&[0u8; 300], NOW_MS).unwrap();
        let mut engine = helia_engine();
        let v = engine.process(&mut pkt, NOW_NS);
        assert!(v.is_flyover(), "{v:?}");
        assert_eq!(engine.stats().flyover, 1);
    }

    #[test]
    fn helia_rejects_wrong_master_and_stale_slots() {
        let src = IsdAs::new(3, 0x30);
        let mut engine = helia_engine();

        // Grant issued by a *different* AS (wrong master): drops.
        let mut forged = sender(Helia, &[0xAB; 16], src, 7, 100_000, NOW_S)
            .generate(&[0u8; 64], NOW_MS)
            .unwrap();
        assert_eq!(engine.process(&mut forged, NOW_NS), Verdict::Drop(DropReason::BadMac));

        // Right master but a past slot: demoted, never prioritized (Helia
        // cannot reserve outside the current slot).
        let mut stale = sender(Helia, &MASTER, src, 7, 100_000, NOW_S - 2 * SLOT_SECS)
            .generate(&[0u8; 64], NOW_MS)
            .unwrap();
        let v = engine.process(&mut stale, NOW_NS);
        assert!(matches!(v, Verdict::BestEffort { .. }), "{v:?}");
        assert_eq!(engine.stats().demoted_untimely, 1);
    }

    #[test]
    fn helia_polices_the_as_assigned_share() {
        // 240 kbps: one 1500 B packet fills the 50 ms burst budget.
        let mut sender = sender(Helia, &MASTER, IsdAs::new(3, 0x30), 3, 240, NOW_S);
        let mut engine = helia_engine();
        let mut flyover = 0;
        let mut demoted = 0;
        for _ in 0..20 {
            let mut pkt = sender.generate(&[0u8; 1400], NOW_MS).unwrap();
            match engine.process(&mut pkt, NOW_NS) {
                v if v.is_flyover() => flyover += 1,
                Verdict::BestEffort { .. } => demoted += 1,
                v => panic!("unexpected {v:?}"),
            }
        }
        assert!(flyover >= 1);
        assert!(demoted > 10, "sustained overuse of the AS-assigned share demotes");
    }

    #[test]
    fn drkey_authenticates_sources_without_priority() {
        let src = IsdAs::new(4, 0x44);
        let mut engine = DrKeyDatapath::new(MASTER, hop_key());
        // The table keys the credential to src_host = 0.0.0.1, the host
        // address SourceGenerator stamps.
        let mut pkt =
            sender(Drkey, &MASTER, src, 0, 0, NOW_S).generate(&[0u8; 200], NOW_MS).unwrap();
        let v = engine.process(&mut pkt, NOW_NS);
        assert!(matches!(v, Verdict::BestEffort { .. }), "no priority class: {v:?}");

        // A different host's key does not verify.
        let secret = DrKeySecret::derive(&MASTER, epoch_of(NOW_S));
        let mut credential = Drkey.credential(&sv(), &MASTER, 0, 1, &mut 0, src, 0, NOW_S);
        credential.key = AuthKey::new(secret.as_to_host(src, [9, 9, 9, 9]));
        let mut other = generator(src);
        other.attach_reservation(0, credential).unwrap();
        let mut forged = other.generate(&[0u8; 200], NOW_MS).unwrap();
        assert_eq!(engine.process(&mut forged, NOW_NS), Verdict::Drop(DropReason::BadMac));
    }
}
