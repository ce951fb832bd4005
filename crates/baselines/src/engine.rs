//! The Helia and DRKey engine families: instances of the one batched
//! border-router pipeline ([`BorderRouter`]), so the simulator, testbed
//! and every benchmark binary can sweep Hummingbird vs Helia vs DRKey
//! through one interface.
//!
//! Each family substitutes its own key chain for Hummingbird's
//! `A_i = PRF_SV(ResInfo)` and keeps the rest of the pipeline — parse,
//! flyover-MAC aggregation, SCION hop-field verification, header
//! advancement:
//!
//! * [`Helia`] derives the authenticator from the **DRKey AS-to-AS
//!   hierarchy bound to a fixed 16 s slot** (per-source-AS
//!   authorization, AS-assigned bandwidth) — the Wyss et al. model — in a
//!   four-level chain from the DRKey master;
//! * [`DrKey`] performs **per-packet source authentication only**
//!   (PISKES-style `K_{A→B:H}` host keys, a two-level chain from the
//!   epoch secret): no reservations, no priority class, every
//!   authenticated packet rides best effort.
//!
//! Neither keeps key state: both derive every packet's key on the fly.
//! Packets either engine verifies are stamped by a plain
//! `hummingbird_dataplane::SourceGenerator` carrying the family's
//! [`EngineFamily::credential`](crate::EngineFamily::credential).

use crate::drkey::{as_block, epoch_block, epoch_of, host_block, EpochRoot};
use crate::helia::{slot_block, slot_key, slot_of, SLOT_SECS};
use hummingbird_crypto::aes::Aes128;
use hummingbird_dataplane::router::stages::{self, FlyoverInputs, Parsed};
use hummingbird_dataplane::router::RouterConfig;
use hummingbird_dataplane::{BorderRouter, Class, DropReason, Family};
use hummingbird_wire::IsdAs;

/// The per-packet Helia authenticator key: the per-slot grant key
/// (`slot_key`) further bound to the AS-assigned monitor index and
/// bandwidth, so a source cannot rewrite either field without breaking
/// the MAC (they are AS-chosen in Helia — the property under test).
pub(crate) fn helia_packet_key(
    drkey_master: &[u8; 16],
    source_as: IsdAs,
    slot: u64,
    res_id: u32,
    bw_encoded: u16,
) -> [u8; 16] {
    let grant = Aes128::new(&slot_key(drkey_master, source_as, slot));
    grant.encrypt(&packet_block(res_id, bw_encoded))
}

/// The PRF input of the packet key under the slot key.
fn packet_block(res_id: u32, bw_encoded: u16) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..4].copy_from_slice(&res_id.to_be_bytes());
    block[4..6].copy_from_slice(&bw_encoded.to_be_bytes());
    block[6..10].copy_from_slice(b"hpkt");
    block
}

/// The Helia family.
///
/// Verifies flyover-tagged packets against the DRKey-derived per-slot,
/// per-source-AS key, enforces slot freshness (a packet stamped for a
/// past or future slot is demoted, never prioritized — Helia cannot
/// reserve ahead of time), polices per monitor index, and forwards plain
/// SCION packets best-effort after standard hop-field verification.
pub struct Helia {
    master: Aes128,
}

impl Helia {
    /// The family of an AS with DRKey master `drkey_master`.
    pub fn new(drkey_master: [u8; 16]) -> Self {
        Helia { master: Aes128::new(&drkey_master) }
    }
}

/// Helia's key chain is `helia_packet_key` in four levels from the
/// DRKey master: the epoch secret of the packet's slot, `K_{A→B}` for the
/// *source AS* (not the destination, host or path), the slot key, and
/// the packet key over the AS-assigned monitor index and bandwidth. The
/// slot comes from the packet's reservation start (slots are aligned),
/// so the epoch secret is a level of the chain, not cached state. Slot
/// freshness rides the shared freshness stage (the reservation window
/// *is* the slot) plus a current-slot check.
impl Family for Helia {
    const NAME: &'static str = "helia";
    const DUPLICATE_FILTER: bool = false;
    type Chain = [[u8; 16]; 4];

    fn key_chain(&self, parsed: &Parsed, inputs: &FlyoverInputs) -> Self::Chain {
        let info = &inputs.res_info;
        let slot = u64::from(info.res_start) / SLOT_SECS;
        [
            epoch_block(epoch_of(slot * SLOT_SECS)),
            as_block(parsed.addr.src),
            slot_block(slot),
            packet_block(info.res_id, info.bw_encoded),
        ]
    }

    fn root(&mut self, _now_s: u64) -> &Aes128 {
        &self.master
    }

    fn class(
        &self,
        cfg: &RouterConfig,
        parsed: &Parsed,
        inputs: &FlyoverInputs,
        now_ms: u64,
    ) -> Result<Class, DropReason> {
        let slot = u64::from(inputs.res_info.res_start) / SLOT_SECS;
        let fresh = stages::freshness(cfg, parsed, &inputs.res_info, now_ms);
        Ok(if fresh && slot == slot_of(now_ms / 1000) { Class::Priority } else { Class::Demoted })
    }
}

/// A Helia-style border router.
pub type HeliaDatapath = BorderRouter<Helia>;

/// The DRKey-only family: per-packet source authentication without
/// reservations (the PISKES model Helia builds on).
///
/// Flyover-tagged packets carry a MAC under the host key
/// `K_{A→B:H} = PRF_{K_{A→B}}(H)`; the engine re-derives the key from the
/// packet's source AS + host address under the current epoch's secret,
/// verifies, and forwards **best effort** (there is no priority class to
/// grant, so no freshness rule either). A bad authenticator is a drop;
/// plain SCION packets pass standard hop-field verification only.
pub struct DrKey {
    root: EpochRoot,
}

impl DrKey {
    /// The family of an AS with DRKey master `drkey_master`.
    pub fn new(drkey_master: [u8; 16]) -> Self {
        DrKey { root: EpochRoot::new(drkey_master) }
    }
}

impl Family for DrKey {
    const NAME: &'static str = "drkey";
    const DUPLICATE_FILTER: bool = false;
    type Chain = [[u8; 16]; 2];

    fn key_chain(&self, parsed: &Parsed, _inputs: &FlyoverInputs) -> Self::Chain {
        [as_block(parsed.addr.src), host_block(parsed.addr.src_host)]
    }

    fn root(&mut self, now_s: u64) -> &Aes128 {
        self.root.at(now_s)
    }

    fn class(
        &self,
        _cfg: &RouterConfig,
        _parsed: &Parsed,
        _inputs: &FlyoverInputs,
        _now_ms: u64,
    ) -> Result<Class, DropReason> {
        Ok(Class::BestEffort)
    }
}

/// A DRKey-only border router.
pub type DrKeyDatapath = BorderRouter<DrKey>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drkey::DrKeySecret;
    use crate::epic::{epic_auth_key, Epic};
    use crate::testutil::{generator, hop_key, sender, sv, MASTER, NOW_MS, NOW_NS, NOW_S};
    use crate::EngineFamily;
    use hummingbird_crypto::{chained_flyover_tag, AuthKey, Tag};
    use hummingbird_dataplane::{Datapath, Verdict};

    fn helia_engine() -> HeliaDatapath {
        BorderRouter::with_family(Helia::new(MASTER), hop_key(), RouterConfig::default())
    }

    /// A stamped packet's flyover tag out of `family`'s key chain and
    /// root, and its flyover inputs.
    fn chained_tag<F: Family>(mut family: F, pkt: &[u8]) -> (Tag, FlyoverInputs) {
        let parsed = stages::parse(pkt).unwrap();
        let inputs = stages::flyover_inputs(&parsed).unwrap();
        let chain = family.key_chain(&parsed, &inputs);
        (chained_flyover_tag(family.root(NOW_S), &chain, &inputs.mac_input), inputs)
    }

    /// Each baseline family's chained tag equals the sender-side key
    /// derivation followed by `AuthKey::flyover_mac` (Hummingbird's
    /// `derive_key` case is in `hummingbird-crypto`).
    #[test]
    fn chained_tags_match_sender_derivation() {
        let src = IsdAs::new(3, 0x30);
        let host = [0, 0, 0, 1]; // what `SourceGenerator` stamps
        let secret = DrKeySecret::derive(&MASTER, epoch_of(NOW_S));
        let stamped = |family| {
            sender(family, &MASTER, src, 7, 100_000, NOW_S).generate(&[0u8; 300], NOW_MS).unwrap()
        };

        let (tag, inputs) = chained_tag(Helia::new(MASTER), &stamped(EngineFamily::Helia));
        let info = inputs.res_info;
        let key = helia_packet_key(&MASTER, src, slot_of(NOW_S), info.res_id, info.bw_encoded);
        assert_eq!(tag, AuthKey::new(key).flyover_mac(&inputs.mac_input), "Helia");

        let (tag, inputs) = chained_tag(DrKey::new(MASTER), &stamped(EngineFamily::Drkey));
        let key = secret.as_to_host(src, host);
        assert_eq!(tag, AuthKey::new(key).flyover_mac(&inputs.mac_input), "DRKey");

        let (tag, inputs) = chained_tag(Epic::new(MASTER), &stamped(EngineFamily::Epic));
        let key = epic_auth_key(&secret, src, host);
        assert_eq!(tag, AuthKey::new(key).flyover_mac(&inputs.mac_input), "EPIC");
    }

    #[test]
    fn helia_roundtrip_verifies_and_prioritizes() {
        let src = IsdAs::new(3, 0x30);
        let mut pkt = sender(EngineFamily::Helia, &MASTER, src, 7, 100_000, NOW_S)
            .generate(&[0u8; 300], NOW_MS)
            .unwrap();
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
        let mut forged = sender(EngineFamily::Helia, &[0xAB; 16], src, 7, 100_000, NOW_S)
            .generate(&[0u8; 64], NOW_MS)
            .unwrap();
        assert_eq!(engine.process(&mut forged, NOW_NS), Verdict::Drop(DropReason::BadMac));

        // Right master but a past slot: demoted, never prioritized (Helia
        // cannot reserve outside the current slot).
        let mut stale =
            sender(EngineFamily::Helia, &MASTER, src, 7, 100_000, NOW_S - 2 * SLOT_SECS)
                .generate(&[0u8; 64], NOW_MS)
                .unwrap();
        let v = engine.process(&mut stale, NOW_NS);
        assert!(matches!(v, Verdict::BestEffort { .. }), "{v:?}");
        assert_eq!(engine.stats().demoted_untimely, 1);
    }

    #[test]
    fn helia_polices_the_as_assigned_share() {
        // 240 kbps: one 1500 B packet fills the 50 ms burst budget.
        let mut sender = sender(EngineFamily::Helia, &MASTER, IsdAs::new(3, 0x30), 3, 240, NOW_S);
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
        let mut engine: DrKeyDatapath =
            BorderRouter::with_family(DrKey::new(MASTER), hop_key(), RouterConfig::default());
        // The table keys the credential to src_host = 0.0.0.1, the host
        // address SourceGenerator stamps.
        let mut pkt = sender(EngineFamily::Drkey, &MASTER, src, 0, 0, NOW_S)
            .generate(&[0u8; 200], NOW_MS)
            .unwrap();
        let v = engine.process(&mut pkt, NOW_NS);
        assert!(matches!(v, Verdict::BestEffort { .. }), "no priority class: {v:?}");

        // A different host's key does not verify.
        let secret = DrKeySecret::derive(&MASTER, epoch_of(NOW_S));
        let mut credential =
            EngineFamily::Drkey.credential(&sv(), &MASTER, 0, 1, &mut 0, src, 0, NOW_S);
        credential.key = AuthKey::new(secret.as_to_host(src, [9, 9, 9, 9]));
        let mut other = generator(src);
        other.attach_reservation(0, credential).unwrap();
        let mut forged = other.generate(&[0u8; 200], NOW_MS).unwrap();
        assert_eq!(engine.process(&mut forged, NOW_NS), Verdict::Drop(DropReason::BadMac));
    }
}
