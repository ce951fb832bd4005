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
//! [`Epic`] is a family of the one batched border-router pipeline
//! ([`BorderRouter`]), like Hummingbird, Helia and DRKey: its key is a
//! three-level chain from the clock's epoch secret, derived on the fly
//! per packet in the burst's fused AES pass, so the fig5/table3
//! comparisons measure the *designs*, not the harness, and a forged
//! source leaves no key state behind.

use crate::drkey::{as_block, host_block, DrKeySecret, EpochRoot};
use hummingbird_crypto::aes::Aes128;
use hummingbird_dataplane::router::stages::{self, FlyoverInputs, Parsed};
use hummingbird_dataplane::router::RouterConfig;
use hummingbird_dataplane::{BorderRouter, Class, DropReason, Family};
use hummingbird_wire::IsdAs;

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

/// The EPIC L1-style family: per-packet path validation with strict
/// freshness and (optionally) replay suppression, no priority class.
///
/// [`RouterConfig`] supplies the freshness window `Δ`/`δ` and the replay
/// filter toggle (policing fields are unused — EPIC has nothing to
/// police).
pub struct Epic {
    root: EpochRoot,
}

impl Epic {
    /// The family of an AS with DRKey master `drkey_master`.
    pub fn new(drkey_master: [u8; 16]) -> Self {
        Epic { root: EpochRoot::new(drkey_master) }
    }
}

impl Family for Epic {
    const NAME: &'static str = "epic";
    const DUPLICATE_FILTER: bool = true;
    type Chain = [[u8; 16]; 3];

    /// [`epic_auth_key`]'s three levels under the epoch secret:
    /// `K_{A→S}`, `K_{A→S:H}` and `K^{epic}`, from nothing but the
    /// packet's (authenticated) source address.
    fn key_chain(&self, parsed: &Parsed, _inputs: &FlyoverInputs) -> Self::Chain {
        [as_block(parsed.addr.src), host_block(parsed.addr.src_host), EPIC_LEVEL_BLOCK]
    }

    fn root(&mut self, now_s: u64) -> &Aes128 {
        self.root.at(now_s)
    }

    /// EPIC validates the window *before* spending AES cycles on the key
    /// chain: a stale packet is rejected outright.
    fn class(
        &self,
        cfg: &RouterConfig,
        parsed: &Parsed,
        inputs: &FlyoverInputs,
        now_ms: u64,
    ) -> Result<Class, DropReason> {
        if stages::freshness(cfg, parsed, &inputs.res_info, now_ms) {
            Ok(Class::BestEffort)
        } else {
            Err(DropReason::Untimely)
        }
    }
}

/// An EPIC L1-style border router.
pub type EpicDatapath = BorderRouter<Epic>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drkey::epoch_of;
    use crate::testutil::{generator, hop_key, sender, sv, MASTER, NOW_MS, NOW_NS, NOW_S};
    use crate::EngineFamily;
    use hummingbird_crypto::AuthKey;
    use hummingbird_dataplane::{Datapath, Verdict};

    fn engine(cfg: RouterConfig) -> EpicDatapath {
        BorderRouter::with_family(Epic::new(MASTER), hop_key(), cfg)
    }

    fn stamped(src: IsdAs, at_ms: u64) -> Vec<u8> {
        sender(EngineFamily::Epic, &MASTER, src, 0, 0, NOW_S).generate(&[0u8; 300], at_ms).unwrap()
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
        let mut credential =
            EngineFamily::Epic.credential(&sv(), &MASTER, 0, 1, &mut 0, src, 0, NOW_S);
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
}
