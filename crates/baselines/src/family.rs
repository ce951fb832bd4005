//! The engine-family table: the one place that says, per family, what
//! it is called, whether its validated traffic can ride the priority
//! class, which steering keeps its per-flow state on one shard, which
//! engine an AS deploys, and which per-hop credential a sender attaches
//! so that engine re-derives it.
//!
//! This is the axis of the paper's §2 comparison: Hummingbird decouples
//! reservations from network identities, Helia still binds a grant to
//! the source AS, DRKey and EPIC authenticate identities and reserve
//! nothing. Every stamped packet in the workspace — simulator, testbed,
//! bench fixtures, tests — is a [`SourceGenerator`] carrying
//! [`EngineFamily::credential`]; there is no per-family sender type.
//!
//! [`SourceGenerator`]: hummingbird_dataplane::SourceGenerator

use crate::drkey::{epoch_of, DrKeySecret, EPOCH_SECS};
use crate::engine::{helia_packet_key, DrKey, Helia};
use crate::epic::{epic_auth_key, Epic};
use crate::helia::{slot_of, SLOT_SECS};
use hummingbird_crypto::{AuthKey, ResInfo, SecretValue};
use hummingbird_dataplane::{
    BorderRouter, Datapath, RouterConfig, ShardedRouter, SourceReservation, Steering,
};
use hummingbird_wire::bwcls;
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;

/// The host address every `SourceGenerator`-built packet carries — what
/// the source-keyed families (DRKey, EPIC) derive their per-host keys
/// from.
const SRC_HOST: [u8; 4] = [0, 0, 0, 1];

/// Which engine family an AS's border routers run: one row of the table.
///
/// The same topology, flows and adversaries rerun against any family;
/// what changes is the credential attached per hop and therefore which
/// of the paper's properties hold — D1 source/path authentication, D2
/// bandwidth protection, or both.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineFamily {
    /// Hummingbird border routers (reservations, policing, priority).
    Hummingbird,
    /// Helia-style fixed-slot engines (per-slot grants, priority).
    Helia,
    /// DRKey-only source authentication (no priority class).
    Drkey,
    /// EPIC L1-style per-packet path validation (strict freshness,
    /// replay suppression, no priority class).
    Epic,
}

impl EngineFamily {
    /// Every family, in comparison order.
    pub const ALL: [EngineFamily; 4] =
        [EngineFamily::Hummingbird, EngineFamily::Helia, EngineFamily::Drkey, EngineFamily::Epic];

    /// Stable display name (matches `Datapath::engine_name`).
    pub fn name(&self) -> &'static str {
        match self {
            EngineFamily::Hummingbird => "hummingbird",
            EngineFamily::Helia => "helia",
            EngineFamily::Drkey => "drkey",
            EngineFamily::Epic => "epic",
        }
    }

    /// The family called `name` — the inverse of [`EngineFamily::name`].
    pub fn parse(name: &str) -> Option<EngineFamily> {
        EngineFamily::ALL.into_iter().find(|family| family.name() == name)
    }

    /// Whether validated traffic of this family can ride the priority
    /// class (the D2 axis of the sweep).
    pub fn has_priority_class(&self) -> bool {
        matches!(self, EngineFamily::Hummingbird | EngineFamily::Helia)
    }

    /// The shard steering that keeps this family's per-flow state on one
    /// shard: reservation ranges for policer-keyed engines, the source
    /// hash for the source-keyed EPIC/DRKey engines.
    pub fn steering(&self) -> Steering {
        match self {
            EngineFamily::Hummingbird | EngineFamily::Helia => Steering::ByReservation,
            EngineFamily::Drkey | EngineFamily::Epic => Steering::BySource,
        }
    }

    /// A fresh engine of this family over one AS's secrets: the
    /// [`BorderRouter`] instance of the family, keyed by `sv` for
    /// Hummingbird and by the AS's DRKey `master` for the baselines.
    pub fn engine(
        self,
        sv: &SecretValue,
        hop_key: &HopMacKey,
        master: &[u8; 16],
        cfg: RouterConfig,
    ) -> Box<dyn Datapath + Send> {
        match self {
            EngineFamily::Hummingbird => {
                Box::new(BorderRouter::new(sv.clone(), hop_key.clone(), cfg))
            }
            EngineFamily::Helia => {
                Box::new(BorderRouter::with_family(Helia::new(*master), hop_key.clone(), cfg))
            }
            EngineFamily::Drkey => {
                Box::new(BorderRouter::with_family(DrKey::new(*master), hop_key.clone(), cfg))
            }
            EngineFamily::Epic => {
                Box::new(BorderRouter::with_family(Epic::new(*master), hop_key.clone(), cfg))
            }
        }
    }

    /// One logical router: `shards` engines of this family (at least
    /// one) over the same secrets, behind a [`ShardedRouter`] with the
    /// family's steering.
    pub fn sharded_engine(
        self,
        shards: usize,
        sv: &SecretValue,
        hop_key: &HopMacKey,
        master: &[u8; 16],
        cfg: RouterConfig,
    ) -> ShardedRouter {
        ShardedRouter::new(
            (0..shards.max(1)).map(|_| self.engine(sv, hop_key, master, cfg)).collect(),
            cfg.policer_slots,
            self.steering(),
        )
    }

    /// The per-hop credential a sender of this family attaches, derived
    /// exactly as that hop's [`EngineFamily::engine`] re-derives it: a
    /// Hummingbird reservation under `sv`, a Helia slot grant or a
    /// DRKey/EPIC per-source key under `master`.
    ///
    /// The reservation-keyed families allocate a fresh identity from the
    /// caller's `next_res_id` counter; the identity-keyed DRKey/EPIC
    /// families carry the null grant (ResID 0) and leave the counter
    /// untouched. `bw_kbps` is the granted rate for the reservation
    /// families (source-chosen and rounded up for Hummingbird,
    /// AS-assigned and rounded down for Helia) and ignored by the
    /// authentication-only ones. A Helia grant covers the 16 s slot
    /// containing `now_s` (a run crossing the slot boundary goes stale
    /// mid-flow, as in the real system), a DRKey/EPIC key its 6 h epoch.
    #[allow(clippy::too_many_arguments)]
    pub fn credential(
        self,
        sv: &SecretValue,
        master: &[u8; 16],
        ingress: u16,
        egress: u16,
        next_res_id: &mut u32,
        src: IsdAs,
        bw_kbps: u64,
        now_s: u64,
    ) -> SourceReservation {
        let res_id = match self {
            EngineFamily::Drkey | EngineFamily::Epic => 0,
            EngineFamily::Hummingbird | EngineFamily::Helia => {
                let id = *next_res_id;
                *next_res_id += 1;
                id
            }
        };
        match self {
            EngineFamily::Hummingbird => {
                let res_info = ResInfo {
                    ingress,
                    egress,
                    res_id,
                    bw_encoded: bwcls::encode_ceil(bw_kbps).expect("encodable bandwidth"),
                    res_start: now_s.saturating_sub(5) as u32,
                    duration: u16::MAX,
                };
                let key = sv.derive_key(&res_info);
                SourceReservation { res_info, key }
            }
            EngineFamily::Helia => {
                let slot = slot_of(now_s);
                let bw_encoded = bwcls::encode_floor(bw_kbps).expect("encodable AS-assigned share");
                let key = helia_packet_key(master, src, slot, res_id, bw_encoded);
                SourceReservation {
                    res_info: ResInfo {
                        ingress,
                        egress,
                        res_id,
                        bw_encoded,
                        res_start: (slot * SLOT_SECS) as u32,
                        duration: SLOT_SECS as u16,
                    },
                    key: AuthKey::new(key),
                }
            }
            EngineFamily::Drkey | EngineFamily::Epic => {
                let epoch = epoch_of(now_s);
                let secret = DrKeySecret::derive(master, epoch);
                let key = if self == EngineFamily::Epic {
                    epic_auth_key(&secret, src, SRC_HOST)
                } else {
                    secret.as_to_host(src, SRC_HOST)
                };
                SourceReservation {
                    res_info: ResInfo {
                        ingress,
                        egress,
                        res_id: 0,
                        bw_encoded: 0,
                        res_start: (epoch * EPOCH_SECS) as u32,
                        duration: u16::MAX, // covers the 6 h epoch
                    },
                    key: AuthKey::new(key),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{hop_key, sender, sv, MASTER, NOW_MS, NOW_NS, NOW_S};
    use hummingbird_dataplane::{DropReason, Verdict};

    /// Every row of the table agrees with its engine: `parse` inverts
    /// `name`, the engine answers to the family's name, a packet
    /// carrying the family's credential lands in the class
    /// `has_priority_class` promises, and the same packet fails the MAC
    /// at the same family's engine over another AS's SV / DRKey master
    /// (same hop key, so only the credential differs).
    #[test]
    fn every_family_row_agrees_with_its_engine() {
        let cfg = RouterConfig::default();
        let src = IsdAs::new(3, 0x30);
        for family in EngineFamily::ALL {
            assert_eq!(EngineFamily::parse(family.name()), Some(family));
            let mut engine = family.engine(&sv(), &hop_key(), &MASTER, cfg);
            assert_eq!(engine.engine_name(), family.name());

            let pkt = sender(family, &MASTER, src, 7, 100_000, NOW_S)
                .generate(&[0u8; 300], NOW_MS)
                .unwrap();
            let v = engine.process(&mut pkt.clone(), NOW_NS);
            if family.has_priority_class() {
                assert!(v.is_flyover(), "{family:?}: {v:?}");
            } else {
                assert!(matches!(v, Verdict::BestEffort { .. }), "{family:?}: {v:?}");
            }

            let mut foreign =
                family.engine(&SecretValue::new([0x62; 16]), &hop_key(), &[0xAB; 16], cfg);
            assert_eq!(
                foreign.process(&mut pkt.clone(), NOW_NS),
                Verdict::Drop(DropReason::BadMac),
                "{family:?}"
            );
        }
        assert_eq!(EngineFamily::parse("scion"), None);
    }
}
