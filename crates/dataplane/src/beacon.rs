//! Beaconing substitute: forges valid SCION paths for the simulation.
//!
//! In SCION, hop-field MACs are created by ASes during beaconing and handed
//! to sources through the path lookup infrastructure. This module plays
//! that role for the simulated topology: given the (test-controlled) AS
//! forwarding keys, it builds a single-segment construction-direction path
//! whose hop-field MACs and SegID chaining verify at every router.

use hummingbird_wire::hopfield::{HopField, HopFlags, InfoField};
use hummingbird_wire::meta::PathMetaHdr;
use hummingbird_wire::path::{HummingbirdPath, PathField};
use hummingbird_wire::scion_mac::{update_seg_id, HopMacInput, HopMacKey};

/// One AS hop of a path under construction.
#[derive(Clone, Debug)]
pub struct BeaconHop {
    /// The AS's hop-field MAC key (`K_i`).
    pub key: HopMacKey,
    /// Ingress interface in construction direction (0 at the first AS).
    pub cons_ingress: u16,
    /// Egress interface in construction direction (0 at the last AS).
    pub cons_egress: u16,
}

/// Default hop-field expiry byte (SCION encodes expiry in units of
/// 24h/256 = 337.5 s relative to the info-field timestamp; 63 ≈ 6 h).
pub(crate) const DEFAULT_EXP_TIME: u8 = 63;

/// Absolute expiry of a hop field in Unix seconds (SCION rule:
/// `Timestamp + (1 + ExpTime) · 337.5 s`).
pub fn hop_field_expiry(info_timestamp: u32, exp_time: u8) -> u64 {
    u64::from(info_timestamp) + ((1 + u64::from(exp_time)) * 1350) / 4
}

/// Builds a single-segment construction-direction path through `hops`.
///
/// `info_timestamp` is the beacon timestamp; `beta0` the initial SegID.
/// The returned path carries plain hop fields; sources upgrade hops with
/// reservations to flyover hop fields via
/// [`crate::source::SourceGenerator`].
pub fn forge_path(hops: &[BeaconHop], info_timestamp: u32, beta0: u16) -> HummingbirdPath {
    let mut beta = beta0;
    let mut fields = Vec::with_capacity(hops.len());
    for hop in hops {
        let input = HopMacInput {
            seg_id: beta,
            timestamp: info_timestamp,
            exp_time: DEFAULT_EXP_TIME,
            cons_ingress: hop.cons_ingress,
            cons_egress: hop.cons_egress,
        };
        let mac = hop.key.hop_mac(&input);
        beta = update_seg_id(beta, &mac);
        fields.push(PathField::Hop(HopField {
            flags: HopFlags::default(),
            exp_time: DEFAULT_EXP_TIME,
            cons_ingress: hop.cons_ingress,
            cons_egress: hop.cons_egress,
            mac,
        }));
    }
    let seg_units: u16 = fields.iter().map(|f| u16::from(f.units())).sum();
    HummingbirdPath {
        meta: PathMetaHdr {
            curr_inf: 0,
            curr_hf: 0,
            seg_len: [seg_units as u8, 0, 0],
            base_ts: 0,
            millis_ts: 0,
            counter: 0,
        },
        info: vec![InfoField {
            peering: false,
            cons_dir: true,
            seg_id: beta0,
            timestamp: info_timestamp,
        }],
        hops: fields,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<HopMacKey> {
        (0..n).map(|i| HopMacKey::new([i as u8 + 1; 16])).collect()
    }

    fn hops_from(keys: &[HopMacKey]) -> Vec<BeaconHop> {
        let n = keys.len();
        keys.iter()
            .enumerate()
            .map(|(i, k)| BeaconHop {
                key: k.clone(),
                cons_ingress: if i == 0 { 0 } else { (2 * i) as u16 },
                cons_egress: if i == n - 1 { 0 } else { (2 * i + 1) as u16 },
            })
            .collect()
    }

    #[test]
    fn forged_path_is_valid_and_chain_verifies() {
        let keys = keys(5);
        let hops = hops_from(&keys);
        let path = forge_path(&hops, 1_700_000_000, 0xbeef);
        path.validate().unwrap();
        assert_eq!(path.hops.len(), 5);

        // Walk the chain like routers do: verify then update SegID.
        let mut beta = path.info[0].seg_id;
        for (i, field) in path.hops.iter().enumerate() {
            let PathField::Hop(hf) = field else { panic!("plain hops expected") };
            let input = HopMacInput {
                seg_id: beta,
                timestamp: path.info[0].timestamp,
                exp_time: hf.exp_time,
                cons_ingress: hf.cons_ingress,
                cons_egress: hf.cons_egress,
            };
            assert_eq!(keys[i].hop_mac(&input), hf.mac, "hop {i} MAC");
            beta = update_seg_id(beta, &hf.mac);
        }
    }

    #[test]
    fn expiry_rule_matches_scion() {
        // ExpTime 0 = 337.5 s -> floor 337 with integer math at .5? Use
        // exact: (1*1350)/4 = 337 (truncated ns-free integer form).
        assert_eq!(hop_field_expiry(0, 0), 337);
        assert_eq!(hop_field_expiry(0, 255), 86_400);
        assert_eq!(hop_field_expiry(1000, 63), 1000 + 21_600);
    }
}
