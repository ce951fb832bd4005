//! Standard SCION hop-field MAC computation and SegID chaining.
//!
//! Every SCION hop field carries a 6-byte MAC computed by the AS that
//! created it during beaconing, keyed with the AS-local forwarding key
//! `K_i`. Hummingbird reuses this mechanism unchanged (Algorithm 4) and
//! XORs its flyover MAC on top (Eq. 6). The MAC input is the 16-byte block
//! of the SCION header specification:
//!
//! ```text
//!  0..2   zero        2..4  SegID (β_i)
//!  4..8   Timestamp (from the info field)
//!  8      zero        9     ExpTime
//! 10..12  ConsIngress 12..14 ConsEgress
//! 14..16  zero
//! ```
//!
//! The chaining rule is `β_{i+1} = β_i ⊕ MAC_i[0..2]`, which routers apply
//! as the "update SegID" step (Algorithm 4, line 8).

use hummingbird_crypto::cmac::Cmac;
use hummingbird_crypto::{Tag, TAG_LEN};

/// An AS-local hop-field MAC key (`K_i` in the paper's algorithms).
#[derive(Clone)]
pub struct HopMacKey {
    cmac: Cmac,
}

impl std::fmt::Debug for HopMacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HopMacKey { .. }")
    }
}

/// The per-hop inputs to the hop-field MAC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HopMacInput {
    /// Current SegID accumulator (β).
    pub seg_id: u16,
    /// Info-field timestamp.
    pub timestamp: u32,
    /// Hop-field expiry byte.
    pub exp_time: u8,
    /// Ingress interface (construction direction).
    pub cons_ingress: u16,
    /// Egress interface (construction direction).
    pub cons_egress: u16,
}

impl HopMacInput {
    /// Serializes to the 16-byte MAC input block.
    pub fn to_block(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[2..4].copy_from_slice(&self.seg_id.to_be_bytes());
        b[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        b[9] = self.exp_time;
        b[10..12].copy_from_slice(&self.cons_ingress.to_be_bytes());
        b[12..14].copy_from_slice(&self.cons_egress.to_be_bytes());
        b
    }
}

impl HopMacKey {
    /// Creates a key from raw bytes.
    pub fn new(key: [u8; 16]) -> Self {
        HopMacKey { cmac: Cmac::new(&key) }
    }

    /// Computes the 6-byte hop-field MAC.
    pub fn hop_mac(&self, input: &HopMacInput) -> Tag {
        truncate(&self.cmac.mac(&input.to_block()))
    }

    /// [`hop_mac`](HopMacKey::hop_mac) over a burst: appends the MAC of
    /// every input, in order, to `out`. One key, so AES-NI keeps eight
    /// blocks in flight ([`Cmac::mac_blocks`]); the blocks live on the
    /// stack.
    pub fn hop_macs(&self, inputs: &[HopMacInput], out: &mut Vec<Tag>) {
        /// Inputs per stack chunk: a burst, and a multiple of the lanes.
        const CHUNK: usize = 32;
        out.reserve(inputs.len());
        for chunk in inputs.chunks(CHUNK) {
            let mut blocks = [[0u8; 16]; CHUNK];
            let blocks = &mut blocks[..chunk.len()];
            for (block, input) in blocks.iter_mut().zip(chunk) {
                *block = input.to_block();
            }
            self.cmac.mac_blocks(blocks);
            out.extend(blocks.iter().map(truncate));
        }
    }
}

/// A CMAC block cut to the [`TAG_LEN`] bytes a hop field carries.
fn truncate(full: &[u8; 16]) -> Tag {
    let mut tag = [0u8; TAG_LEN];
    tag.copy_from_slice(&full[..TAG_LEN]);
    tag
}

/// Applies the SegID chaining rule: `β' = β ⊕ MAC[0..2]`.
#[inline]
pub fn update_seg_id(seg_id: u16, mac: &Tag) -> u16 {
    seg_id ^ u16::from_be_bytes([mac[0], mac[1]])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_input() -> HopMacInput {
        HopMacInput {
            seg_id: 0x1234,
            timestamp: 1_700_000_000,
            exp_time: 63,
            cons_ingress: 2,
            cons_egress: 5,
        }
    }

    #[test]
    fn debug_hides_the_key() {
        let shown = format!("{:?}", HopMacKey::new([0xA7; 16]));
        assert_eq!(shown, "HopMacKey { .. }");
        for byte in ["a7", "A7", "167"] {
            assert!(!shown.contains(byte), "{shown} leaks key byte {byte}");
        }
    }

    #[test]
    fn block_layout() {
        let input = HopMacInput {
            seg_id: 0xAABB,
            timestamp: 0x01020304,
            exp_time: 0xCC,
            cons_ingress: 0x0506,
            cons_egress: 0x0708,
        };
        let b = input.to_block();
        assert_eq!(b[0..2], [0, 0]);
        assert_eq!(b[2..4], [0xAA, 0xBB]);
        assert_eq!(b[4..8], [1, 2, 3, 4]);
        assert_eq!(b[8], 0);
        assert_eq!(b[9], 0xCC);
        assert_eq!(b[10..12], [5, 6]);
        assert_eq!(b[12..14], [7, 8]);
        assert_eq!(b[14..16], [0, 0]);
    }

    #[test]
    fn mac_depends_on_every_field() {
        let key = HopMacKey::new([7u8; 16]);
        let base = sample_input();
        let m = key.hop_mac(&base);
        for variant in [
            HopMacInput { seg_id: 0x1235, ..base },
            HopMacInput { timestamp: base.timestamp + 1, ..base },
            HopMacInput { exp_time: 64, ..base },
            HopMacInput { cons_ingress: 3, ..base },
            HopMacInput { cons_egress: 6, ..base },
        ] {
            assert_ne!(key.hop_mac(&variant), m, "{variant:?}");
        }
    }

    #[test]
    fn burst_hop_macs_match_hop_mac_on_every_block() {
        let key = HopMacKey::new([7u8; 16]);
        let base = sample_input();
        let inputs: Vec<HopMacInput> = (0..40u16)
            .map(|i| HopMacInput {
                seg_id: base.seg_id ^ i.wrapping_mul(0x9e37),
                timestamp: base.timestamp + u32::from(i),
                exp_time: i as u8,
                cons_ingress: i % 5,
                cons_egress: i % 7,
            })
            .collect();
        for n in 0..=inputs.len() {
            let mut macs = Vec::new();
            key.hop_macs(&inputs[..n], &mut macs);
            let expected: Vec<Tag> = inputs[..n].iter().map(|i| key.hop_mac(i)).collect();
            assert_eq!(macs, expected, "burst of {n}");
        }
    }

    #[test]
    fn seg_id_chaining_is_involutive() {
        let mac = [0xde, 0xad, 0, 0, 0, 0];
        let beta = 0x1111;
        let next = update_seg_id(beta, &mac);
        assert_eq!(update_seg_id(next, &mac), beta);
        assert_eq!(next, 0x1111 ^ 0xdead);
    }

    #[test]
    fn different_keys_different_macs() {
        let a = HopMacKey::new([1u8; 16]);
        let b = HopMacKey::new([2u8; 16]);
        assert_ne!(a.hop_mac(&sample_input()), b.hop_mac(&sample_input()));
    }
}
