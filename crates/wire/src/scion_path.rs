//! The *standard* SCION path type and conversion from the Hummingbird
//! path type (Appendix A.8, final step).
//!
//! A reversed Hummingbird path (all flyover fields stripped) is already a
//! valid Hummingbird-type path without reservations, but it can be further
//! converted to the regular SCION path type "by replacing the PathMetaHdr
//! with the PathMetaHdr of the regular SCION path type (i.e., removing the
//! timestamps and converting the SegiLen values)". This module implements
//! that conversion so replies can be sent by plain SCION stacks.
//!
//! Standard SCION path meta header (4 bytes):
//!
//! ```text
//! CurrINF(2) ∥ CurrHF(6) ∥ RSV(6) ∥ Seg0Len(6) ∥ Seg1Len(6) ∥ Seg2Len(6)
//! ```
//!
//! where `CurrHF` and `SegiLen` count *hop fields* (12 B each), unlike the
//! Hummingbird header's 4-byte units.

use crate::error::{Result, WireError};
use crate::hopfield::{HopField, InfoField, HOP_FIELD_LEN, INFO_FIELD_LEN};
use crate::meta::HF_UNITS;
use crate::path::HummingbirdPath;

/// Standard SCION path meta header length.
pub(crate) const SCION_META_LEN: usize = 4;

/// Owned representation of the standard SCION path meta header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScionPathMeta {
    /// Current info field index (0-2).
    pub curr_inf: u8,
    /// Current hop field index (0-63), counting hop fields.
    pub curr_hf: u8,
    /// Hop fields per segment (0 = absent).
    pub seg_len: [u8; 3],
}

impl ScionPathMeta {
    /// Parses from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        if buf.len() < SCION_META_LEN {
            return Err(WireError::Truncated);
        }
        let w = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]);
        let meta = ScionPathMeta {
            curr_inf: (w >> 30) as u8,
            curr_hf: ((w >> 24) & 0x3f) as u8,
            seg_len: [((w >> 12) & 0x3f) as u8, ((w >> 6) & 0x3f) as u8, (w & 0x3f) as u8],
        };
        meta.validate()?;
        Ok(meta)
    }

    /// Emits into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < SCION_META_LEN {
            return Err(WireError::Truncated);
        }
        self.validate()?;
        let w: u32 = (u32::from(self.curr_inf) << 30)
            | (u32::from(self.curr_hf & 0x3f) << 24)
            | (u32::from(self.seg_len[0]) << 12)
            | (u32::from(self.seg_len[1]) << 6)
            | u32::from(self.seg_len[2]);
        buf[0..4].copy_from_slice(&w.to_be_bytes());
        Ok(())
    }

    /// Field-range and segment-gap validation.
    pub fn validate(&self) -> Result<()> {
        if self.curr_inf > 2 || self.curr_hf > 63 {
            return Err(WireError::FieldRange);
        }
        for (i, &len) in self.seg_len.iter().enumerate() {
            if len > 63 {
                return Err(WireError::FieldRange);
            }
            if len > 0 && self.seg_len[..i].contains(&0) {
                return Err(WireError::SegmentGap);
            }
        }
        Ok(())
    }

    /// Number of info fields present.
    pub(crate) fn num_inf(&self) -> usize {
        self.seg_len.iter().take_while(|&&l| l > 0).count()
    }
}

/// A standard SCION path: meta + info fields + plain hop fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScionPath {
    /// Meta header.
    pub meta: ScionPathMeta,
    /// Info fields.
    pub info: Vec<InfoField>,
    /// Hop fields (12 B each).
    pub hops: Vec<HopField>,
}

impl ScionPath {
    /// Encoded length in bytes.
    pub fn byte_len(&self) -> usize {
        SCION_META_LEN + INFO_FIELD_LEN * self.info.len() + HOP_FIELD_LEN * self.hops.len()
    }

    /// Parses a full standard path.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let meta = ScionPathMeta::parse(buf)?;
        let mut off = SCION_META_LEN;
        let mut info = Vec::with_capacity(meta.num_inf());
        for _ in 0..meta.num_inf() {
            info.push(InfoField::parse(buf.get(off..).ok_or(WireError::Truncated)?)?);
            off += INFO_FIELD_LEN;
        }
        let total_hops: usize = meta.seg_len.iter().map(|&l| usize::from(l)).sum();
        let mut hops = Vec::with_capacity(total_hops);
        for _ in 0..total_hops {
            hops.push(HopField::parse(buf.get(off..).ok_or(WireError::Truncated)?)?);
            off += HOP_FIELD_LEN;
        }
        Ok(ScionPath { meta, info, hops })
    }

    /// Emits the path; returns bytes written.
    pub fn emit(&self, buf: &mut [u8]) -> Result<usize> {
        if buf.len() < self.byte_len() {
            return Err(WireError::Truncated);
        }
        self.meta.emit(buf)?;
        let mut off = SCION_META_LEN;
        for inf in &self.info {
            inf.emit(&mut buf[off..])?;
            off += INFO_FIELD_LEN;
        }
        for hf in &self.hops {
            hf.emit(&mut buf[off..])?;
            off += HOP_FIELD_LEN;
        }
        Ok(off)
    }
}

impl HummingbirdPath {
    /// Converts to the standard SCION path type (App. A.8): only valid
    /// once every flyover field has been stripped (e.g. after
    /// [`HummingbirdPath::reversed`]). The timestamps of the Hummingbird
    /// meta header are discarded and `SegiLen` is converted from 4-byte
    /// units to hop-field counts.
    pub fn to_standard_scion(&self) -> Result<ScionPath> {
        self.validate()?;
        if self.hops.iter().any(|h| h.is_flyover()) {
            return Err(WireError::Malformed);
        }
        let mut seg_len = [0u8; 3];
        for (i, &units) in self.meta.seg_len.iter().enumerate() {
            debug_assert_eq!(units % HF_UNITS, 0);
            seg_len[i] = units / HF_UNITS;
        }
        if u16::from(self.meta.curr_hf) % u16::from(HF_UNITS) != 0 {
            return Err(WireError::Malformed);
        }
        let meta = ScionPathMeta {
            curr_inf: self.meta.curr_inf,
            curr_hf: self.meta.curr_hf / HF_UNITS,
            seg_len,
        };
        let hops = self
            .hops
            .iter()
            .map(|h| match h {
                crate::path::PathField::Hop(hf) => *hf,
                crate::path::PathField::Flyover(_) => unreachable!("checked above"),
            })
            .collect();
        Ok(ScionPath { meta, info: self.info.clone(), hops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopfield::{FlyoverHopField, HopFlags};
    use crate::meta::PathMetaHdr;
    use crate::path::{HummingbirdPath, PathField};

    fn hbird_path(with_flyover: bool) -> HummingbirdPath {
        let mut hops = vec![
            PathField::Hop(HopField {
                flags: HopFlags::default(),
                exp_time: 63,
                cons_ingress: 0,
                cons_egress: 1,
                mac: [1; 6],
            }),
            PathField::Hop(HopField {
                flags: HopFlags::default(),
                exp_time: 63,
                cons_ingress: 2,
                cons_egress: 0,
                mac: [2; 6],
            }),
        ];
        let mut units = 6u8;
        if with_flyover {
            hops.insert(
                1,
                PathField::Flyover(FlyoverHopField {
                    flags: HopFlags { flyover: true, ..Default::default() },
                    exp_time: 63,
                    cons_ingress: 9,
                    cons_egress: 10,
                    agg_mac: [3; 6],
                    res_id: 7,
                    bw: 100,
                    res_start_offset: 0,
                    res_duration: 60,
                }),
            );
            units += 5;
        }
        HummingbirdPath {
            meta: PathMetaHdr {
                curr_inf: 0,
                curr_hf: 0,
                seg_len: [units, 0, 0],
                base_ts: 1_700_000_000,
                millis_ts: 1,
                counter: 2,
            },
            info: vec![InfoField { peering: false, cons_dir: true, seg_id: 5, timestamp: 100 }],
            hops,
        }
    }

    #[test]
    fn scion_meta_roundtrip() {
        let m = ScionPathMeta { curr_inf: 1, curr_hf: 5, seg_len: [3, 4, 0] };
        let mut buf = [0u8; 4];
        m.emit(&mut buf).unwrap();
        assert_eq!(ScionPathMeta::parse(&buf).unwrap(), m);
    }

    #[test]
    fn scion_meta_rejects_gaps_and_ranges() {
        assert!(ScionPathMeta { curr_inf: 3, curr_hf: 0, seg_len: [1, 0, 0] }.validate().is_err());
        assert!(ScionPathMeta { curr_inf: 0, curr_hf: 0, seg_len: [0, 1, 0] }.validate().is_err());
        assert!(ScionPathMeta { curr_inf: 0, curr_hf: 64, seg_len: [1, 0, 0] }.validate().is_err());
    }

    #[test]
    fn conversion_after_reversal_roundtrips() {
        // Hummingbird path with a flyover -> reverse -> standard SCION.
        let path = hbird_path(true);
        let reversed = path.reversed().unwrap();
        let scion = reversed.to_standard_scion().unwrap();
        assert_eq!(scion.hops.len(), 3);
        assert_eq!(scion.meta.seg_len, [3, 0, 0]);
        // Wire roundtrip of the converted path.
        let mut buf = vec![0u8; scion.byte_len()];
        scion.emit(&mut buf).unwrap();
        assert_eq!(ScionPath::parse(&buf).unwrap(), scion);
        // 4-byte meta: converted path is 8 bytes shorter than the
        // Hummingbird encoding of the same reversed path.
        assert_eq!(scion.byte_len() + 8, reversed.byte_len());
    }

    #[test]
    fn conversion_rejects_live_flyovers() {
        let path = hbird_path(true);
        assert_eq!(path.to_standard_scion().unwrap_err(), WireError::Malformed);
    }

    #[test]
    fn conversion_without_flyovers_is_direct() {
        let path = hbird_path(false);
        let scion = path.to_standard_scion().unwrap();
        assert_eq!(scion.hops.len(), 2);
        assert_eq!(scion.info, path.info);
    }

    #[test]
    fn truncated_scion_path_rejected() {
        let path = hbird_path(false).to_standard_scion().unwrap();
        let mut buf = vec![0u8; path.byte_len()];
        path.emit(&mut buf).unwrap();
        assert!(ScionPath::parse(&buf[..buf.len() - 1]).is_err());
    }
}
