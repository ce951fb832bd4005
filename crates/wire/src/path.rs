//! The Hummingbird path header: meta header, info fields, and a sequence of
//! standard/flyover hop fields (Appendix A, Fig. 6).

use crate::error::{Result, WireError};
use crate::hopfield::InfoField;
use crate::hopfield::{
    peek_flyover_bit, FlyoverHopField, HopField, FLYOVER_FIELD_LEN, HOP_FIELD_LEN, INFO_FIELD_LEN,
};
use crate::meta::{PathMetaHdr, FLYOVER_UNITS, HF_UNITS, META_HDR_LEN};

/// Maximum number of hop fields in a path (per the SCION spec).
pub(crate) const MAX_HOP_FIELDS: usize = 64;
/// Maximum number of info fields / segments.
pub(crate) const MAX_INFO_FIELDS: usize = 3;

/// One entry in the hop-field sequence: either a plain SCION hop field or a
/// flyover hop field carrying a reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathField {
    /// Standard 12-byte hop field.
    Hop(HopField),
    /// 20-byte flyover hop field.
    Flyover(FlyoverHopField),
}

impl PathField {
    /// Size in 4-byte units (3 or 5) — the CurrHF increment.
    pub fn units(&self) -> u8 {
        match self {
            PathField::Hop(_) => HF_UNITS,
            PathField::Flyover(_) => FLYOVER_UNITS,
        }
    }

    /// Size in bytes (12 or 20).
    pub fn byte_len(&self) -> usize {
        match self {
            PathField::Hop(_) => HOP_FIELD_LEN,
            PathField::Flyover(_) => FLYOVER_FIELD_LEN,
        }
    }

    /// Whether this hop carries a reservation.
    pub fn is_flyover(&self) -> bool {
        matches!(self, PathField::Flyover(_))
    }

    /// Ingress interface (construction direction).
    pub fn cons_ingress(&self) -> u16 {
        match self {
            PathField::Hop(h) => h.cons_ingress,
            PathField::Flyover(f) => f.cons_ingress,
        }
    }

    /// Egress interface (construction direction).
    pub fn cons_egress(&self) -> u16 {
        match self {
            PathField::Hop(h) => h.cons_egress,
            PathField::Flyover(f) => f.cons_egress,
        }
    }

    /// Hop-field expiry byte.
    pub fn exp_time(&self) -> u8 {
        match self {
            PathField::Hop(h) => h.exp_time,
            PathField::Flyover(f) => f.exp_time,
        }
    }
}

/// Owned representation of a complete Hummingbird path header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HummingbirdPath {
    /// Path meta header.
    pub meta: PathMetaHdr,
    /// One info field per segment (`meta.num_inf()` entries).
    pub info: Vec<InfoField>,
    /// Hop fields in path order.
    pub hops: Vec<PathField>,
}

impl HummingbirdPath {
    /// Total encoded length in bytes.
    pub fn byte_len(&self) -> usize {
        META_HDR_LEN
            + INFO_FIELD_LEN * self.info.len()
            + self.hops.iter().map(|h| h.byte_len()).sum::<usize>()
    }

    /// Validates internal consistency: info-field count matches segments,
    /// hop fields align exactly with segment boundaries, field counts are
    /// within limits.
    pub fn validate(&self) -> Result<()> {
        self.meta.validate()?;
        if self.info.len() != self.meta.num_inf() {
            return Err(WireError::Malformed);
        }
        if self.hops.is_empty() {
            return Err(WireError::EmptyPath);
        }
        if self.hops.len() > MAX_HOP_FIELDS || self.info.len() > MAX_INFO_FIELDS {
            return Err(WireError::TooManyFields);
        }
        // Walk segments, consuming hop fields; each boundary must align.
        let mut hop_iter = self.hops.iter();
        for &seg_len in self.meta.seg_len.iter().take(self.meta.num_inf()) {
            let mut consumed = 0u16;
            while consumed < u16::from(seg_len) {
                let hf = hop_iter.next().ok_or(WireError::Malformed)?;
                consumed += u16::from(hf.units());
            }
            if consumed != u16::from(seg_len) {
                return Err(WireError::Malformed);
            }
        }
        if hop_iter.next().is_some() {
            return Err(WireError::Malformed);
        }
        Ok(())
    }

    /// Parses a full path header from `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let meta = PathMetaHdr::parse(buf)?;
        let mut offset = META_HDR_LEN;
        let num_inf = meta.num_inf();
        let mut info = Vec::with_capacity(num_inf);
        for _ in 0..num_inf {
            if buf.len() < offset + INFO_FIELD_LEN {
                return Err(WireError::Truncated);
            }
            info.push(InfoField::parse(&buf[offset..])?);
            offset += INFO_FIELD_LEN;
        }
        let total_units = meta.total_hf_units();
        let mut consumed = 0u16;
        let mut hops = Vec::new();
        while consumed < total_units {
            if hops.len() >= MAX_HOP_FIELDS {
                return Err(WireError::TooManyFields);
            }
            if buf.len() <= offset {
                return Err(WireError::Truncated);
            }
            let field = if peek_flyover_bit(&buf[offset..])? {
                let f = FlyoverHopField::parse(&buf[offset..])?;
                offset += FLYOVER_FIELD_LEN;
                consumed += u16::from(FLYOVER_UNITS);
                PathField::Flyover(f)
            } else {
                let h = HopField::parse(&buf[offset..])?;
                offset += HOP_FIELD_LEN;
                consumed += u16::from(HF_UNITS);
                PathField::Hop(h)
            };
            hops.push(field);
        }
        let path = HummingbirdPath { meta, info, hops };
        path.validate()?;
        Ok(path)
    }

    /// Emits the path header into `buf`; returns bytes written.
    pub fn emit(&self, buf: &mut [u8]) -> Result<usize> {
        self.validate()?;
        let needed = self.byte_len();
        if buf.len() < needed {
            return Err(WireError::Truncated);
        }
        self.meta.emit(buf)?;
        let mut offset = META_HDR_LEN;
        for inf in &self.info {
            inf.emit(&mut buf[offset..])?;
            offset += INFO_FIELD_LEN;
        }
        for hop in &self.hops {
            match hop {
                PathField::Hop(h) => {
                    h.emit(&mut buf[offset..])?;
                    offset += HOP_FIELD_LEN;
                }
                PathField::Flyover(f) => {
                    f.emit(&mut buf[offset..])?;
                    offset += FLYOVER_FIELD_LEN;
                }
            }
        }
        debug_assert_eq!(offset, needed);
        Ok(offset)
    }

    /// Index into `hops` of the field starting at `curr_hf` 4-byte units,
    /// or an error if `curr_hf` does not land on a field boundary.
    pub(crate) fn hop_index_at(&self, curr_hf: u8) -> Result<usize> {
        let mut units = 0u16;
        for (i, hop) in self.hops.iter().enumerate() {
            if units == u16::from(curr_hf) {
                return Ok(i);
            }
            if units > u16::from(curr_hf) {
                break;
            }
            units += u16::from(hop.units());
        }
        if units == u16::from(curr_hf) && u16::from(curr_hf) == self.meta.total_hf_units() {
            // Pointer one past the end: path fully consumed.
            return Err(WireError::HopOutOfSegment);
        }
        Err(WireError::HopOutOfSegment)
    }

    /// The hop field the meta header currently points at.
    pub(crate) fn current_hop(&self) -> Result<&PathField> {
        let idx = self.hop_index_at(self.meta.curr_hf)?;
        Ok(&self.hops[idx])
    }

    /// Advances `CurrHF` past the current hop field (by 3 or 5 units,
    /// Algorithm 4 lines 9-12) and `CurrINF` when crossing a segment
    /// boundary.
    pub fn advance(&mut self) -> Result<()> {
        let hop_units = u16::from(self.current_hop()?.units());
        let new_hf = u16::from(self.meta.curr_hf) + hop_units;
        if new_hf > 255 {
            return Err(WireError::FieldRange);
        }
        self.meta.curr_hf = new_hf as u8;
        // Update CurrINF if the new pointer crossed into the next segment.
        if new_hf < self.meta.total_hf_units() {
            let (seg, _) = self.meta.segment_of_curr_hf()?;
            self.meta.curr_inf = seg as u8;
        }
        Ok(())
    }

    /// Path reversal (Appendix A.8): reverses hop and info fields, converts
    /// every flyover hop field to a standard hop field (dropping
    /// reservation data), flips construction-direction flags, and resets
    /// the pointers. The result is a valid Hummingbird path without
    /// reservations for the reverse direction.
    pub fn reversed(&self) -> Result<HummingbirdPath> {
        self.validate()?;
        // Group hops by segment so we can reverse segment order too.
        let mut segments: Vec<Vec<HopField>> = Vec::with_capacity(self.info.len());
        let mut hop_iter = self.hops.iter();
        for &seg_len in self.meta.seg_len.iter().take(self.meta.num_inf()) {
            let mut seg = Vec::new();
            let mut consumed = 0u16;
            while consumed < u16::from(seg_len) {
                let hf = hop_iter.next().ok_or(WireError::Malformed)?;
                consumed += u16::from(hf.units());
                let plain = match hf {
                    PathField::Hop(h) => *h,
                    PathField::Flyover(f) => f.to_hop_field(),
                };
                seg.push(plain);
            }
            segments.push(seg);
        }
        segments.reverse();
        for seg in segments.iter_mut() {
            seg.reverse();
        }
        let mut info: Vec<InfoField> = self.info.iter().rev().copied().collect();
        for inf in info.iter_mut() {
            inf.cons_dir = !inf.cons_dir;
        }
        let mut seg_len = [0u8; 3];
        for (i, seg) in segments.iter().enumerate() {
            seg_len[i] = (seg.len() * usize::from(HF_UNITS)) as u8;
        }
        let hops: Vec<PathField> = segments.into_iter().flatten().map(PathField::Hop).collect();
        let meta = PathMetaHdr {
            curr_inf: 0,
            curr_hf: 0,
            seg_len,
            base_ts: self.meta.base_ts,
            millis_ts: self.meta.millis_ts,
            counter: self.meta.counter,
        };
        let path = HummingbirdPath { meta, info, hops };
        path.validate()?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopfield::HopFlags;

    fn hf(ig: u16, eg: u16) -> PathField {
        PathField::Hop(HopField {
            flags: HopFlags::default(),
            exp_time: 63,
            cons_ingress: ig,
            cons_egress: eg,
            mac: [ig as u8, eg as u8, 0, 0, 0, 1],
        })
    }

    fn fly(ig: u16, eg: u16, res_id: u32) -> PathField {
        PathField::Flyover(FlyoverHopField {
            flags: HopFlags { flyover: true, ..Default::default() },
            exp_time: 63,
            cons_ingress: ig,
            cons_egress: eg,
            agg_mac: [res_id as u8, 0, 0, 0, 0, 2],
            res_id,
            bw: 100,
            res_start_offset: 10,
            res_duration: 600,
        })
    }

    /// 2 segments: [fly, hop] (5+3=8 units) and [hop, fly, hop] (3+5+3=11).
    fn sample_path() -> HummingbirdPath {
        HummingbirdPath {
            meta: PathMetaHdr {
                curr_inf: 0,
                curr_hf: 0,
                seg_len: [8, 11, 0],
                base_ts: 1_700_000_000,
                millis_ts: 5,
                counter: 1,
            },
            info: vec![
                InfoField { peering: false, cons_dir: true, seg_id: 0x11, timestamp: 100 },
                InfoField { peering: false, cons_dir: false, seg_id: 0x22, timestamp: 200 },
            ],
            hops: vec![fly(0, 2, 10), hf(3, 0), hf(0, 4), fly(5, 6, 20), hf(7, 0)],
        }
    }

    #[test]
    fn roundtrip() {
        let path = sample_path();
        let mut buf = vec![0u8; path.byte_len()];
        let n = path.emit(&mut buf).unwrap();
        assert_eq!(n, path.byte_len());
        assert_eq!(HummingbirdPath::parse(&buf).unwrap(), path);
    }

    #[test]
    fn byte_len_matches_units() {
        let path = sample_path();
        // 12 (meta) + 2*8 (info) + 20+12+12+20+12 (hops) = 104.
        assert_eq!(path.byte_len(), 104);
        assert_eq!(path.meta.total_hf_units(), 19);
    }

    #[test]
    fn misaligned_segments_rejected() {
        let mut path = sample_path();
        path.meta.seg_len = [7, 12, 0]; // boundary falls inside a field
        assert_eq!(path.validate(), Err(WireError::Malformed));
    }

    #[test]
    fn info_count_mismatch_rejected() {
        let mut path = sample_path();
        path.info.pop();
        assert_eq!(path.validate(), Err(WireError::Malformed));
    }

    #[test]
    fn advance_walks_fields_and_segments() {
        let mut path = sample_path();
        assert!(path.current_hop().unwrap().is_flyover());
        path.advance().unwrap(); // past flyover: curr_hf = 5
        assert_eq!(path.meta.curr_hf, 5);
        assert_eq!(path.meta.curr_inf, 0);
        path.advance().unwrap(); // past hop: curr_hf = 8, crosses into seg 1
        assert_eq!(path.meta.curr_hf, 8);
        assert_eq!(path.meta.curr_inf, 1);
        path.advance().unwrap();
        path.advance().unwrap();
        assert!(u16::from(path.meta.curr_hf) < path.meta.total_hf_units());
        path.advance().unwrap();
        assert_eq!(u16::from(path.meta.curr_hf), path.meta.total_hf_units(), "at the end");
    }

    #[test]
    fn hop_index_at_rejects_mid_field_pointer() {
        let path = sample_path();
        assert_eq!(path.hop_index_at(0).unwrap(), 0);
        assert_eq!(path.hop_index_at(5).unwrap(), 1);
        assert_eq!(path.hop_index_at(8).unwrap(), 2);
        assert!(path.hop_index_at(4).is_err());
        assert!(path.hop_index_at(19).is_err());
    }

    #[test]
    fn reversal_strips_flyovers_and_reverses_order() {
        let path = sample_path();
        let rev = path.reversed().unwrap();
        assert!(rev.hops.iter().all(|h| !h.is_flyover()));
        assert_eq!(rev.hops.len(), path.hops.len());
        // Reversed segment lengths: seg1 had 3 hops -> 9 units first.
        assert_eq!(rev.meta.seg_len, [9, 6, 0]);
        // First hop of reversed = last hop of original.
        assert_eq!(rev.hops[0].cons_ingress(), 7);
        // Info fields reversed, cons_dir flipped.
        assert_eq!(rev.info[0].seg_id, 0x22);
        assert!(rev.info[0].cons_dir);
        // Reversed path is itself parseable.
        let mut buf = vec![0u8; rev.byte_len()];
        rev.emit(&mut buf).unwrap();
        assert_eq!(HummingbirdPath::parse(&buf).unwrap(), rev);
    }

    #[test]
    fn empty_path_rejected() {
        let path = HummingbirdPath { meta: PathMetaHdr::default(), info: vec![], hops: vec![] };
        assert_eq!(path.validate(), Err(WireError::EmptyPath));
    }
}
