//! Hummingbird path meta header (Appendix A.1, Fig. 7).
//!
//! A 12-byte header carrying segment bookkeeping plus the three new
//! timestamp fields that drive flyover MACs and freshness checks:
//!
//! ```text
//!  0..4   CurrINF(2) ∥ CurrHF(8) ∥ r(1) ∥ Seg0Len(7) ∥ Seg1Len(7) ∥ Seg2Len(7)
//!  4..8   BaseTimestamp (Unix seconds)
//!  8..10  MillisTimestamp (offset from BaseTimestamp, ms)
//! 10..12  Counter (per-packet uniqueness)
//! ```
//!
//! `CurrHF` counts in 4-byte units: a standard hop field advances it by 3
//! (12 B), a flyover hop field by 5 (20 B). `SegiLen` is also in 4-byte
//! units, so a segment of one flyover + two standard hop fields has
//! `SegLen = 5 + 3 + 3 = 11`.

use crate::error::{Result, WireError};

/// Path meta header length in bytes.
pub const META_HDR_LEN: usize = 12;
/// CurrHF increment for a standard 12-byte hop field.
pub const HF_UNITS: u8 = 3;
/// CurrHF increment for a 20-byte flyover hop field.
pub const FLYOVER_UNITS: u8 = 5;
/// Maximum value of a 7-bit segment length.
pub(crate) const SEG_LEN_MAX: u8 = (1 << 7) - 1;

/// Owned representation of the path meta header.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathMetaHdr {
    /// Index of the current info field (0-2).
    pub curr_inf: u8,
    /// Offset of the current hop field in 4-byte units.
    pub curr_hf: u8,
    /// Lengths of segments 0-2 in 4-byte units; 0 = absent.
    pub seg_len: [u8; 3],
    /// Unix timestamp base for all offsets in the packet.
    pub base_ts: u32,
    /// Millisecond offset from `base_ts` at send time.
    pub millis_ts: u16,
    /// Per-packet counter; `(base_ts, millis_ts, counter)` must be unique
    /// per source to enable optional duplicate suppression.
    pub counter: u16,
}

impl PathMetaHdr {
    /// Decodes the header's 12 bytes, validating segment consistency.
    #[inline]
    pub fn decode(b: &[u8; META_HDR_LEN]) -> Result<Self> {
        let word = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        let hdr = PathMetaHdr {
            curr_inf: (word >> 30) as u8,
            curr_hf: (word >> 22) as u8,
            seg_len: [((word >> 14) & 0x7f) as u8, ((word >> 7) & 0x7f) as u8, (word & 0x7f) as u8],
            base_ts: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
            millis_ts: u16::from_be_bytes([b[8], b[9]]),
            counter: u16::from_be_bytes([b[10], b[11]]),
        };
        hdr.validate()?;
        Ok(hdr)
    }

    /// Parses from the front of `buf`, validating segment consistency.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        Self::decode(buf.first_chunk().ok_or(WireError::Truncated)?)
    }

    /// Emits into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < META_HDR_LEN {
            return Err(WireError::Truncated);
        }
        self.validate()?;
        buf[0..4].copy_from_slice(&self.first_word().to_be_bytes());
        buf[4..8].copy_from_slice(&self.base_ts.to_be_bytes());
        buf[8..10].copy_from_slice(&self.millis_ts.to_be_bytes());
        buf[10..12].copy_from_slice(&self.counter.to_be_bytes());
        Ok(())
    }

    /// The header's first 32-bit word, `CurrINF ∥ CurrHF ∥ r ∥
    /// Seg0Len ∥ Seg1Len ∥ Seg2Len`, with `r` clear: what a router
    /// rewrites when it advances the hop pointers.
    #[inline]
    pub fn first_word(&self) -> u32 {
        (u32::from(self.curr_inf) << 30)
            | (u32::from(self.curr_hf) << 22)
            | (u32::from(self.seg_len[0]) << 14)
            | (u32::from(self.seg_len[1]) << 7)
            | u32::from(self.seg_len[2])
    }

    /// Checks field ranges and the segment-gap rule
    /// (`SegXLen > 0 ∧ SegYLen == 0` for `X > Y` is an error).
    #[inline]
    pub fn validate(&self) -> Result<()> {
        if self.curr_inf > 2 {
            return Err(WireError::FieldRange);
        }
        for (i, &len) in self.seg_len.iter().enumerate() {
            if len > SEG_LEN_MAX {
                return Err(WireError::FieldRange);
            }
            if len > 0 && self.seg_len[..i].contains(&0) {
                return Err(WireError::SegmentGap);
            }
        }
        Ok(())
    }

    /// Number of present info fields (`NumINF`).
    #[inline]
    pub(crate) fn num_inf(&self) -> usize {
        self.seg_len.iter().take_while(|&&l| l > 0).count()
    }

    /// Total path length in 4-byte units (sum of segment lengths).
    #[inline]
    pub fn total_hf_units(&self) -> u16 {
        self.seg_len.iter().map(|&l| u16::from(l)).sum()
    }

    /// Byte offset of the current hop field relative to the start of the
    /// path header (Eq. 5b): `12 + 8·NumINF + 4·CurrHF`.
    #[inline]
    pub fn hop_field_offset(&self) -> usize {
        META_HDR_LEN + 8 * self.num_inf() + 4 * usize::from(self.curr_hf)
    }

    /// Index of the info field whose segment contains `curr_hf`, together
    /// with the unit offset of that segment's start.
    #[inline]
    pub fn segment_of_curr_hf(&self) -> Result<(usize, u16)> {
        let mut start = 0u16;
        let hf = u16::from(self.curr_hf);
        for (i, &len) in self.seg_len.iter().enumerate() {
            if len == 0 {
                break;
            }
            let end = start + u16::from(len);
            if hf < end {
                return Ok((i, start));
            }
            start = end;
        }
        Err(WireError::HopOutOfSegment)
    }

    /// Absolute send timestamp in milliseconds since the Unix epoch
    /// (`BaseTimestamp ∥ MillisTimestamp` of Algorithm 3, line 12).
    #[inline]
    pub fn abs_ts_millis(&self) -> u64 {
        u64::from(self.base_ts) * 1000 + u64::from(self.millis_ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PathMetaHdr {
        PathMetaHdr {
            curr_inf: 1,
            curr_hf: 11,
            seg_len: [11, 8, 0],
            base_ts: 1_700_000_000,
            millis_ts: 734,
            counter: 42,
        }
    }

    #[test]
    fn roundtrip() {
        let hdr = sample();
        let mut buf = [0u8; META_HDR_LEN];
        hdr.emit(&mut buf).unwrap();
        assert_eq!(PathMetaHdr::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn segment_gap_rejected() {
        let hdr = PathMetaHdr { seg_len: [0, 3, 0], ..sample() };
        assert_eq!(hdr.validate(), Err(WireError::SegmentGap));
        let hdr = PathMetaHdr { seg_len: [3, 0, 3], ..sample() };
        assert_eq!(hdr.validate(), Err(WireError::SegmentGap));
    }

    #[test]
    fn curr_inf_range() {
        let hdr = PathMetaHdr { curr_inf: 3, ..sample() };
        assert_eq!(hdr.validate(), Err(WireError::FieldRange));
    }

    #[test]
    fn offsets_follow_eq_5() {
        let hdr = sample();
        assert_eq!(hdr.num_inf(), 2);
        assert_eq!(hdr.hop_field_offset(), 12 + 16 + 44);
    }

    #[test]
    fn segment_lookup() {
        let hdr = sample();
        // curr_hf = 11 is the first unit of segment 1 (segment 0 is 0..11).
        assert_eq!(hdr.segment_of_curr_hf().unwrap(), (1, 11));
        let hdr0 = PathMetaHdr { curr_hf: 10, ..hdr };
        assert_eq!(hdr0.segment_of_curr_hf().unwrap(), (0, 0));
        let out = PathMetaHdr { curr_hf: 19, ..hdr };
        assert_eq!(out.segment_of_curr_hf(), Err(WireError::HopOutOfSegment));
    }

    #[test]
    fn abs_ts_millis_combines_fields() {
        let hdr = sample();
        assert_eq!(hdr.abs_ts_millis(), 1_700_000_000_000 + 734);
    }
}
