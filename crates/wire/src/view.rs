//! Zero-copy packet views in the smoltcp idiom: a `PacketView<T:
//! AsRef<[u8]>>` wraps a buffer, `new_checked` validates structural
//! invariants once, and field accessors read directly at wire offsets
//! without allocating.
//!
//! The owned `Repr` types in [`crate::packet`]/[`crate::path`] are the
//! construction-side API; views are the inspection/forwarding-side API —
//! what a border router uses on the hot path.

use crate::common::{AddressHeader, CommonHeader, ADDR_HDR_LEN, COMMON_HDR_LEN};
use crate::error::{Result, WireError};
use crate::hopfield::{peek_flyover_bit, FLYOVER_FIELD_LEN, HOP_FIELD_LEN};
use crate::meta::{PathMetaHdr, META_HDR_LEN};

/// Byte offset of the path header within a packet.
pub const PATH_OFFSET: usize = COMMON_HDR_LEN + ADDR_HDR_LEN;

/// Length of the fixed prefix every packet starts with: the common
/// header, the address header and the path meta header.
pub const PREFIX_LEN: usize = PATH_OFFSET + META_HDR_LEN;

/// Decodes the fixed prefix: the common header, the address header and
/// the path meta header, each once, at its offset. The meta header is
/// validated as [`PathMetaHdr::decode`] does.
#[inline]
pub fn decode_prefix(
    prefix: &[u8; PREFIX_LEN],
) -> Result<(CommonHeader, AddressHeader, PathMetaHdr)> {
    // Splits of a fixed-size array at constant offsets: these cannot fail
    // and compile to nothing.
    let (common, rest) = prefix.split_first_chunk().ok_or(WireError::Truncated)?;
    let (addr, meta) = rest.split_first_chunk().ok_or(WireError::Truncated)?;
    let meta = meta.first_chunk().ok_or(WireError::Truncated)?;
    Ok((CommonHeader::decode(common), AddressHeader::decode(addr), PathMetaHdr::decode(meta)?))
}

/// A zero-copy view over a serialized Hummingbird packet.
#[derive(Debug, Clone)]
pub struct PacketView<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> PacketView<T> {
    /// Wraps `buffer` without any checks. Accessors may return errors (or
    /// garbage field values) on malformed input; prefer
    /// [`PacketView::new_checked`].
    pub(crate) fn new_unchecked(buffer: T) -> Self {
        PacketView { buffer }
    }

    /// Wraps `buffer`, validating lengths and structural invariants:
    /// header fits, declared `hdr_len` fits, meta header parses, the
    /// current hop field lies within the buffer.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let view = Self::new_unchecked(buffer);
        view.check()?;
        Ok(view)
    }

    fn check(&self) -> Result<()> {
        let buf = self.buffer.as_ref();
        let (common, _, meta) = decode_prefix(buf.first_chunk().ok_or(WireError::Truncated)?)?;
        if buf.len() < 4 * usize::from(common.hdr_len) {
            return Err(WireError::Truncated);
        }
        if u16::from(meta.curr_hf) < meta.total_hf_units() {
            let off = PATH_OFFSET + meta.hop_field_offset();
            let need = if peek_flyover_bit(buf.get(off..).ok_or(WireError::Truncated)?)? {
                FLYOVER_FIELD_LEN
            } else {
                HOP_FIELD_LEN
            };
            if buf.len() < off + need {
                return Err(WireError::Truncated);
            }
        }
        Ok(())
    }

    /// Releases the underlying buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        self.buffer.as_ref()
    }

    /// Parses the common header.
    pub fn common(&self) -> Result<CommonHeader> {
        CommonHeader::parse(self.buffer.as_ref())
    }

    /// Parses the address header.
    pub fn addr(&self) -> Result<AddressHeader> {
        AddressHeader::parse(
            self.buffer.as_ref().get(COMMON_HDR_LEN..).ok_or(WireError::Truncated)?,
        )
    }

    /// Parses the path meta header.
    pub fn meta(&self) -> Result<PathMetaHdr> {
        PathMetaHdr::parse(self.buffer.as_ref().get(PATH_OFFSET..).ok_or(WireError::Truncated)?)
    }

    /// Byte offset where the L4 payload starts (= 4·hdr_len).
    pub(crate) fn payload_offset(&self) -> Result<usize> {
        Ok(4 * usize::from(self.common()?.hdr_len))
    }

    /// The L4 payload slice.
    pub fn payload(&self) -> Result<&[u8]> {
        let start = self.payload_offset()?;
        let len = usize::from(self.common()?.payload_len);
        self.buffer.as_ref().get(start..start + len).ok_or(WireError::Truncated)
    }

    /// Total on-wire length the headers declare: `4·hdr_len +
    /// payload_len`. [`PacketView::new_checked`] validates the headers
    /// but not the payload tail, so a receiver handed whole datagrams
    /// (the real-socket testbed) compares this against the datagram
    /// length to count payload truncation as a parse drop instead of
    /// failing later in [`PacketView::payload`].
    pub fn wire_len(&self) -> Result<usize> {
        let common = self.common()?;
        Ok(4 * usize::from(common.hdr_len) + usize::from(common.payload_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::IsdAs;
    use crate::hopfield::{FlyoverHopField, HopField, HopFlags, InfoField};
    use crate::meta::PathMetaHdr;
    use crate::packet::PacketBuilder;
    use crate::path::{HummingbirdPath, PathField};

    fn sample_packet() -> Vec<u8> {
        let hops = vec![
            PathField::Flyover(FlyoverHopField {
                flags: HopFlags { flyover: true, ..Default::default() },
                exp_time: 63,
                cons_ingress: 0,
                cons_egress: 1,
                agg_mac: [1; 6],
                res_id: 9,
                bw: 100,
                res_start_offset: 5,
                res_duration: 60,
            }),
            PathField::Hop(HopField {
                flags: HopFlags::default(),
                exp_time: 63,
                cons_ingress: 2,
                cons_egress: 0,
                mac: [2; 6],
            }),
        ];
        let path = HummingbirdPath {
            meta: PathMetaHdr {
                curr_inf: 0,
                curr_hf: 0,
                seg_len: [8, 0, 0],
                base_ts: 1_700_000_000,
                millis_ts: 3,
                counter: 4,
            },
            info: vec![InfoField { peering: false, cons_dir: true, seg_id: 0xAA55, timestamp: 9 }],
            hops,
        };
        PacketBuilder::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20))
            .build(path, vec![0xCD; 40])
            .unwrap()
            .to_bytes()
            .unwrap()
    }

    #[test]
    fn checked_view_accepts_valid_packets() {
        let bytes = sample_packet();
        let view = PacketView::new_checked(bytes.as_slice()).unwrap();
        assert_eq!(view.addr().unwrap().dst, IsdAs::new(2, 0x20));
        assert_eq!(view.payload().unwrap(), &[0xCD; 40][..]);
        assert_eq!(view.meta().unwrap().counter, 4);
    }

    #[test]
    fn checked_view_rejects_truncation() {
        let bytes = sample_packet();
        for cut in [1usize, 20, 40, 60] {
            let short = &bytes[..bytes.len().saturating_sub(cut)];
            if short.len() < bytes.len() - 40 {
                // Cut into the header: must fail.
                assert!(PacketView::new_checked(short).is_err(), "cut {cut}");
            }
        }
        assert!(PacketView::new_checked(&bytes[..10]).is_err());
    }

    #[test]
    fn wire_len_matches_serialized_length_and_spots_truncation() {
        let bytes = sample_packet();
        let view = PacketView::new_checked(bytes.as_slice()).unwrap();
        assert_eq!(view.wire_len().unwrap(), bytes.len());
        // A payload-truncated datagram still passes the header checks but
        // declares more bytes than it carries — the receiver's cue.
        let short = &bytes[..bytes.len() - 10];
        let view = PacketView::new_checked(short).unwrap();
        assert!(view.wire_len().unwrap() > short.len());
        assert!(view.payload().is_err());
    }

    #[test]
    fn offsets_match_manual_arithmetic() {
        let bytes = sample_packet();
        let view = PacketView::new_checked(bytes.as_slice()).unwrap();
        // 36 (fixed headers) + 12 (meta) + 8 (one info field) = 56.
        assert_eq!(PATH_OFFSET + view.meta().unwrap().hop_field_offset(), 56);
    }

    #[test]
    fn view_over_owned_buffer() {
        let view = PacketView::new_checked(sample_packet()).unwrap();
        let inner = view.into_inner();
        assert!(PacketView::new_checked(inner).is_ok());
    }
}
