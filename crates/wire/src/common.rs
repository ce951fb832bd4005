//! SCION common header and address header.
//!
//! Layout follows the SCION header specification the paper's Appendix A
//! builds on. Host addresses are fixed at 4 bytes (`DT/DL = 0`) — SCION
//! supports longer host addresses, but nothing in Hummingbird depends on
//! them and the paper's evaluation uses IPv4 hosts.

use crate::error::{Result, WireError};

/// Path-type value we assign to the Hummingbird path type (new in the paper).
pub const PATH_TYPE_HUMMINGBIRD: u8 = 5;

/// Common header length in bytes.
pub const COMMON_HDR_LEN: usize = 12;
/// Address header length in bytes (4-byte host addresses).
pub const ADDR_HDR_LEN: usize = 24;

/// An ISD-AS pair identifying an autonomous system in SCION.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IsdAs {
    /// Isolation-domain identifier.
    pub isd: u16,
    /// AS number (48-bit in SCION).
    pub asn: u64,
}

impl IsdAs {
    /// Builds an ISD-AS pair, masking the AS number to 48 bits.
    pub const fn new(isd: u16, asn: u64) -> Self {
        IsdAs { isd, asn: asn & 0xffff_ffff_ffff }
    }
}

impl std::fmt::Display for IsdAs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-{:x}", self.isd, self.asn)
    }
}

/// Owned representation of the SCION common header.
///
/// ```text
///  0       Version(4) | QoS(4 high bits of TrafficClass)
///  1..4    FlowID (20 bits, low bits of bytes 1-3)
///  4       NextHdr
///  5       HdrLen (total header length in 4-byte units)
///  6..8    PayloadLen
///  8       PathType
///  9       DT/DL/ST/SL (host-address types; 0 here)
/// 10..12   RSV
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommonHeader {
    /// SCION version (0).
    pub version: u8,
    /// Traffic class / QoS byte.
    pub traffic_class: u8,
    /// 20-bit flow identifier.
    pub flow_id: u32,
    /// Next (L4) header identifier.
    pub next_hdr: u8,
    /// Total header length in 4-byte units (common + address + path).
    pub hdr_len: u8,
    /// Payload length in bytes.
    pub payload_len: u16,
    /// Path type (SCION = 1, Hummingbird = 5).
    pub path_type: u8,
}

impl CommonHeader {
    /// Decodes the header's 12 bytes.
    #[inline]
    pub fn decode(b: &[u8; COMMON_HDR_LEN]) -> Self {
        CommonHeader {
            version: b[0] >> 4,
            traffic_class: ((b[0] & 0x0f) << 4) | (b[1] >> 4),
            flow_id: u32::from_be_bytes([0, b[1] & 0x0f, b[2], b[3]]),
            next_hdr: b[4],
            hdr_len: b[5],
            payload_len: u16::from_be_bytes([b[6], b[7]]),
            path_type: b[8],
        }
    }

    /// Parses from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        buf.first_chunk().map(Self::decode).ok_or(WireError::Truncated)
    }

    /// Emits into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < COMMON_HDR_LEN {
            return Err(WireError::Truncated);
        }
        if self.flow_id >= (1 << 20) {
            return Err(WireError::FieldRange);
        }
        buf[0] = (self.version << 4) | (self.traffic_class >> 4);
        buf[1] = ((self.traffic_class & 0x0f) << 4) | ((self.flow_id >> 16) as u8 & 0x0f);
        buf[2] = (self.flow_id >> 8) as u8;
        buf[3] = self.flow_id as u8;
        buf[4] = self.next_hdr;
        buf[5] = self.hdr_len;
        buf[6..8].copy_from_slice(&self.payload_len.to_be_bytes());
        buf[8] = self.path_type;
        buf[9] = 0; // DT/DL/ST/SL: 4-byte host addresses
        buf[10] = 0;
        buf[11] = 0;
        Ok(())
    }

    /// Computes the authenticated packet length (Eq. 7d):
    /// `PktLen = PayloadLen + 4·HdrLen`, dropping the packet on overflow.
    #[inline]
    pub fn pkt_len(&self) -> Result<u16> {
        self.payload_len.checked_add(4 * u16::from(self.hdr_len)).ok_or(WireError::PktLenOverflow)
    }
}

/// Owned representation of the SCION address header (4-byte host addrs).
///
/// ```text
///  0..2   DstISD    2..8  DstAS
///  8..10  SrcISD   10..16 SrcAS
/// 16..20  DstHostAddr
/// 20..24  SrcHostAddr
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AddressHeader {
    /// Destination AS.
    pub dst: IsdAs,
    /// Source AS.
    pub src: IsdAs,
    /// Destination host address (IPv4-sized).
    pub dst_host: [u8; 4],
    /// Source host address (IPv4-sized).
    pub src_host: [u8; 4],
}

impl AddressHeader {
    /// Decodes the header's 24 bytes.
    #[inline]
    pub fn decode(b: &[u8; ADDR_HDR_LEN]) -> Self {
        AddressHeader {
            dst: IsdAs {
                isd: u16::from_be_bytes([b[0], b[1]]),
                asn: u64::from_be_bytes([0, 0, b[2], b[3], b[4], b[5], b[6], b[7]]),
            },
            src: IsdAs {
                isd: u16::from_be_bytes([b[8], b[9]]),
                asn: u64::from_be_bytes([0, 0, b[10], b[11], b[12], b[13], b[14], b[15]]),
            },
            dst_host: [b[16], b[17], b[18], b[19]],
            src_host: [b[20], b[21], b[22], b[23]],
        }
    }

    /// Parses from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        buf.first_chunk().map(Self::decode).ok_or(WireError::Truncated)
    }

    /// Emits into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < ADDR_HDR_LEN {
            return Err(WireError::Truncated);
        }
        let write_ia = |ia: &IsdAs, b: &mut [u8]| {
            b[0..2].copy_from_slice(&ia.isd.to_be_bytes());
            let a = ia.asn & 0xffff_ffff_ffff;
            b[2] = (a >> 40) as u8;
            b[3] = (a >> 32) as u8;
            b[4] = (a >> 24) as u8;
            b[5] = (a >> 16) as u8;
            b[6] = (a >> 8) as u8;
            b[7] = a as u8;
        };
        write_ia(&self.dst, &mut buf[0..8]);
        write_ia(&self.src, &mut buf[8..16]);
        buf[16..20].copy_from_slice(&self.dst_host);
        buf[20..24].copy_from_slice(&self.src_host);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_header_roundtrip() {
        let hdr = CommonHeader {
            version: 0,
            traffic_class: 0xb8,
            flow_id: 0xabcde,
            next_hdr: 17,
            hdr_len: 27,
            payload_len: 1400,
            path_type: PATH_TYPE_HUMMINGBIRD,
        };
        let mut buf = [0u8; COMMON_HDR_LEN];
        hdr.emit(&mut buf).unwrap();
        assert_eq!(CommonHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn flow_id_range_enforced() {
        let hdr = CommonHeader {
            version: 0,
            traffic_class: 0,
            flow_id: 1 << 20,
            next_hdr: 0,
            hdr_len: 0,
            payload_len: 0,
            path_type: 0,
        };
        let mut buf = [0u8; COMMON_HDR_LEN];
        assert_eq!(hdr.emit(&mut buf), Err(WireError::FieldRange));
    }

    #[test]
    fn pkt_len_eq_7d() {
        let hdr = CommonHeader {
            version: 0,
            traffic_class: 0,
            flow_id: 0,
            next_hdr: 0,
            hdr_len: 50,
            payload_len: 1000,
            path_type: 0,
        };
        assert_eq!(hdr.pkt_len().unwrap(), 1200);
    }

    #[test]
    fn pkt_len_overflow_is_error() {
        let hdr = CommonHeader {
            version: 0,
            traffic_class: 0,
            flow_id: 0,
            next_hdr: 0,
            hdr_len: 255,
            payload_len: u16::MAX - 100,
            path_type: 0,
        };
        assert_eq!(hdr.pkt_len(), Err(WireError::PktLenOverflow));
    }

    #[test]
    fn address_header_roundtrip() {
        let hdr = AddressHeader {
            dst: IsdAs::new(1, 0xff00_0000_0110),
            src: IsdAs::new(2, 0xff00_0000_0220),
            dst_host: [10, 0, 0, 1],
            src_host: [192, 168, 1, 7],
        };
        let mut buf = [0u8; ADDR_HDR_LEN];
        hdr.emit(&mut buf).unwrap();
        assert_eq!(AddressHeader::parse(&buf).unwrap(), hdr);
    }

    #[test]
    fn asn_is_masked_to_48_bits() {
        let ia = IsdAs::new(1, u64::MAX);
        assert_eq!(ia.asn, 0xffff_ffff_ffff);
    }

    #[test]
    fn truncated_buffers_rejected() {
        assert_eq!(CommonHeader::parse(&[0u8; 11]), Err(WireError::Truncated));
        assert_eq!(AddressHeader::parse(&[0u8; 23]), Err(WireError::Truncated));
    }
}
