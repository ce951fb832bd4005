//! Full Hummingbird packet: common header, address header, path header and
//! payload, with a builder used by the source traffic generator.

use crate::common::{
    AddressHeader, CommonHeader, IsdAs, ADDR_HDR_LEN, COMMON_HDR_LEN, PATH_TYPE_HUMMINGBIRD,
};
use crate::error::{Result, WireError};
use crate::path::HummingbirdPath;

/// Owned representation of a complete packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// SCION common header. `hdr_len` and `payload_len` are maintained by
    /// `Packet::sync_lengths` / the builder.
    pub common: CommonHeader,
    /// SCION address header.
    pub addr: AddressHeader,
    /// Hummingbird path header.
    pub path: HummingbirdPath,
    /// L4 payload bytes.
    pub payload: Vec<u8>,
}

impl Packet {
    /// Total header length in bytes (common + address + path).
    pub fn header_len(&self) -> usize {
        COMMON_HDR_LEN + ADDR_HDR_LEN + self.path.byte_len()
    }

    /// Total packet length in bytes.
    pub fn wire_len(&self) -> usize {
        self.header_len() + self.payload.len()
    }

    /// Recomputes `hdr_len` (4-byte units) and `payload_len` in the common
    /// header from the current path and payload.
    pub(crate) fn sync_lengths(&mut self) -> Result<()> {
        let hdr = self.header_len();
        debug_assert_eq!(hdr % 4, 0, "all header parts are 4-byte aligned");
        let units = hdr / 4;
        if units > u8::MAX as usize {
            return Err(WireError::FieldRange);
        }
        if self.payload.len() > u16::MAX as usize {
            return Err(WireError::FieldRange);
        }
        self.common.hdr_len = units as u8;
        self.common.payload_len = self.payload.len() as u16;
        Ok(())
    }

    /// The authenticated packet length of Eq. 7d.
    pub fn pkt_len(&self) -> Result<u16> {
        self.common.pkt_len()
    }

    /// Serializes the packet to bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; self.wire_len()];
        self.common.emit(&mut buf)?;
        self.addr.emit(&mut buf[COMMON_HDR_LEN..])?;
        let path_start = COMMON_HDR_LEN + ADDR_HDR_LEN;
        let written = self.path.emit(&mut buf[path_start..])?;
        buf[path_start + written..].copy_from_slice(&self.payload);
        Ok(buf)
    }

    /// Parses a packet from bytes, validating length consistency.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        let common = CommonHeader::parse(buf)?;
        let addr = AddressHeader::parse(&buf[COMMON_HDR_LEN..])?;
        let path_start = COMMON_HDR_LEN + ADDR_HDR_LEN;
        let path = HummingbirdPath::parse(&buf[path_start..])?;
        let hdr_len_bytes = 4 * usize::from(common.hdr_len);
        if hdr_len_bytes != path_start + path.byte_len() {
            return Err(WireError::Malformed);
        }
        let payload_start = hdr_len_bytes;
        let payload_end = payload_start + usize::from(common.payload_len);
        if buf.len() < payload_end {
            return Err(WireError::Truncated);
        }
        Ok(Packet { common, addr, path, payload: buf[payload_start..payload_end].to_vec() })
    }
}

/// Builder for Hummingbird packets.
#[derive(Clone, Debug)]
pub struct PacketBuilder {
    src: IsdAs,
    dst: IsdAs,
    src_host: [u8; 4],
    dst_host: [u8; 4],
    flow_id: u32,
    next_hdr: u8,
}

impl PacketBuilder {
    /// Starts a builder for traffic from `src` to `dst`.
    pub fn new(src: IsdAs, dst: IsdAs) -> Self {
        PacketBuilder {
            src,
            dst,
            src_host: [0, 0, 0, 1],
            dst_host: [0, 0, 0, 2],
            flow_id: 1,
            next_hdr: 17,
        }
    }

    /// Sets host addresses.
    pub fn hosts(mut self, src_host: [u8; 4], dst_host: [u8; 4]) -> Self {
        self.src_host = src_host;
        self.dst_host = dst_host;
        self
    }

    /// Sets the 20-bit flow ID.
    pub fn flow_id(mut self, flow_id: u32) -> Self {
        self.flow_id = flow_id;
        self
    }

    /// Assembles a packet with the given path and payload, syncing all
    /// length fields.
    pub fn build(&self, path: HummingbirdPath, payload: Vec<u8>) -> Result<Packet> {
        let mut pkt = Packet {
            common: CommonHeader {
                version: 0,
                traffic_class: 0,
                flow_id: self.flow_id,
                next_hdr: self.next_hdr,
                hdr_len: 0,
                payload_len: 0,
                path_type: PATH_TYPE_HUMMINGBIRD,
            },
            addr: AddressHeader {
                dst: self.dst,
                src: self.src,
                dst_host: self.dst_host,
                src_host: self.src_host,
            },
            path,
            payload,
        };
        pkt.sync_lengths()?;
        pkt.path.validate()?;
        Ok(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hopfield::{FlyoverHopField, HopField, HopFlags, InfoField};
    use crate::meta::PathMetaHdr;
    use crate::path::PathField;

    fn simple_path(n_hops: usize, flyovers: &[usize]) -> HummingbirdPath {
        let hops: Vec<PathField> = (0..n_hops)
            .map(|i| {
                if flyovers.contains(&i) {
                    PathField::Flyover(FlyoverHopField {
                        flags: HopFlags { flyover: true, ..Default::default() },
                        exp_time: 63,
                        cons_ingress: i as u16,
                        cons_egress: i as u16 + 1,
                        agg_mac: [0; 6],
                        res_id: i as u32,
                        bw: 50,
                        res_start_offset: 0,
                        res_duration: 60,
                    })
                } else {
                    PathField::Hop(HopField {
                        flags: HopFlags::default(),
                        exp_time: 63,
                        cons_ingress: i as u16,
                        cons_egress: i as u16 + 1,
                        mac: [0; 6],
                    })
                }
            })
            .collect();
        let units: u16 = hops.iter().map(|h| u16::from(h.units())).sum();
        HummingbirdPath {
            meta: PathMetaHdr {
                curr_inf: 0,
                curr_hf: 0,
                seg_len: [units as u8, 0, 0],
                base_ts: 1_700_000_000,
                millis_ts: 0,
                counter: 0,
            },
            info: vec![InfoField { peering: false, cons_dir: true, seg_id: 7, timestamp: 99 }],
            hops,
        }
    }

    #[test]
    fn packet_roundtrip() {
        let builder = PacketBuilder::new(IsdAs::new(1, 10), IsdAs::new(2, 20));
        let pkt = builder.build(simple_path(4, &[1, 2]), vec![0xab; 500]).unwrap();
        let bytes = pkt.to_bytes().unwrap();
        assert_eq!(Packet::parse(&bytes).unwrap(), pkt);
    }

    #[test]
    fn lengths_are_synced() {
        let builder = PacketBuilder::new(IsdAs::new(1, 10), IsdAs::new(2, 20));
        let pkt = builder.build(simple_path(3, &[0]), vec![1; 100]).unwrap();
        assert_eq!(usize::from(pkt.common.hdr_len) * 4, pkt.header_len());
        assert_eq!(usize::from(pkt.common.payload_len), 100);
        // Eq. 7d: PktLen covers header + payload.
        assert_eq!(usize::from(pkt.pkt_len().unwrap()), pkt.wire_len());
    }

    #[test]
    fn parse_rejects_inconsistent_hdr_len() {
        let builder = PacketBuilder::new(IsdAs::new(1, 10), IsdAs::new(2, 20));
        let pkt = builder.build(simple_path(2, &[]), vec![0; 10]).unwrap();
        let mut bytes = pkt.to_bytes().unwrap();
        bytes[5] += 1; // corrupt hdr_len
        assert!(Packet::parse(&bytes).is_err());
    }

    #[test]
    fn parse_rejects_truncated_payload() {
        let builder = PacketBuilder::new(IsdAs::new(1, 10), IsdAs::new(2, 20));
        let pkt = builder.build(simple_path(2, &[]), vec![0; 10]).unwrap();
        let bytes = pkt.to_bytes().unwrap();
        assert_eq!(Packet::parse(&bytes[..bytes.len() - 1]), Err(WireError::Truncated));
    }

    #[test]
    fn flyover_overhead_is_8_bytes_per_hop() {
        let builder = PacketBuilder::new(IsdAs::new(1, 10), IsdAs::new(2, 20));
        let plain = builder.build(simple_path(4, &[]), vec![]).unwrap();
        let with_fly = builder.build(simple_path(4, &[0, 1, 2, 3]), vec![]).unwrap();
        // §4: "additional 8 bytes per reserved hop".
        assert_eq!(with_fly.wire_len() - plain.wire_len(), 4 * 8);
    }
}
