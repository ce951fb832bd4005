//! Info fields, hop fields and flyover hop fields (Appendix A.2-A.4).

use crate::error::{Result, WireError};
use hummingbird_crypto::{Tag, BW_ENC_MAX, RES_ID_MAX};

/// Info field length in bytes.
pub const INFO_FIELD_LEN: usize = 8;
/// Standard hop field length in bytes.
pub(crate) const HOP_FIELD_LEN: usize = 12;
/// Flyover hop field length in bytes.
pub(crate) const FLYOVER_FIELD_LEN: usize = 20;

/// Owned representation of an info field (Fig. 8, unchanged from SCION).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InfoField {
    /// Peering flag.
    pub peering: bool,
    /// Construction-direction flag.
    pub cons_dir: bool,
    /// Updatable MAC-chaining accumulator.
    pub seg_id: u16,
    /// Beacon timestamp (Unix seconds).
    pub timestamp: u32,
}

impl InfoField {
    /// Decodes the field's 8 bytes.
    #[inline]
    pub fn decode(b: &[u8; INFO_FIELD_LEN]) -> Self {
        InfoField {
            peering: b[0] & 0b10 != 0,
            cons_dir: b[0] & 0b01 != 0,
            seg_id: u16::from_be_bytes([b[2], b[3]]),
            timestamp: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
        }
    }

    /// Parses from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        buf.first_chunk().map(Self::decode).ok_or(WireError::Truncated)
    }

    /// Emits into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < INFO_FIELD_LEN {
            return Err(WireError::Truncated);
        }
        buf[0] = (u8::from(self.peering) << 1) | u8::from(self.cons_dir);
        buf[1] = 0; // RSV
        buf[2..4].copy_from_slice(&self.seg_id.to_be_bytes());
        buf[4..8].copy_from_slice(&self.timestamp.to_be_bytes());
        Ok(())
    }
}

/// Flag bits shared by hop fields and flyover hop fields (byte 0).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopFlags {
    /// Flyover bit `F`: 1 for [`FlyoverHopField`], 0 for [`HopField`].
    pub flyover: bool,
    /// ConsIngress router alert.
    pub ingress_alert: bool,
    /// ConsEgress router alert.
    pub egress_alert: bool,
}

impl HopFlags {
    #[inline]
    fn decode(byte: u8) -> Self {
        HopFlags {
            flyover: byte & 0x80 != 0,
            ingress_alert: byte & 0x02 != 0,
            egress_alert: byte & 0x01 != 0,
        }
    }

    fn emit(&self) -> u8 {
        (u8::from(self.flyover) << 7)
            | (u8::from(self.ingress_alert) << 1)
            | u8::from(self.egress_alert)
    }
}

/// Reads the flyover bit without parsing the whole field — routers use this
/// to decide which processing pipeline a hop takes (Algorithm 2, line 1).
#[inline]
pub fn peek_flyover_bit(buf: &[u8]) -> Result<bool> {
    buf.first().map(|&b| b & 0x80 != 0).ok_or(WireError::Truncated)
}

/// Owned representation of a standard hop field (Fig. 9, 12 bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopField {
    /// Flag bits (flyover must be false).
    pub flags: HopFlags,
    /// Relative expiry of the hop field (SCION 1-byte encoding).
    pub exp_time: u8,
    /// Ingress interface in construction direction.
    pub cons_ingress: u16,
    /// Egress interface in construction direction.
    pub cons_egress: u16,
    /// 6-byte hop-field MAC.
    pub mac: Tag,
}

impl HopField {
    /// Decodes the field's 12 bytes; a set flyover bit is `Malformed`.
    #[inline]
    pub fn decode(b: &[u8; HOP_FIELD_LEN]) -> Result<Self> {
        let flags = HopFlags::decode(b[0]);
        if flags.flyover {
            return Err(WireError::Malformed);
        }
        Ok(HopField {
            flags,
            exp_time: b[1],
            cons_ingress: u16::from_be_bytes([b[2], b[3]]),
            cons_egress: u16::from_be_bytes([b[4], b[5]]),
            mac: [b[6], b[7], b[8], b[9], b[10], b[11]],
        })
    }

    /// Parses from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        Self::decode(buf.first_chunk().ok_or(WireError::Truncated)?)
    }

    /// Emits into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < HOP_FIELD_LEN {
            return Err(WireError::Truncated);
        }
        if self.flags.flyover {
            return Err(WireError::Malformed);
        }
        buf[0] = self.flags.emit();
        buf[1] = self.exp_time;
        buf[2..4].copy_from_slice(&self.cons_ingress.to_be_bytes());
        buf[4..6].copy_from_slice(&self.cons_egress.to_be_bytes());
        buf[6..12].copy_from_slice(&self.mac);
        Ok(())
    }
}

/// Owned representation of a flyover hop field (Fig. 10, 20 bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlyoverHopField {
    /// Flag bits (flyover must be true).
    pub flags: HopFlags,
    /// Relative expiry of the *hop field* (not the reservation).
    pub exp_time: u8,
    /// Ingress interface in construction direction.
    pub cons_ingress: u16,
    /// Egress interface in construction direction.
    pub cons_egress: u16,
    /// Aggregate MAC: `HopFieldMAC ⊕ FlyoverMAC` (Eq. 6).
    pub agg_mac: Tag,
    /// 22-bit reservation ID.
    pub res_id: u32,
    /// 10-bit encoded reservation bandwidth (see [`crate::bwcls`]).
    pub bw: u16,
    /// Reservation start as offset from `BaseTimestamp`, seconds.
    pub res_start_offset: u16,
    /// Reservation duration, seconds.
    pub res_duration: u16,
}

impl FlyoverHopField {
    /// Decodes the field's 20 bytes; a clear flyover bit is `Malformed`.
    #[inline]
    pub fn decode(b: &[u8; FLYOVER_FIELD_LEN]) -> Result<Self> {
        let flags = HopFlags::decode(b[0]);
        if !flags.flyover {
            return Err(WireError::Malformed);
        }
        let packed = u32::from_be_bytes([b[12], b[13], b[14], b[15]]);
        Ok(FlyoverHopField {
            flags,
            exp_time: b[1],
            cons_ingress: u16::from_be_bytes([b[2], b[3]]),
            cons_egress: u16::from_be_bytes([b[4], b[5]]),
            agg_mac: [b[6], b[7], b[8], b[9], b[10], b[11]],
            res_id: packed >> 10,
            bw: (packed & 0x3ff) as u16,
            res_start_offset: u16::from_be_bytes([b[16], b[17]]),
            res_duration: u16::from_be_bytes([b[18], b[19]]),
        })
    }

    /// Parses from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        Self::decode(buf.first_chunk().ok_or(WireError::Truncated)?)
    }

    /// Emits into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        if buf.len() < FLYOVER_FIELD_LEN {
            return Err(WireError::Truncated);
        }
        if !self.flags.flyover {
            return Err(WireError::Malformed);
        }
        if self.res_id > RES_ID_MAX || self.bw > BW_ENC_MAX {
            return Err(WireError::FieldRange);
        }
        buf[0] = self.flags.emit();
        buf[1] = self.exp_time;
        buf[2..4].copy_from_slice(&self.cons_ingress.to_be_bytes());
        buf[4..6].copy_from_slice(&self.cons_egress.to_be_bytes());
        buf[6..12].copy_from_slice(&self.agg_mac);
        let packed = (self.res_id << 10) | u32::from(self.bw);
        buf[12..16].copy_from_slice(&packed.to_be_bytes());
        buf[16..18].copy_from_slice(&self.res_start_offset.to_be_bytes());
        buf[18..20].copy_from_slice(&self.res_duration.to_be_bytes());
        Ok(())
    }

    /// Strips reservation-specific fields, converting to a standard hop
    /// field (used by path reversal, Appendix A.8). The MAC is carried over
    /// verbatim; at the router it has already been replaced by the plain
    /// hop-field MAC before forwarding (Appendix A.7).
    pub(crate) fn to_hop_field(self) -> HopField {
        HopField {
            flags: HopFlags { flyover: false, ..self.flags },
            exp_time: self.exp_time,
            cons_ingress: self.cons_ingress,
            cons_egress: self.cons_egress,
            mac: self.agg_mac,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_field_roundtrip() {
        let inf = InfoField { peering: true, cons_dir: false, seg_id: 0xbeef, timestamp: 77 };
        let mut buf = [0u8; INFO_FIELD_LEN];
        inf.emit(&mut buf).unwrap();
        assert_eq!(InfoField::parse(&buf).unwrap(), inf);
    }

    #[test]
    fn hop_field_roundtrip() {
        let hf = HopField {
            flags: HopFlags { flyover: false, ingress_alert: true, egress_alert: false },
            exp_time: 63,
            cons_ingress: 2,
            cons_egress: 5,
            mac: [1, 2, 3, 4, 5, 6],
        };
        let mut buf = [0u8; HOP_FIELD_LEN];
        hf.emit(&mut buf).unwrap();
        assert_eq!(HopField::parse(&buf).unwrap(), hf);
        assert!(!peek_flyover_bit(&buf).unwrap());
    }

    #[test]
    fn flyover_field_roundtrip() {
        let fly = FlyoverHopField {
            flags: HopFlags { flyover: true, ingress_alert: false, egress_alert: true },
            exp_time: 100,
            cons_ingress: 7,
            cons_egress: 9,
            agg_mac: [9, 8, 7, 6, 5, 4],
            res_id: RES_ID_MAX,
            bw: BW_ENC_MAX,
            res_start_offset: 3600,
            res_duration: 900,
        };
        let mut buf = [0u8; FLYOVER_FIELD_LEN];
        fly.emit(&mut buf).unwrap();
        assert_eq!(FlyoverHopField::parse(&buf).unwrap(), fly);
        assert!(peek_flyover_bit(&buf).unwrap());
    }

    #[test]
    fn flyover_bit_mismatch_is_malformed() {
        let mut buf = [0u8; FLYOVER_FIELD_LEN];
        // Flyover bit set but parsed as standard hop field.
        buf[0] = 0x80;
        assert_eq!(HopField::parse(&buf), Err(WireError::Malformed));
        // Flyover bit clear but parsed as flyover field.
        buf[0] = 0;
        assert_eq!(FlyoverHopField::parse(&buf), Err(WireError::Malformed));
    }

    #[test]
    fn res_id_range_enforced() {
        let fly = FlyoverHopField {
            flags: HopFlags { flyover: true, ..Default::default() },
            res_id: RES_ID_MAX + 1,
            ..Default::default()
        };
        let mut buf = [0u8; FLYOVER_FIELD_LEN];
        assert_eq!(fly.emit(&mut buf), Err(WireError::FieldRange));
    }

    #[test]
    fn flyover_to_hop_field_strips_reservation() {
        let fly = FlyoverHopField {
            flags: HopFlags { flyover: true, ingress_alert: true, egress_alert: false },
            exp_time: 10,
            cons_ingress: 1,
            cons_egress: 2,
            agg_mac: [1, 1, 2, 2, 3, 3],
            res_id: 5,
            bw: 6,
            res_start_offset: 7,
            res_duration: 8,
        };
        let hf = fly.to_hop_field();
        assert!(!hf.flags.flyover);
        assert_eq!(hf.cons_ingress, 1);
        assert_eq!(hf.mac, fly.agg_mac);
    }
}
