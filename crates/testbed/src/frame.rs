//! Datagram and payload framing of the real-socket testbed.
//!
//! Every UDP segment on a testbed link is one frame: a single kind byte
//! followed, for data frames, by one serialized Hummingbird packet
//! exactly as [`hummingbird_wire`] emits it. A datagram is one segment,
//! or a run of equal-length segments sent with `UDP_SEGMENT` and read
//! back whole with `UDP_GRO` — and the kernel splits a run into one
//! datagram per segment for a receiver without `UDP_GRO`, so there
//! every datagram is still one frame. There is no length field — UDP
//! preserves datagram and segment boundaries, and the packet's own
//! headers declare its length ([`PacketView::wire_len`]), so a receiver
//! can (and does) detect truncation by comparing the two.
//!
//! The first [`PAYLOAD_HDR_LEN`] bytes of every packet's L4 payload
//! carry the measurement header the sink and routers read:
//! `[flow_id: u32][seq: u64][stamp_ns: u64]`, all little-endian. The
//! flow id attributes every packet (and every engine drop) to its flow
//! and therefore its traffic class; the per-flow sequence number makes
//! loss and duplication countable; the stamp — nanoseconds since the
//! run's shared clock epoch — is what the sink turns into end-to-end
//! latency. Engines never touch the payload, so the header survives the
//! whole chain byte-identically.
//!
//! [`PacketView::wire_len`]: hummingbird_wire::PacketView::wire_len

/// Kind byte of a data frame (one serialized packet follows).
pub const KIND_DATA: u8 = 0xD7;
/// Kind byte of the end-of-run marker: sent once, after every data
/// frame on the link has been acknowledged, and forwarded hop by hop so
/// every node drains in order before reporting.
pub const KIND_FIN: u8 = 0xF1;

/// Bytes of the measurement header at the front of every L4 payload.
pub const PAYLOAD_HDR_LEN: usize = 4 + 8 + 8;

/// The measurement header carried at the front of every payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PayloadHeader {
    /// Flow the packet belongs to (index into the run's flow table).
    pub flow_id: u32,
    /// Per-flow sequence number, starting at 0.
    pub seq: u64,
    /// Send stamp: nanoseconds since the run's shared clock epoch.
    pub stamp_ns: u64,
}

impl PayloadHeader {
    /// Writes the header into the first [`PAYLOAD_HDR_LEN`] bytes of
    /// `payload`.
    ///
    /// # Panics
    /// When `payload` is shorter than [`PAYLOAD_HDR_LEN`].
    pub fn write(&self, payload: &mut [u8]) {
        payload[0..4].copy_from_slice(&self.flow_id.to_le_bytes());
        payload[4..12].copy_from_slice(&self.seq.to_le_bytes());
        payload[12..20].copy_from_slice(&self.stamp_ns.to_le_bytes());
    }

    /// Reads the header back from a payload; `None` when the payload is
    /// too short to carry one.
    pub fn read(payload: &[u8]) -> Option<PayloadHeader> {
        if payload.len() < PAYLOAD_HDR_LEN {
            return None;
        }
        Some(PayloadHeader {
            flow_id: u32::from_le_bytes(payload[0..4].try_into().ok()?),
            seq: u64::from_le_bytes(payload[4..12].try_into().ok()?),
            stamp_ns: u64::from_le_bytes(payload[12..20].try_into().ok()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_header_roundtrips() {
        let hdr = PayloadHeader { flow_id: 7, seq: 123_456, stamp_ns: u64::MAX - 1 };
        let mut buf = [0u8; PAYLOAD_HDR_LEN + 3];
        hdr.write(&mut buf);
        assert_eq!(PayloadHeader::read(&buf), Some(hdr));
        // Too short to carry a header: None, never a panic.
        assert_eq!(PayloadHeader::read(&buf[..PAYLOAD_HDR_LEN - 1]), None);
        assert_eq!(PayloadHeader::read(&[]), None);
    }
}
