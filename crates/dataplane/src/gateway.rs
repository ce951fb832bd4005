//! The optional Hummingbird gateway (paper §5.4, Appendix B.3).
//!
//! Gateways are *not required* in Hummingbird — that is one of the paper's
//! headline simplifications over Colibri/Helia — but they remain useful
//! for scalability: a single entity (e.g. a corporate LAN operator) buys
//! one inter-domain reservation and multiplexes many internal hosts onto
//! it, keeping the authentication keys away from the hosts. This module
//! implements that aggregation: per-host admission, local rate limiting so
//! the *aggregate* stays within the reservation, and packet stamping on
//! behalf of hosts.

use crate::datapath::{Datapath, DatapathStats, DropReason, Verdict};
use crate::policing::{transmission_time_ns, DEFAULT_BURST_TIME_NS};
use crate::source::{GenError, SourceGenerator};
use hummingbird_wire::common::{AddressHeader, CommonHeader, COMMON_HDR_LEN};
use std::collections::HashMap;

/// Identifier of an internal host behind the gateway.
pub type HostId = u32;

/// Admission decision for one host packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GatewayVerdict {
    /// Stamped with reservation MACs; carries the wire bytes.
    Reserved(Vec<u8>),
    /// Host unknown or over its share: sent best-effort (no flyovers).
    BestEffort(Vec<u8>),
    /// Generation failed (e.g. reservation outside its window).
    Failed(GenError),
}

/// Per-host share configuration.
#[derive(Clone, Copy, Debug)]
pub struct HostShare {
    /// The host's slice of the aggregate reservation, kbps.
    pub rate_kbps: u64,
}

/// A gateway multiplexing hosts onto one reserved path.
///
/// Internally the gateway runs the same token-bucket discipline as the
/// on-path policers (Algorithm 1), both per host and for the aggregate,
/// so conforming hosts are never demoted *by the network*: the gateway
/// demotes locally first, which is strictly better for the hosts (the
/// demoted packet still rides best effort end-to-end).
pub struct Gateway {
    reserved: SourceGenerator,
    best_effort: SourceGenerator,
    aggregate_rate_kbps: u64,
    burst_ns: u64,
    aggregate_deadline: u64,
    hosts: HashMap<HostId, HostState>,
    stats: DatapathStats,
}

struct HostState {
    share: HostShare,
    deadline: u64,
}

impl Gateway {
    /// Creates a gateway over a reserved generator (flyovers attached on
    /// the hops the operator bought) and a plain best-effort generator on
    /// the same path. `aggregate_rate_kbps` must not exceed the purchased
    /// reservation bandwidth.
    pub fn new(
        reserved: SourceGenerator,
        best_effort: SourceGenerator,
        aggregate_rate_kbps: u64,
    ) -> Self {
        Gateway {
            reserved,
            best_effort,
            aggregate_rate_kbps,
            burst_ns: DEFAULT_BURST_TIME_NS,
            aggregate_deadline: 0,
            hosts: HashMap::new(),
            stats: DatapathStats::default(),
        }
    }

    /// Registers (or updates) a host's share.
    pub fn admit_host(&mut self, host: HostId, share: HostShare) {
        self.hosts.insert(host, HostState { share, deadline: 0 });
    }

    /// Removes a host.
    pub fn evict_host(&mut self, host: HostId) {
        self.hosts.remove(&host);
    }

    /// Number of admitted hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// The admission decision shared by [`Gateway::send`] and the
    /// [`Datapath`] impl: both the host's share and the aggregate token
    /// bucket must admit `wire_len` bytes at `now_ns` (Algorithm 1 run
    /// twice, host first so an over-share host cannot drain the
    /// aggregate).
    pub fn admit(&mut self, host: HostId, wire_len: u16, now_ns: u64) -> bool {
        let eligible = match self.hosts.get_mut(&host) {
            None => false,
            Some(state) => {
                let ts = state.deadline.max(now_ns)
                    + transmission_time_ns(wire_len, state.share.rate_kbps);
                if ts <= now_ns + self.burst_ns {
                    state.deadline = ts;
                    true
                } else {
                    false
                }
            }
        };
        if !eligible {
            return false;
        }
        let ts = self.aggregate_deadline.max(now_ns)
            + transmission_time_ns(wire_len, self.aggregate_rate_kbps);
        if ts <= now_ns + self.burst_ns {
            self.aggregate_deadline = ts;
            true
        } else {
            false
        }
    }

    /// Processes one packet from `host` at `now_ns`, stamping it onto the
    /// reservation if both the host's share and the aggregate allow it.
    pub fn send(&mut self, host: HostId, payload: &[u8], now_ns: u64) -> GatewayVerdict {
        let now_ms = now_ns / 1_000_000;
        let wire_estimate = (payload.len() + 200).min(u16::MAX as usize) as u16;
        let aggregate_ok = self.admit(host, wire_estimate, now_ns);

        if aggregate_ok {
            match self.reserved.generate(payload, now_ms) {
                Ok(bytes) => GatewayVerdict::Reserved(bytes),
                Err(e) => GatewayVerdict::Failed(e),
            }
        } else {
            match self.best_effort.generate(payload, now_ms) {
                Ok(bytes) => GatewayVerdict::BestEffort(bytes),
                Err(e) => GatewayVerdict::Failed(e),
            }
        }
    }
}

/// The gateway as a [`Datapath`] engine: it processes *already serialized*
/// packets arriving from internal hosts on their way onto the reserved
/// uplink. The host is identified by the packet's source host address
/// (`AddressHeader::src_host`, big-endian `u32` = [`HostId`]); the verdict
/// classifies the packet onto the reservation ([`Verdict::Flyover`]) or
/// demotes it locally ([`Verdict::BestEffort`]) — in both cases through
/// egress interface 0, the gateway's single WAN uplink.
///
/// Unlike [`Gateway::send`] this path does not stamp flyover MACs (the
/// bytes pass through unmodified); it is the admission half of the
/// gateway, exposed uniformly so harnesses can sweep it alongside the
/// router engines.
impl Datapath for Gateway {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        let verdict = (|| {
            if CommonHeader::parse(pkt).is_err() {
                return Verdict::Drop(DropReason::Malformed);
            }
            let Ok(addr) = AddressHeader::parse(&pkt[COMMON_HDR_LEN..]) else {
                return Verdict::Drop(DropReason::Malformed);
            };
            let host = HostId::from_be_bytes(addr.src_host);
            let known = self.hosts.contains_key(&host);
            let wire_len = pkt.len().min(usize::from(u16::MAX)) as u16;
            if known && self.admit(host, wire_len, now_ns) {
                Verdict::Flyover { egress: 0 }
            } else {
                if known {
                    self.stats.demoted_overuse += 1;
                }
                Verdict::BestEffort { egress: 0 }
            }
        })();
        self.stats.record(verdict);
        verdict
    }

    fn engine_name(&self) -> &'static str {
        "gateway"
    }

    fn stats(&self) -> DatapathStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DatapathStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::beacon::{forge_path, BeaconHop};
    use crate::source::SourceReservation;
    use hummingbird_crypto::{ResInfo, SecretValue};
    use hummingbird_wire::scion_mac::HopMacKey;
    use hummingbird_wire::IsdAs;

    const NOW_MS: u64 = 1_700_000_100_000;
    const NOW_NS: u64 = NOW_MS * 1_000_000;

    fn make_gateway(aggregate_kbps: u64) -> Gateway {
        let hops =
            vec![BeaconHop { key: HopMacKey::new([1u8; 16]), cons_ingress: 0, cons_egress: 0 }];
        let path = forge_path(&hops, (NOW_MS / 1000) as u32 - 10, 1);
        let src = IsdAs::new(1, 1);
        let dst = IsdAs::new(2, 2);
        let mut reserved = SourceGenerator::new(src, dst, path.clone());
        let sv = SecretValue::new([9u8; 16]);
        let res_info = ResInfo {
            ingress: 0,
            egress: 0,
            res_id: 1,
            bw_encoded: 1000,
            res_start: (NOW_MS / 1000) as u32 - 5,
            duration: 600,
        };
        let key = sv.derive_key(&res_info);
        reserved.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
        let best_effort = SourceGenerator::new(src, dst, path);
        Gateway::new(reserved, best_effort, aggregate_kbps)
    }

    #[test]
    fn admitted_host_gets_reserved_packets() {
        let mut gw = make_gateway(10_000);
        gw.admit_host(1, HostShare { rate_kbps: 5_000 });
        match gw.send(1, &[0u8; 500], NOW_NS) {
            GatewayVerdict::Reserved(bytes) => {
                let pkt = hummingbird_wire::Packet::parse(&bytes).unwrap();
                assert!(pkt.path.hops[0].is_flyover());
            }
            other => panic!("expected reserved, got {other:?}"),
        }
    }

    #[test]
    fn unknown_host_is_best_effort() {
        let mut gw = make_gateway(10_000);
        match gw.send(99, &[0u8; 100], NOW_NS) {
            GatewayVerdict::BestEffort(bytes) => {
                let pkt = hummingbird_wire::Packet::parse(&bytes).unwrap();
                assert!(!pkt.path.hops[0].is_flyover());
            }
            other => panic!("expected best effort, got {other:?}"),
        }
    }

    #[test]
    fn host_share_is_enforced() {
        let mut gw = make_gateway(100_000);
        gw.admit_host(1, HostShare { rate_kbps: 240 }); // ~1 pkt per burst
        let mut reserved = 0;
        let mut demoted = 0;
        for _ in 0..10 {
            match gw.send(1, &[0u8; 1300], NOW_NS) {
                GatewayVerdict::Reserved(_) => reserved += 1,
                GatewayVerdict::BestEffort(_) => demoted += 1,
                GatewayVerdict::Failed(e) => panic!("{e}"),
            }
        }
        assert!(reserved >= 1);
        assert!(demoted >= 5, "over-share traffic demoted locally");
    }

    #[test]
    fn aggregate_cap_protects_the_reservation() {
        // Two hosts, each within its share, but shares oversubscribe the
        // aggregate: the gateway must hold the aggregate line.
        let mut gw = make_gateway(1_000);
        gw.admit_host(1, HostShare { rate_kbps: 1_000 });
        gw.admit_host(2, HostShare { rate_kbps: 1_000 });
        let mut reserved_bits = 0u64;
        for i in 0..40 {
            let host = 1 + (i % 2);
            if let GatewayVerdict::Reserved(b) = gw.send(host, &[0u8; 1000], NOW_NS) {
                reserved_bits += b.len() as u64 * 8;
            }
        }
        // At most BurstTime worth of aggregate-rate traffic instantly.
        assert!(reserved_bits <= 1_000 * 50 + 10_000, "aggregate exceeded: {reserved_bits}");
    }

    #[test]
    fn eviction_takes_effect() {
        let mut gw = make_gateway(10_000);
        gw.admit_host(1, HostShare { rate_kbps: 5_000 });
        assert!(matches!(gw.send(1, &[0u8; 100], NOW_NS), GatewayVerdict::Reserved(_)));
        gw.evict_host(1);
        assert!(matches!(gw.send(1, &[0u8; 100], NOW_NS), GatewayVerdict::BestEffort(_)));
        assert_eq!(gw.host_count(), 0);
    }

    #[test]
    fn budget_refills_over_time() {
        let mut gw = make_gateway(1_000);
        gw.admit_host(1, HostShare { rate_kbps: 1_000 });
        // Exhaust.
        while matches!(gw.send(1, &[0u8; 1000], NOW_NS), GatewayVerdict::Reserved(_)) {}
        // One second later the bucket has drained.
        assert!(matches!(
            gw.send(1, &[0u8; 1000], NOW_NS + 2_000_000_000),
            GatewayVerdict::Reserved(_)
        ));
    }
}
