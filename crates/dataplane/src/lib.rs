//! # hummingbird-dataplane
//!
//! The Hummingbird data plane (paper §4.3-§4.4, §7, Appendix A.7):
//!
//! * [`router`] — the border-router pipeline of Fig. 13 / Algorithms 2-4:
//!   flyover MAC re-derivation, hop-field MAC verification with SegID
//!   chaining, freshness and reservation-activity checks, in-place header
//!   mutation, all allocation-free on the hot path; one batched pipeline
//!   for every engine family ([`Family`]).
//! * [`policing`] — deterministic token-bucket policing (Algorithm 1): one
//!   8-byte deadline per ResID, a global `BurstTime`, overuse demoted to
//!   best effort (never dropped).
//! * `source` — the traffic generator: stamps per-packet timestamps and
//!   computes flyover MACs for every reserved hop.
//! * [`beacon`] — forges valid SCION paths (the beaconing substitute).
//! * `dup` — optional duplicate suppression (§5.4).
//! * [`runtime`] — the sharded multi-queue runtime and the one way to
//!   run engines on cores ([`run_to_completion`]): an RSS-style flow
//!   hash splits the workload into per-shard rx queues so each
//!   reservation lands on the one shard that polices it, each shard
//!   feeds its bursts straight to its engine and its own tx scheduler,
//!   and the [`ShardedRouter`] facade exposes the whole thing as a
//!   single [`Datapath`] engine.
//! * `datapath` — the unified batch-oriented [`Datapath`] trait that
//!   every packet-processing engine (router, gateway, baselines)
//!   implements, plus the shared [`Verdict`]/[`DropReason`]/
//!   [`DatapathStats`] vocabulary and the [`NullEngine`] calibration
//!   engine.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]
// Packet bytes decide what this crate sees: no panicking shortcuts.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod beacon;
mod datapath;
mod dup;
mod gateway;
pub mod policing;
pub mod router;
pub mod runtime;
mod source;

pub use beacon::{forge_path, BeaconHop};
pub use datapath::{Datapath, DatapathStats, DropReason, NullEngine, PacketBuf, Verdict};
pub use gateway::{Gateway, GatewayVerdict, HostShare};
pub use policing::{FwdClass, Policer};
pub use router::{BorderRouter, Class, Family, Hummingbird, RouterConfig};
pub use runtime::{
    run_to_completion, BackpressureConfig, BackpressurePolicy, EgressConfig, EgressStats, ExecMode,
    LatencyHistogram, RuntimeConfig, RuntimeMode, RuntimeReport, RxMode, ShardMap, ShardReport,
    ShardedRouter, Steering, BATCH_SIZE,
};
pub use source::{GenError, SourceGenerator, SourceReservation};

#[cfg(test)]
mod tests {
    //! Integration tests: source-generated packets through a chain of
    //! border routers.

    use super::*;
    use hummingbird_crypto::{ResInfo, SecretValue};
    use hummingbird_wire::scion_mac::HopMacKey;
    use hummingbird_wire::IsdAs;

    const NOW_MS: u64 = 1_700_000_100_000;
    const NOW_NS: u64 = NOW_MS * 1_000_000;

    struct TestNet {
        generator: SourceGenerator,
        routers: Vec<BorderRouter>,
        svs: Vec<SecretValue>,
        path: hummingbird_wire::HummingbirdPath,
    }

    fn build_net(n: usize, cfg: RouterConfig) -> TestNet {
        let hop_keys: Vec<HopMacKey> =
            (0..n).map(|i| HopMacKey::new([0x10 + i as u8; 16])).collect();
        let svs: Vec<SecretValue> =
            (0..n).map(|i| SecretValue::new([0x60 + i as u8; 16])).collect();
        let hops: Vec<BeaconHop> = (0..n)
            .map(|i| BeaconHop {
                key: hop_keys[i].clone(),
                cons_ingress: if i == 0 { 0 } else { 2 * i as u16 },
                cons_egress: if i == n - 1 { 0 } else { 2 * i as u16 + 1 },
            })
            .collect();
        let path = forge_path(&hops, (NOW_MS / 1000) as u32 - 100, 0x1234);
        let generator =
            SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path.clone());
        let routers: Vec<BorderRouter> =
            (0..n).map(|i| BorderRouter::new(svs[i].clone(), hop_keys[i].clone(), cfg)).collect();
        TestNet { generator, routers, svs, path }
    }

    fn interfaces(n: usize, i: usize) -> (u16, u16) {
        if n == 1 {
            (0, 0)
        } else if i == 0 {
            (0, 1)
        } else if i == n - 1 {
            (2 * i as u16, 0)
        } else {
            (2 * i as u16, 2 * i as u16 + 1)
        }
    }

    fn attach_all_reservations(net: &mut TestNet, n: usize, bw_encoded: u16) {
        for i in 0..n {
            let (ingress, egress) = interfaces(n, i);
            let res_info = ResInfo {
                ingress,
                egress,
                res_id: 40 + i as u32,
                bw_encoded,
                res_start: (NOW_MS / 1000) as u32 - 50,
                duration: 600,
            };
            let key = net.svs[i].derive_key(&res_info);
            net.generator.attach_reservation(i, SourceReservation { res_info, key }).unwrap();
        }
    }

    #[test]
    fn full_path_forwards_with_priority() {
        let n = 5;
        let mut net = build_net(n, RouterConfig::default());
        attach_all_reservations(&mut net, n, 300);
        let mut pkt = net.generator.generate(&[7u8; 500], NOW_MS).unwrap();
        for (i, router) in net.routers.iter_mut().enumerate() {
            let verdict = router.process(&mut pkt, NOW_NS);
            assert!(verdict.is_flyover(), "hop {i}: {verdict:?}");
        }
    }

    #[test]
    fn partial_reservations_mix_classes() {
        let n = 4;
        let mut net = build_net(n, RouterConfig::default());
        // Reserve only hop 1 (partial path protection, §3.3 ❸).
        let res_info = ResInfo {
            ingress: 2,
            egress: 3,
            res_id: 9,
            bw_encoded: 300,
            res_start: (NOW_MS / 1000) as u32 - 50,
            duration: 600,
        };
        let key = net.svs[1].derive_key(&res_info);
        net.generator.attach_reservation(1, SourceReservation { res_info, key }).unwrap();
        let mut pkt = net.generator.generate(&[1u8; 200], NOW_MS).unwrap();
        let verdicts: Vec<Verdict> =
            net.routers.iter_mut().map(|r| r.process(&mut pkt, NOW_NS)).collect();
        assert!(matches!(verdicts[0], Verdict::BestEffort { .. }));
        assert!(verdicts[1].is_flyover());
        assert!(matches!(verdicts[2], Verdict::BestEffort { .. }));
        assert!(matches!(verdicts[3], Verdict::BestEffort { .. }));
    }

    #[test]
    fn plain_scion_packets_are_best_effort() {
        let n = 3;
        let mut net = build_net(n, RouterConfig::default());
        let mut pkt = net.generator.generate(&[0u8; 100], NOW_MS).unwrap();
        for router in net.routers.iter_mut() {
            let verdict = router.process(&mut pkt, NOW_NS);
            assert!(matches!(verdict, Verdict::BestEffort { .. }), "{verdict:?}");
        }
    }

    #[test]
    fn forged_flyover_mac_is_dropped() {
        let n = 2;
        let mut net = build_net(n, RouterConfig::default());
        // Attacker uses a wrong key for hop 0 (spoofed reservation, D1).
        let res_info = ResInfo {
            ingress: 0,
            egress: 1,
            res_id: 3,
            bw_encoded: 300,
            res_start: (NOW_MS / 1000) as u32 - 50,
            duration: 600,
        };
        let wrong_sv = SecretValue::new([0xAA; 16]);
        let key = wrong_sv.derive_key(&res_info);
        net.generator.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
        let mut pkt = net.generator.generate(&[0u8; 64], NOW_MS).unwrap();
        let verdict = net.routers[0].process(&mut pkt, NOW_NS);
        assert_eq!(verdict, Verdict::Drop(DropReason::BadMac));
    }

    #[test]
    fn tampered_packet_length_is_dropped() {
        let n = 2;
        let mut net = build_net(n, RouterConfig::default());
        attach_all_reservations(&mut net, n, 300);
        let mut pkt = net.generator.generate(&[0u8; 100], NOW_MS).unwrap();
        // Attacker inflates PayloadLen to smuggle more bytes past
        // policing: the MAC covers PktLen, so verification must fail.
        let forged_payload_len = 200u16.to_be_bytes();
        pkt[6..8].copy_from_slice(&forged_payload_len);
        pkt.extend_from_slice(&[0u8; 100]);
        let verdict = net.routers[0].process(&mut pkt, NOW_NS);
        assert_eq!(verdict, Verdict::Drop(DropReason::BadMac));
    }

    #[test]
    fn stale_packets_fall_back_to_best_effort() {
        let n = 1;
        let mut net = build_net(n, RouterConfig::default());
        attach_all_reservations(&mut net, n, 300);
        let mut pkt = net.generator.generate(&[0u8; 64], NOW_MS).unwrap();
        // Process 10 s later: outside [−δ, Δ+δ] — demoted, not dropped.
        let verdict = net.routers[0].process(&mut pkt, NOW_NS + 10_000_000_000);
        assert!(matches!(verdict, Verdict::BestEffort { .. }), "{verdict:?}");
        assert_eq!(net.routers[0].stats().demoted_untimely, 1);
    }

    #[test]
    fn reservation_window_enforced() {
        let n = 1;
        let mut net = build_net(n, RouterConfig::default());
        attach_all_reservations(&mut net, n, 300);
        let mut pkt = net.generator.generate(&[0u8; 64], NOW_MS).unwrap();
        // Router clock 200 s earlier: reservation not active yet and the
        // packet timestamp is in the future beyond skew — demoted.
        let verdict = net.routers[0].process(&mut pkt, NOW_NS - 200_000_000_000);
        assert!(matches!(verdict, Verdict::BestEffort { .. }));
    }

    #[test]
    fn overuse_is_policed_per_reservation() {
        let n = 1;
        let mut net = build_net(n, RouterConfig::default());
        // 240 kbps reservation (class 124): §4.4 notes this is exactly the
        // rate where one 1500 B packet fills the 50 ms burst budget.
        attach_all_reservations(&mut net, n, 124);
        let mut flyover = 0;
        let mut best_effort = 0;
        for _ in 0..50 {
            let mut pkt = net.generator.generate(&[0u8; 1400], NOW_MS).unwrap();
            match net.routers[0].process(&mut pkt, NOW_NS) {
                v if v.is_flyover() => flyover += 1,
                Verdict::BestEffort { .. } => best_effort += 1,
                v => panic!("unexpected {v:?}"),
            }
        }
        assert!(flyover >= 1, "burst budget admits at least one packet");
        assert!(best_effort > 40, "sustained overuse must be demoted");
        assert_eq!(net.routers[0].stats().demoted_overuse as usize, best_effort);
    }

    #[test]
    fn duplicate_suppression_catches_replays() {
        let n = 1;
        let cfg = RouterConfig { duplicate_suppression: true, ..Default::default() };
        let mut net = build_net(n, cfg);
        attach_all_reservations(&mut net, n, 300);
        let pkt = net.generator.generate(&[0u8; 128], NOW_MS).unwrap();
        let mut first = pkt.clone();
        let mut replay = pkt;
        assert!(net.routers[0].process(&mut first, NOW_NS).is_flyover());
        let verdict = net.routers[0].process(&mut replay, NOW_NS + 1000);
        assert_eq!(verdict, Verdict::Drop(DropReason::Duplicate));
    }

    /// §5.4's packet identity holds the whole source ISD-AS: the first
    /// packets of two sources in one millisecond share (BaseTS, MillisTS,
    /// Counter), and both pass whether the sources differ in their ISD
    /// (1-0x10 and 2-0x10) or, as a control, in their AS number (1-0x10
    /// and 1-0x11).
    #[test]
    fn duplicate_filter_tells_sources_apart_by_isd_and_as() {
        for other in [IsdAs::new(2, 0x10), IsdAs::new(1, 0x11)] {
            let cfg = RouterConfig { duplicate_suppression: true, ..Default::default() };
            let mut net = build_net(1, cfg);
            let mut second = SourceGenerator::new(other, IsdAs::new(2, 0x20), net.path.clone());
            let mut first = net.generator.generate(&[0u8; 128], NOW_MS).unwrap();
            let mut next = second.generate(&[0u8; 128], NOW_MS).unwrap();
            let router = &mut net.routers[0];
            assert!(matches!(router.process(&mut first, NOW_NS), Verdict::BestEffort { .. }));
            let verdict = router.process(&mut next, NOW_NS + 1000);
            assert!(matches!(verdict, Verdict::BestEffort { .. }), "source {other:?}: {verdict:?}");
        }
    }

    #[test]
    fn without_dup_suppression_replays_consume_the_reservation() {
        // The on-reservation-set attack of §5.4: replayed tags pass
        // authentication and eat the victim's bandwidth budget.
        let n = 1;
        let mut net = build_net(n, RouterConfig::default());
        attach_all_reservations(&mut net, n, 124); // small (240 kbps) reservation
        let pkt = net.generator.generate(&[0u8; 1400], NOW_MS).unwrap();
        let mut replays_passed = 0;
        for _ in 0..10 {
            let mut copy = pkt.clone();
            if net.routers[0].process(&mut copy, NOW_NS).is_flyover() {
                replays_passed += 1;
            }
        }
        assert!(replays_passed >= 1, "replays authenticate without dup suppression");
        // Victim's next packet is demoted: budget consumed by attacker.
        let mut victim = net.generator.generate(&[0u8; 1400], NOW_MS).unwrap();
        assert!(!net.routers[0].process(&mut victim, NOW_NS).is_flyover());
    }

    #[test]
    fn seg_id_chain_breaks_if_hop_skipped() {
        let n = 3;
        let mut net = build_net(n, RouterConfig::default());
        let mut pkt = net.generator.generate(&[0u8; 64], NOW_MS).unwrap();
        // Skip router 0 and go straight to router 1: the packet's CurrHF
        // still points at hop 0, whose MAC router 1 cannot validate.
        let verdict = net.routers[1].process(&mut pkt, NOW_NS);
        assert_eq!(verdict, Verdict::Drop(DropReason::BadMac));
    }

    #[test]
    fn path_consumed_detected() {
        let n = 1;
        let mut net = build_net(n, RouterConfig::default());
        let mut pkt = net.generator.generate(&[0u8; 64], NOW_MS).unwrap();
        assert!(net.routers[0].process(&mut pkt, NOW_NS).egress().is_some());
        let verdict = net.routers[0].process(&mut pkt, NOW_NS);
        assert_eq!(verdict, Verdict::Drop(DropReason::PathConsumed));
    }

    #[test]
    fn agg_mac_replaced_for_path_reversal() {
        let n = 2;
        let mut net = build_net(n, RouterConfig::default());
        attach_all_reservations(&mut net, n, 300);
        let mut pkt = net.generator.generate(&[0u8; 64], NOW_MS).unwrap();
        assert!(net.routers[0].process(&mut pkt, NOW_NS).is_flyover());
        // After processing, the first hop's MAC field holds the *plain*
        // hop-field MAC (App. A.7), so the reversed path verifies as
        // standard SCION.
        let parsed = hummingbird_wire::Packet::parse(&pkt).unwrap();
        let hummingbird_wire::PathField::Flyover(fly) = parsed.path.hops[0] else {
            panic!("flyover expected")
        };
        let expected = HopMacKey::new([0x10; 16]).hop_mac(&hummingbird_wire::HopMacInput {
            seg_id: 0x1234,
            timestamp: (NOW_MS / 1000) as u32 - 100,
            exp_time: fly.exp_time,
            cons_ingress: fly.cons_ingress,
            cons_egress: fly.cons_egress,
        });
        assert_eq!(fly.agg_mac, expected);
    }
}
