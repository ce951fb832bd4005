//! Packet conservation under backpressure, as properties.
//!
//! The tx path's contract is that overload is *accounted*, never
//! silent: whatever the queue bound, watermark, policy, shard count or
//! offered load, every offered packet lands in exactly one bucket —
//!
//! * refused at rx while the tx queue was over the watermark
//!   (`rx_backpressure_drops`, [`BackpressurePolicy::Drop`] only),
//! * dropped by the engine (`EgressStats::dropped`),
//! * tail-dropped at a full bounded tx queue
//!   (`EgressStats::tx_queue_full`), or
//! * serialized onto the wire (`EgressStats::forwarded()`).
//!
//! So `offered = processed + rx_backpressure_drops` and
//! `processed = forwarded + dropped + tx_queue_full`, exactly, in every
//! schedule. [`BackpressurePolicy::Block`] additionally promises
//! losslessness at rx: producers stall instead, so
//! `rx_backpressure_drops = 0` and — with the watermark under the queue
//! bound — the stall engages before tail drop can.

use hummingbird_crypto::{ResInfo, SecretValue};
use hummingbird_dataplane::{
    forge_path, run_to_completion, BackpressureConfig, BackpressurePolicy, BeaconHop, BorderRouter,
    EgressConfig, ExecMode, RouterConfig, RuntimeConfig, RuntimeMode, SourceGenerator,
    SourceReservation,
};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use proptest::prelude::*;

const EPOCH_S: u64 = 1_700_000_000;
const EPOCH_MS: u64 = EPOCH_S * 1000;
const EPOCH_NS: u64 = EPOCH_S * 1_000_000_000;

fn hop_key() -> HopMacKey {
    HopMacKey::new([0x31; 16])
}

fn sv() -> SecretValue {
    SecretValue::new([0x61; 16])
}

/// A 1-hop wire packet; `res_id` of `Some` attaches a reservation (the
/// priority class), `None` sends best effort. Distinct `res_id`s /
/// sources give the steering layer flows to spread.
fn packet(res_id: Option<u32>, src_low: u64, payload: usize) -> Vec<u8> {
    let hops = vec![BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 0 }];
    let path = forge_path(&hops, EPOCH_S as u32 - 10, 3);
    let mut generator = SourceGenerator::new(IsdAs::new(1, src_low), IsdAs::new(2, 0xb), path);
    if let Some(res_id) = res_id {
        let res_info = ResInfo {
            ingress: 0,
            egress: 0,
            res_id,
            bw_encoded: 500,
            res_start: EPOCH_S as u32 - 3600,
            duration: 7200,
        };
        let key = sv().derive_key(&res_info);
        generator.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
    }
    generator.generate(&vec![0u8; payload], EPOCH_MS).expect("generation")
}

/// A mixed workload: two reserved flows, two best-effort flows.
fn templates() -> Vec<Vec<u8>> {
    vec![
        packet(Some(7), 0xa, 700),
        packet(Some(8), 0xa1, 700),
        packet(None, 0xa2, 700),
        packet(None, 0xa3, 700),
    ]
}

fn engine(_: usize) -> BorderRouter {
    BorderRouter::new(sv(), hop_key(), RouterConfig::default())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Drop policy, with a wire slow enough and a queue small enough
    /// that both the watermark and the tail-drop bound actually trip:
    /// conservation is exact at both stages, for any shard count,
    /// execution shape, queue bound and offered load.
    #[test]
    fn conservation_under_drop_policy(
        shards in 1usize..5,
        tx_queue_pkts in 2usize..24,
        pkts in 200u64..1200,
        exec in prop_oneof![Just(ExecMode::Threaded), Just(ExecMode::Sequential)],
        mbps in 20u64..200,
    ) {
        let mut cfg = RuntimeConfig::new(shards);
        cfg.egress = Some(EgressConfig { bandwidth_bps: mbps * 1_000_000 });
        cfg.backpressure = BackpressureConfig {
            tx_queue_pkts,
            high_watermark: (tx_queue_pkts * 3 / 4).max(1),
            policy: BackpressurePolicy::Drop,
        };
        cfg.exec = exec;
        let report = run_to_completion(
            &cfg, RuntimeMode::Sharded, engine, &templates(), pkts, EPOCH_NS,
        );

        // Stage 1: everything offered was processed or refused at rx.
        prop_assert_eq!(
            report.packets + report.rx_backpressure_drops, pkts,
            "offered packets must be processed or refused at rx"
        );
        // Stage 2: everything processed hit the wire or a named drop.
        let e = report.egress.expect("tx path enabled");
        prop_assert_eq!(
            e.forwarded() + e.dropped + e.tx_queue_full, report.packets,
            "processed packets must be forwarded or attributed"
        );
        // Per-shard verdict accounting is closed too.
        for (i, s) in report.per_shard.iter().enumerate() {
            prop_assert_eq!(
                s.forwarded + s.dropped, s.processed,
                "shard {} verdicts must cover processed", i
            );
        }
    }

    /// Block policy: producers stall instead of shedding, so rx loses
    /// nothing, and with the watermark under the queue bound the stall
    /// engages before tail drop — every offered packet is processed and
    /// attributed, at any shard count and queue bound.
    #[test]
    fn conservation_under_block_policy(
        shards in 1usize..5,
        tx_queue_pkts in 64usize..256,
        pkts in 200u64..1000,
    ) {
        let mut cfg = RuntimeConfig::new(shards);
        // A fast wire bounds the wall-clock cost of blocking; the small
        // watermark still forces stalls to happen.
        cfg.egress = Some(EgressConfig { bandwidth_bps: 2_000_000_000 });
        cfg.backpressure = BackpressureConfig {
            tx_queue_pkts,
            high_watermark: tx_queue_pkts / 2,
            policy: BackpressurePolicy::Block,
        };
        let report = run_to_completion(
            &cfg, RuntimeMode::Sharded, engine, &templates(), pkts, EPOCH_NS,
        );

        prop_assert_eq!(report.rx_backpressure_drops, 0, "Block never sheds at rx");
        prop_assert_eq!(report.packets, pkts, "every offered packet is processed");
        let e = report.egress.expect("tx path enabled");
        prop_assert_eq!(
            e.forwarded() + e.dropped + e.tx_queue_full, report.packets,
            "processed packets must be forwarded or attributed"
        );
        prop_assert_eq!(
            e.tx_queue_full, 0,
            "the watermark stall must engage before tail drop"
        );
    }
}
