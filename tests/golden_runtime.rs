//! Bit-identity of the runtime's deterministic output.
//!
//! One mixed workload — the 45/45/10 flyover / plain / forged-MAC
//! recipe of `prop_sharded.rs::mixed_traffic_conserves_at_tx_defaults` —
//! runs through `run_to_completion` under every layout the runtime has:
//! `PerCoreClone` and `Sharded` × 1, 2 and 4 shards × `Sequential` and
//! `Threaded` × egress on and off, under `BackpressurePolicy::Block` so
//! nothing is shed. Every field of each report that does not depend on
//! the wall clock is folded into one SHA-256: packets, bits, rx drops,
//! per-shard tallies and engine verdict and demotion counters, and the
//! egress per-class packet and byte counts, verdict drops and tail drops.
//! `seconds` and residence times are left out.
//!
//! The constant was computed before the shard loop lost its ring hops; a
//! change to it means a verdict, a count or the per-shard split changed,
//! not speed.

use hummingbird::dataplane::runtime::{
    run_to_completion, ExecMode, RuntimeConfig, RuntimeMode, RuntimeReport,
};
use hummingbird::dataplane::{
    forge_path, BackpressureConfig, BackpressurePolicy, BeaconHop, DatapathBuilder, EgressConfig,
    EgressStats, SourceGenerator, SourceReservation,
};
use hummingbird::{IsdAs, ResInfo, SecretValue};
use hummingbird_crypto::sha256::Sha256;
use hummingbird_wire::scion_mac::HopMacKey;

const GOLDEN: &str = "7510ed0e39cfb844039cfc4c4772dcb949cbec0d641695a81e78c8173395b26c";

const NOW_S: u64 = 1_700_000_096;
const NOW_MS: u64 = NOW_S * 1000;
const NOW_NS: u64 = NOW_S * 1_000_000_000;

fn hop_key() -> HopMacKey {
    HopMacKey::new([0x10; 16])
}

fn sv() -> SecretValue {
    SecretValue::new([0x60; 16])
}

fn sender() -> SourceGenerator {
    let hops = vec![BeaconHop { key: hop_key(), cons_ingress: 0, cons_egress: 0 }];
    let path = forge_path(&hops, NOW_S as u32 - 100, 0x1234);
    SourceGenerator::new(IsdAs::new(1, 0x10), IsdAs::new(2, 0x20), path)
}

/// A twenty-template period: nine flyover and nine plain, interleaved,
/// then two forged-MAC flyover packets; five periods.
fn templates() -> Vec<Vec<u8>> {
    let mut plain = sender();
    let payload = [0u8; 1_000];
    (0..100u32)
        .map(|i| {
            let at = NOW_MS + u64::from(i);
            let reserved = || {
                let res_info = ResInfo {
                    ingress: 0,
                    egress: 0,
                    res_id: 1 + i * 997,
                    bw_encoded: 1000,
                    res_start: NOW_S as u32 - 50,
                    duration: 600,
                };
                let key = sv().derive_key(&res_info);
                let mut generator = sender();
                generator.attach_reservation(0, SourceReservation { res_info, key }).unwrap();
                generator.generate(&payload, at).unwrap()
            };
            match i % 20 {
                18 | 19 => {
                    let mut bytes = reserved();
                    bytes[56 + i as usize % 12] ^= 0x40;
                    bytes
                }
                r if r % 2 == 0 => reserved(),
                _ => plain.generate(&payload, at).unwrap(),
            }
        })
        .collect()
}

fn fold_report(h: &mut Sha256, r: &RuntimeReport) {
    let mut put = |v: u64| h.update(&v.to_be_bytes());
    put(r.packets);
    put(r.bits);
    put(r.rx_backpressure_drops);
    put(r.per_shard.len() as u64);
    for s in &r.per_shard {
        let st = s.stats;
        for v in [s.processed, s.forwarded, s.dropped, s.rx_backpressure_drops] {
            put(v);
        }
        for v in [
            st.processed,
            st.flyover,
            st.best_effort,
            st.dropped,
            st.demoted_overuse,
            st.demoted_untimely,
        ] {
            put(v);
        }
    }
    match r.egress {
        None => put(0),
        Some(EgressStats { priority: p, best_effort: b, dropped, tx_queue_full }) => {
            put(1);
            for v in [p.pkts, p.bytes, b.pkts, b.bytes, dropped, tx_queue_full] {
                put(v);
            }
        }
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn runtime_digest_is_unchanged() {
    let templates = templates();
    let total = 4_000u64;
    let mut h = Sha256::new();
    for mode in [RuntimeMode::PerCoreClone, RuntimeMode::Sharded] {
        for shards in [1usize, 2, 4] {
            for exec in [ExecMode::Sequential, ExecMode::Threaded] {
                for egress in [None, Some(EgressConfig::default())] {
                    let mut cfg = RuntimeConfig::new(shards);
                    cfg.exec = exec;
                    cfg.egress = egress;
                    cfg.backpressure = BackpressureConfig {
                        policy: BackpressurePolicy::Block,
                        ..cfg.backpressure
                    };
                    let make = |_| DatapathBuilder::new(sv(), hop_key()).build();
                    let r = run_to_completion(&cfg, mode, make, &templates, total, NOW_NS);
                    let label = format!("{mode:?}/{shards}/{exec:?}/egress {}", egress.is_some());
                    assert_eq!(r.packets, total, "{label}");
                    assert_eq!(r.rx_backpressure_drops, 0, "{label}: Block sheds nothing");
                    fold_report(&mut h, &r);
                }
            }
        }
    }
    assert_eq!(hex(&h.finalize()), GOLDEN, "the runtime's deterministic output changed");
}
