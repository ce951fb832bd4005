//! Multi-core throughput harness (paper §7.1-7.2, Figs. 5/14).
//!
//! The paper drives its DPDK implementation with a Spirent traffic
//! generator over 4×40 Gbps links. Here the [`crate::runtime`]
//! multi-queue runtime supplies the cores: [`forwarding_throughput`] is
//! the per-core-clone configuration of
//! [`crate::runtime::run_to_completion`] (each core feeds its own engine
//! its own share of the packets in bursts), and the sharded
//! configuration — one logical router with RSS steering and correct
//! cross-core policing — is reached through the same entry point with
//! [`crate::runtime::RuntimeMode::Sharded`].
//!
//! [`forwarding_throughput`] is generic over any [`Datapath`] engine.
//! Engines that drop traffic are measurable — drops are tallied in the
//! runtime report, not asserted away.

use crate::datapath::Datapath;
use crate::runtime::{run_to_completion, ExecMode, RuntimeConfig, RuntimeMode};
use crate::source::SourceGenerator;
use std::time::Instant;

/// The line rate of the paper's testbed: four 40 Gbps links.
pub const LINE_RATE_GBPS: f64 = 160.0;

/// Packets per [`Datapath::process_batch`] burst in the hot loop (a
/// DPDK-ish burst size).
pub const BATCH_SIZE: usize = 32;

/// A throughput measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Throughput {
    /// Packets processed (across all cores).
    pub packets: u64,
    /// Bits moved (wire size × packets).
    pub bits: u64,
    /// Wall-clock seconds (slowest core).
    pub seconds: f64,
}

impl Throughput {
    /// Aggregate throughput in Gbps (0 for an instantaneous or empty
    /// run — tiny smoke runs must not report `inf`/`NaN`).
    pub fn gbps(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.bits as f64 / self.seconds / 1e9
    }

    /// Aggregate throughput in Gbps, capped at the testbed line rate.
    pub fn gbps_line_capped(&self) -> f64 {
        self.gbps().min(LINE_RATE_GBPS)
    }

    /// Million packets per second (0 for an instantaneous or empty run).
    pub fn mpps(&self) -> f64 {
        if self.seconds <= 0.0 {
            return 0.0;
        }
        self.packets as f64 / self.seconds / 1e6
    }

    /// Average nanoseconds per packet per core (0 for an empty run).
    pub fn ns_per_pkt(&self, cores: usize) -> f64 {
        if self.packets == 0 {
            return 0.0;
        }
        self.seconds * 1e9 * cores as f64 / self.packets as f64
    }
}

/// Measures forwarding throughput of any [`Datapath`] engine: `cores`
/// worker shards each drive `pkts_per_core` copies of `packet` through
/// their own engine instance in [`BATCH_SIZE`]-packet bursts via the
/// batch path — the [`RuntimeMode::PerCoreClone`] configuration of the
/// multi-queue runtime. Engines that drop traffic are measured, not
/// rejected (drop counts live in the runtime report; use
/// [`run_to_completion`] directly to inspect them).
pub fn forwarding_throughput<D, F>(
    make_engine: F,
    packet: &[u8],
    cores: usize,
    pkts_per_core: u64,
    now_ns: u64,
) -> Throughput
where
    D: Datapath,
    F: Fn() -> D + Sync,
{
    let cores = cores.max(1);
    let mut cfg = RuntimeConfig::new(cores);
    cfg.batch_size = BATCH_SIZE.min(pkts_per_core.max(1) as usize);
    // Benchmark setting: real threads when the host has the cores,
    // dedicated-core critical-path estimate when it doesn't.
    cfg.exec = ExecMode::Auto;
    let templates = [packet.to_vec()];
    let report = run_to_completion(
        &cfg,
        RuntimeMode::PerCoreClone,
        |_| make_engine(),
        &templates,
        pkts_per_core * cores as u64,
        now_ns,
    );
    report.throughput()
}

/// Measures source traffic-generation throughput: `cores` threads each
/// generate `pkts_per_core` packets with their own generator.
pub fn generation_throughput<F>(
    make_generator: F,
    payload_len: usize,
    cores: usize,
    pkts_per_core: u64,
    start_ms: u64,
) -> Throughput
where
    F: Fn() -> SourceGenerator + Sync,
{
    let payload = vec![0u8; payload_len];
    let bits = std::sync::atomic::AtomicU64::new(0);
    let seconds = std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(cores);
        for _ in 0..cores {
            let make_generator = &make_generator;
            let payload = &payload;
            let bits = &bits;
            handles.push(s.spawn(move || {
                let mut generator = make_generator();
                let mut local_bits = 0u64;
                let start = Instant::now();
                for i in 0..pkts_per_core {
                    // Advance the millisecond clock slowly so the per-ms
                    // counter provides uniqueness.
                    let now_ms = start_ms + i / 1000;
                    let pkt = generator.generate(payload, now_ms).expect("generation failed");
                    local_bits += pkt.len() as u64 * 8;
                    std::hint::black_box(&pkt);
                }
                bits.fetch_add(local_bits, std::sync::atomic::Ordering::Relaxed);
                start.elapsed().as_secs_f64()
            }));
        }
        handles.into_iter().map(|h| h.join().expect("worker panicked")).fold(0.0f64, f64::max)
    });
    Throughput { packets: pkts_per_core * cores as u64, bits: bits.into_inner(), seconds }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_arithmetic() {
        let t = Throughput { packets: 1_000_000, bits: 12_000_000_000, seconds: 0.5 };
        assert!((t.gbps() - 24.0).abs() < 1e-9);
        assert!((t.mpps() - 2.0).abs() < 1e-9);
        assert!((t.ns_per_pkt(4) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn line_rate_cap() {
        let t = Throughput { packets: 1, bits: 400_000_000_000, seconds: 1.0 };
        assert!((t.gbps_line_capped() - LINE_RATE_GBPS).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_and_zero_packets_are_finite() {
        // Tiny smoke runs can complete inside the clock resolution; the
        // arithmetic must stay finite instead of reporting inf/NaN.
        let t = Throughput { packets: 10, bits: 8_000, seconds: 0.0 };
        assert_eq!(t.gbps(), 0.0);
        assert_eq!(t.gbps_line_capped(), 0.0);
        assert_eq!(t.mpps(), 0.0);
        let empty = Throughput { packets: 0, bits: 0, seconds: 1.0 };
        assert_eq!(empty.ns_per_pkt(4), 0.0);
        assert!(t.gbps().is_finite() && empty.mpps().is_finite());
    }

    #[test]
    fn drop_heavy_engines_are_measurable() {
        // Garbage traffic through a real router: every packet drops, and
        // the harness measures it instead of asserting.
        use crate::datapath::DatapathBuilder;
        use hummingbird_crypto::SecretValue;
        use hummingbird_wire::scion_mac::HopMacKey;
        let make =
            || DatapathBuilder::new(SecretValue::new([9; 16]), HopMacKey::new([4; 16])).build();
        let junk = vec![0u8; 128];
        let t = forwarding_throughput(make, &junk, 2, 500, 1);
        assert_eq!(t.packets, 1_000);
        assert!(t.gbps().is_finite());
    }
}
