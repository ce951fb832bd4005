//! The metric and workload names this benchmark prints — the same
//! lists `BENCHMARK.json` declares (`tests/smoke.rs` checks they agree).

use std::collections::BTreeMap;

/// Workload names, in run order. Later issues cite them.
pub const WORKLOADS: [&str; 7] = [
    "router_flyover_min",
    "router_sharded_mix",
    "chain_saturate",
    "chain_paced",
    "control_lifecycle",
    "control_steady",
    "netsim_churn",
];

/// End-to-end metrics `(name, unit)`: every workload reports every one.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_us", "us")];

/// Per-layer metrics `(name, unit)`, reported by the traced run. A
/// workload that never enters a layer reports 0 for that layer's
/// metrics.
pub const PER_LAYER: [(&str, &str); 95] = [
    // crypto
    ("crypto.derive_key_ns", "ns"),
    ("crypto.flyover_mac_ns", "ns"),
    ("crypto.derive_keys_batch_ns_per_key", "ns"),
    ("crypto.flyover_tags_batch_ns_per_tag", "ns"),
    ("crypto.key_cache_hit_share", "ratio"),
    ("crypto.sig_sign_ns", "ns"),
    ("crypto.sig_verify_ns", "ns"),
    ("crypto.sealed_open_ns", "ns"),
    // wire
    ("wire.new_checked_ns", "ns"),
    // dataplane::source
    ("source.generate_ns", "ns"),
    ("source.share_of_gateway_time", "ratio"),
    // dataplane::router / policing
    ("router.parse_ns", "ns"),
    ("router.flyover_inputs_ns", "ns"),
    ("router.freshness_ns", "ns"),
    ("router.verify_hop_mac_ns", "ns"),
    ("router.advance_ns", "ns"),
    ("policing.check_ns", "ns"),
    ("router.process_ns", "ns"),
    ("router.process_batch_ns_per_pkt", "ns"),
    ("router.residual_ns", "ns"),
    ("router.drop_share", "ratio"),
    ("router.demoted_share", "ratio"),
    // dataplane::runtime
    ("ring.push_pop_burst_ns", "ns"),
    ("shard.shard_of_ns", "ns"),
    ("egress.stage_ns", "ns"),
    ("egress.transmit_ns_per_pkt", "ns"),
    ("runtime.null_floor_ns", "ns"),
    ("runtime.clone_ns_per_pkt", "ns"),
    ("runtime.sharded_ns_per_pkt", "ns"),
    ("runtime.tax_ns", "ns"),
    ("runtime.shard_skew", "ratio"),
    ("runtime.rx_backpressure_drops", "count"),
    ("egress.tx_queue_full", "count"),
    ("egress.residence_p99_ns", "ns"),
    // baselines
    ("baselines.helia_ns_per_pkt", "ns"),
    ("baselines.drkey_ns_per_pkt", "ns"),
    ("baselines.epic_ns_per_pkt", "ns"),
    // testbed
    ("testbed.chain_ns_per_pkt", "ns"),
    ("testbed.udp_hop_floor_ns", "ns"),
    ("testbed.user_ns_per_pkt", "ns"),
    ("testbed.sys_ns_per_pkt", "ns"),
    ("testbed.gateway_send_wait_share", "ratio"),
    ("testbed.sink_recv_wait_share", "ratio"),
    ("testbed.residual_ns", "ns"),
    ("testbed.engine_drops", "count"),
    ("testbed.parse_drops", "count"),
    ("testbed.generator_late_p99_us", "us"),
    ("testbed.latency_p99_us", "us"),
    ("testbed.latency_p999_us", "us"),
    // ledger
    ("ledger.txs_per_admit", "count"),
    ("ledger.txs_per_admit_single", "count"),
    ("ledger.txs_per_renew", "count"),
    ("ledger.txs_per_auction", "count"),
    ("ledger.execute_ns_per_tx", "ns"),
    ("ledger.gas_per_admit", "MIST"),
    ("ledger.gas_per_renew", "MIST"),
    ("ledger.gas_per_auction", "MIST"),
    ("ledger.objects", "count"),
    ("ledger.bytes_per_reservation", "B"),
    // control
    ("control.admit_wave_ops_per_s", "1/s"),
    ("control.admit_single_ops_per_s", "1/s"),
    ("control.renew_ops_per_s", "1/s"),
    ("control.clear_auctions_per_s", "1/s"),
    ("control.issue_asset_ns", "ns"),
    ("control.create_listing_ns", "ns"),
    ("control.buy_and_redeem_ns", "ns"),
    ("control.process_requests_ns_per_op", "ns"),
    ("control.collect_deliveries_ns_per_op", "ns"),
    ("control.sweep_ns_per_op", "ns"),
    ("control.request_renewals_ns_per_op", "ns"),
    ("control.process_renewals_ns_per_op", "ns"),
    ("control.create_auction_ns", "ns"),
    ("control.commit_bid_ns", "ns"),
    ("control.reveal_bid_ns", "ns"),
    ("control.clear_epoch_ns_per_auction", "ns"),
    ("control.shard_skew", "ratio"),
    // coloring
    ("coloring.assign_ns", "ns"),
    // netsim
    ("netsim.events", "count"),
    ("netsim.ns_per_event", "ns"),
    ("netsim.reserved_delivery", "ratio"),
    ("netsim.recovery_ms", "ms"),
    ("netsim.rerouted", "count"),
    // the workload's tail and its process
    ("latency.p90_us", "us"),
    ("host.peak_rss_mb", "MiB"),
    ("host.cpu_per_wall", "ratio"),
    // the benchmark's own accounting
    ("account.engine_stage_sum_ns", "ns"),
    ("account.engine_ns_per_pkt", "ns"),
    ("account.engine_residual_share", "ratio"),
    ("account.runtime_residual_share", "ratio"),
    ("account.chain_layer_sum_ns", "ns"),
    ("account.chain_residual_share", "ratio"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
];

/// The per-layer values of one traced run: every name of [`PER_LAYER`],
/// 0 until a workload sets it.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Default for Layers {
    fn default() -> Self {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }
}

impl Layers {
    /// Sets a declared metric.
    ///
    /// # Panics
    /// On a name [`PER_LAYER`] does not declare — a bug in this
    /// benchmark, caught by the smoke test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let slot = self.0.get_mut(name).unwrap_or_else(|| panic!("undeclared layer metric {name}"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}
