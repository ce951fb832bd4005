//! `netsim_churn`: the discrete-event simulator's event loop plus an
//! engine per hop — `run_churn_scenario` for the Hummingbird family on
//! the seeded ring-of-PoPs backbone with a 20 Mbps flood, link
//! failures, a reroute and an on-path reboot. Bit-identical per seed,
//! so delivery and recovery are exact checks.

use crate::json::Value;
use crate::metrics::Layers;
use crate::trace::Recorder;
use crate::workload::{Rep, Workload, EPOCH_NS};
use hummingbird_dataplane::RouterConfig;
use hummingbird_netsim::{
    run_churn_scenario, ChurnScenarioOutcome, ChurnSpec, EngineFamily, EngineScenario,
};
use std::time::Instant;

/// Scenario runs per second of requested repetition (≈ 45 ms each on
/// the reference host).
const UNITS_PER_S: f64 = 20.0;

pub struct Churn {
    spec: ChurnSpec,
    seed: u64,
    units_per_s: f64,
    units: u64,
    /// The most recent unit's outcome, for the layer metrics.
    last: Option<ChurnScenarioOutcome>,
}

impl Churn {
    pub fn build(seed: u64, quick: bool) -> Self {
        let scenario = EngineScenario { family: EngineFamily::Hummingbird, shards: 1 };
        // The per-packet service time stays the spec's default rather
        // than the value `calibrated_per_pkt_ns` reads from
        // BENCH_hotpath.json: a file outside this benchmark must not be
        // able to change the workload's inputs.
        let mut spec = ChurnSpec::new(scenario).with_flood(20_000);
        if quick {
            spec.pops = 6;
            spec.run_s = 1;
        }
        let units_per_s = if quick { 8.0 * UNITS_PER_S } else { UNITS_PER_S };
        let mut w = Churn { spec, seed, units_per_s, units: 0, last: None };
        // Warm-up: one unit.
        let mut warm = Rep::default();
        w.unit(0, &mut warm, &mut Recorder::off());
        assert_eq!(warm.failed, 0, "warm-up scenario: {:?}", warm.failures);
        w
    }

    /// The spec of a repetition's `i`-th unit: topology, keys and
    /// background mesh are seeded from the run's seed and `i`.
    fn unit_spec(&self, i: u64) -> ChurnSpec {
        let mut spec = self.spec;
        spec.seed = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i);
        spec
    }

    /// One unit: a whole scenario run, checked for full reserved
    /// delivery after the reroute.
    fn unit(&mut self, i: u64, rep: &mut Rep, rec: &mut Recorder) {
        let spec = self.unit_spec(i);
        let span = rec.begin("netsim.run_churn_scenario", self.units);
        let t0 = Instant::now();
        let out = run_churn_scenario(RouterConfig::default(), &spec, EPOCH_NS);
        let elapsed = t0.elapsed();
        rec.end(span, out.events);
        self.units += 1;
        rep.ops += out.events;
        rep.wall_s += elapsed.as_secs_f64();
        rep.latencies_us.push(elapsed.as_nanos() as f64 / 1e3);
        // The victim's packets after the reroute are the checked
        // operations: every one sent must arrive.
        let recovery = &out.victim_recovery;
        rep.attempted += recovery.sent_pkts.max(1);
        if recovery.delivered_pkts < recovery.sent_pkts
            || out.report.link_failures() < spec.failures
        {
            rep.fail(
                recovery.sent_pkts - recovery.delivered_pkts.min(recovery.sent_pkts),
                format!(
                    "seed {:#x}: reserved delivery {}/{} after reroute, {} link failures injected",
                    spec.seed,
                    recovery.delivered_pkts,
                    recovery.sent_pkts,
                    out.report.link_failures()
                ),
            );
        }
        self.last = Some(out);
    }
}

impl Workload for Churn {
    /// Sized by count: every repetition runs the same scenarios (one
    /// backbone per unit index), so repetitions differ by noise only and
    /// a run averages over many seeded backbones.
    fn repetition(&mut self, seconds: f64, rec: &mut Recorder) -> Rep {
        let mut rep = Rep::default();
        for i in 0..(self.units_per_s * seconds).round().max(1.0) as u64 {
            self.unit(i, &mut rep, rec);
        }
        rep
    }

    fn verify(&mut self, failures: &mut Vec<String>) -> (u64, u64) {
        // Two runs of the same seed must agree on every counter.
        let spec = self.unit_spec(0);
        let a = run_churn_scenario(RouterConfig::default(), &spec, EPOCH_NS);
        let b = run_churn_scenario(RouterConfig::default(), &spec, EPOCH_NS);
        let same = a == b;
        if !same {
            failures.push(format!(
                "same-seed runs differ: {} vs {} events, {} vs {} delivered",
                a.events, b.events, a.victim_total.delivered_pkts, b.victim_total.delivered_pkts
            ));
        }
        (1, u64::from(!same))
    }

    fn layers(&mut self, traced: &Rep, _rec: &mut Recorder, out: &mut Layers) {
        out.set("netsim.events", traced.ops as f64);
        out.set("netsim.ns_per_event", traced.wall_s * 1e9 / traced.ops.max(1) as f64);
        if let Some(last) = &self.last {
            let r = &last.victim_recovery;
            out.set(
                "netsim.reserved_delivery",
                r.delivered_pkts as f64 / r.sent_pkts.max(1) as f64,
            );
            out.set(
                "netsim.recovery_ms",
                r.latency_sum_ns as f64 / 1e6 / r.delivered_pkts.max(1) as f64,
            );
            out.set("netsim.rerouted", last.report.total_rerouted() as f64);
        }
    }

    fn labels(&self) -> Vec<(&'static str, Value)> {
        vec![
            ("threads", Value::Num(1.0)),
            ("shards", Value::Num(1.0)),
            ("exec", Value::Str("single thread, discrete-event".into())),
            ("loop", Value::Str("closed, sized by count".into())),
            ("routers", Value::Num((self.spec.pops * self.spec.routers_per_pop) as f64)),
            ("simulated_s_per_unit", Value::Num(self.spec.run_s as f64)),
        ]
    }
}
