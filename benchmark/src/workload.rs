//! What every workload gives the driver: a seeded set-up, timed
//! repetitions made of units, an oracle, and (for the traced run) its
//! layer metrics.

use crate::json::Value;
use crate::metrics::Layers;
use crate::trace::Recorder;
use crate::{chain, control, netsim, router};

/// Fixed evaluation clock of the in-process workloads (Unix seconds);
/// the socket workloads use the wall clock because their routers do.
pub const EPOCH_S: u64 = 1_700_000_000;
pub const EPOCH_MS: u64 = EPOCH_S * 1_000;
pub const EPOCH_NS: u64 = EPOCH_S * 1_000_000_000;

/// One timed repetition.
#[derive(Debug, Default)]
pub struct Rep {
    /// Primary operations completed (the workload's README row says
    /// what one operation is).
    pub ops: u64,
    /// The wall time they took — `ops / wall_s` is the repetition's
    /// `ops_per_s`.
    pub wall_s: f64,
    /// Exact latency samples, µs: unit completion times in the closed
    /// loops, one-way latency from the due time in the open loop.
    pub latencies_us: Vec<f64>,
    /// Operations the oracle checked and how many of them were wrong.
    pub attempted: u64,
    pub failed: u64,
    /// What went wrong, for the log (bounded by the workloads).
    pub failures: Vec<String>,
    /// Process CPU seconds (all threads, user + system) per second of
    /// the repetition's wall clock — filled in by the driver. A
    /// single-threaded workload well below 1 was kept off its CPU.
    pub cpu_per_wall: f64,
}

impl Rep {
    /// Counts `n` failed operations with one log line.
    pub fn fail(&mut self, n: u64, what: String) {
        self.failed += n.max(1);
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }
}

/// A workload, set up and warmed.
pub trait Workload {
    /// One timed repetition: the work the workload's sizing constants
    /// assign to `seconds` on the reference host, recording spans into
    /// `rec` when it is on.
    fn repetition(&mut self, seconds: f64, rec: &mut Recorder) -> Rep;

    /// End-of-run oracle, off the clock: returns `(attempted, failed)`
    /// checks beyond the per-repetition ones, logging into `failures`.
    fn verify(&mut self, _failures: &mut Vec<String>) -> (u64, u64) {
        (0, 0)
    }

    /// Traced run only: the layer sweeps on this workload's own inputs.
    /// `traced` is the traced repetition's result and `rec` holds its
    /// spans (and receives the sweeps').
    fn layers(&mut self, traced: &Rep, rec: &mut Recorder, out: &mut Layers);

    /// Labels for the result file: threads, shards, exec mode, …
    fn labels(&self) -> Vec<(&'static str, Value)>;
}

/// Sets `name` up from `seed` (inputs are a pure function of the seed)
/// and warms it; `None` for an unknown name. `quick` is the smoke size:
/// same code, names, mixes and rates, smaller units.
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Box<dyn Workload>> {
    Some(match name {
        "router_flyover_min" => Box::new(router::FlyoverMin::build(seed, quick)),
        "router_sharded_mix" => Box::new(router::ShardedMix::build(seed, quick)),
        "chain_saturate" => Box::new(chain::Saturate::build(seed, quick)),
        "chain_paced" => Box::new(chain::Paced::build(seed, quick)),
        "control_lifecycle" => Box::new(control::Lifecycle::build(seed, quick)),
        "control_steady" => Box::new(control::Steady::build(seed, quick)),
        "netsim_churn" => Box::new(netsim::Churn::build(seed, quick)),
        _ => return None,
    })
}
