//! Fault injection on the simulator clock: link down/up, router reboots
//! (datapath state wiped — counters, policer buckets, duplicate
//! suppressor and a baseline engine's key cache come back cold), and
//! mid-epoch reroute of the flows a failure stranded.
//!
//! [`apply_action`] applies one [`ChurnAction`] at the simulator's
//! current instant; a timed plan is [`run`](crate::run)'s
//! [`Scenario::plan`](crate::Scenario::plan), or any caller's own loop of
//! [`Simulator::run_until`](crate::Simulator::run_until) and
//! [`apply_action`]. Because `run_until` is inclusive, every packet event
//! at time `t` is processed *before* a churn action at `t` — the stable
//! tie-break the determinism tests pin (see the event-ordering notes on
//! `Simulator::schedule`).
//!
//! Every application is recorded as a [`ChurnRecord`] whose
//! [`ChurnOutcome`] carries the measurable effect (packets drained by a
//! failure, stats discarded by a reboot, flows rerouted vs stranded), so
//! experiments can assert *recovery*, not just survival.

use crate::topo::{AdjId, RouterId, TopologyBuilder};
use hummingbird_dataplane::DatapathStats;

/// One fault-injection action against a [`TopologyBuilder`] topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnAction {
    /// Take a bidirectional adjacency down; packets queued on it are
    /// dropped (counted per flow) and packets sent into it die until
    /// the adjacency comes back.
    LinkDown(AdjId),
    /// Restore a downed adjacency.
    LinkUp(AdjId),
    /// Reboot a router: its engine is rebuilt from scratch (all
    /// datapath state cold) and its service model restarts idle.
    RouterReboot(RouterId),
    /// Re-path every still-active flow whose route crosses a downed
    /// adjacency (fresh credentials on the new path; old reservations
    /// stay stranded on the dead one).
    RerouteAffected,
}

/// The measurable effect of one applied [`ChurnAction`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChurnOutcome {
    /// The failure drained this many queued packets (each counted into
    /// its flow's [`link_down_drops`](crate::FlowStats::link_down_drops)).
    LinkDown {
        /// Packets dropped from the dying link's queues.
        drained: u64,
    },
    /// The adjacency is back up.
    LinkUp,
    /// The router rebooted; these are the counters its old engine died
    /// with (lost to the reboot — post-reboot stats restart from zero).
    Rebooted {
        /// Final stats of the discarded engine.
        discarded: DatapathStats,
    },
    /// The reroute pass moved `rerouted` flows onto fresh paths and
    /// left `stranded` flows with no surviving path.
    Rerouted {
        /// Flows re-pathed around the failures.
        rerouted: usize,
        /// Flows with no surviving path (still sending into the dead
        /// link).
        stranded: usize,
    },
}

/// One applied action with its instant and effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChurnRecord {
    /// Simulated time the action was applied, ns.
    pub at_ns: u64,
    /// The action.
    pub action: ChurnAction,
    /// Its measured effect.
    pub outcome: ChurnOutcome,
}

/// The full application log of a churn run — `PartialEq` so the
/// determinism tests can demand bit-identical replays of the whole
/// fault timeline, not just the flow stats.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChurnReport {
    /// Applied actions in application order.
    pub records: Vec<ChurnRecord>,
}

impl ChurnReport {
    /// Total flows rerouted across all reroute passes.
    pub fn total_rerouted(&self) -> usize {
        self.records
            .iter()
            .map(|r| match r.outcome {
                ChurnOutcome::Rerouted { rerouted, .. } => rerouted,
                _ => 0,
            })
            .sum()
    }

    /// Total flows found stranded across all reroute passes.
    pub fn total_stranded(&self) -> usize {
        self.records
            .iter()
            .map(|r| match r.outcome {
                ChurnOutcome::Rerouted { stranded, .. } => stranded,
                _ => 0,
            })
            .sum()
    }

    /// Number of link failures applied.
    pub fn link_failures(&self) -> usize {
        self.records.iter().filter(|r| matches!(r.action, ChurnAction::LinkDown(_))).count()
    }
}

/// Applies one action to `topo` *now* (at the simulator's current
/// instant) and returns the record.
pub fn apply_action(topo: &mut TopologyBuilder, action: ChurnAction) -> ChurnRecord {
    let outcome = match action {
        ChurnAction::LinkDown(adj) => {
            ChurnOutcome::LinkDown { drained: topo.set_adjacency_up(adj, false) }
        }
        ChurnAction::LinkUp(adj) => {
            topo.set_adjacency_up(adj, true);
            ChurnOutcome::LinkUp
        }
        ChurnAction::RouterReboot(r) => ChurnOutcome::Rebooted { discarded: topo.reboot_router(r) },
        ChurnAction::RerouteAffected => {
            let (rerouted, stranded) = topo.reroute_affected();
            ChurnOutcome::Rerouted { rerouted, stranded }
        }
    };
    ChurnRecord { at_ns: topo.sim.now_ns(), action, outcome }
}
