//! Deterministic traffic mixes for the socket testbed.
//!
//! A mix is a set of flows (each reserved or best-effort) plus a
//! deterministic packet schedule: `plan(total)` returns which flow each
//! of the `total` packets belongs to. Determinism matters — the same
//! spec replays the same schedule, so checked-in benchmark artifacts are
//! reproducible and conservation counts are exact by construction.

/// One flow of a mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Reserved flows carry the family's per-hop credential (and, for
    /// hummingbird/helia, ride the priority class); best-effort flows
    /// ride plain.
    pub reserved: bool,
}

/// A mix's flow table plus the packet → flow schedule.
#[derive(Clone, Debug)]
pub struct MixPlan {
    /// The flows, indexed by flow id.
    pub flows: Vec<FlowSpec>,
    /// `sequence[i]` is the flow id of the `i`-th packet sent.
    pub sequence: Vec<u32>,
}

/// The traffic shapes the testbed drives through a chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrafficMix {
    /// Eight constant-bit-rate flows (half reserved), strict round-robin.
    Cbr,
    /// Eight on/off flows taking turns in bursts of 64 back-to-back
    /// packets — the worst case for per-link buffering.
    BurstyOnOff,
    /// Two elephants (one reserved, one best-effort) carrying ~80% of
    /// packets, with 40 mice sharing the rest.
    ElephantMice,
    /// Four steady base flows, then a flash crowd: during the middle
    /// half of the run, 128 fresh best-effort sources grab every other
    /// slot — the paper's overload story at datagram granularity.
    FlashCrowd,
    /// One reserved interactive call (~30%) competing with four
    /// best-effort bulk transfers — the `examples/videocall.rs` scenario
    /// over real sockets.
    VideoCall,
}

impl TrafficMix {
    /// The standard benchmark set (the example-only `VideoCall` mix is
    /// excluded).
    pub const ALL: [TrafficMix; 4] = [
        TrafficMix::Cbr,
        TrafficMix::BurstyOnOff,
        TrafficMix::ElephantMice,
        TrafficMix::FlashCrowd,
    ];

    /// Stable display name (used in JSON artifacts and CLI flags).
    pub fn name(&self) -> &'static str {
        match self {
            TrafficMix::Cbr => "cbr",
            TrafficMix::BurstyOnOff => "bursty",
            TrafficMix::ElephantMice => "elephant_mice",
            TrafficMix::FlashCrowd => "flash_crowd",
            TrafficMix::VideoCall => "videocall",
        }
    }

    /// Builds the flow table and the packet schedule for a `total`-packet
    /// run.
    pub fn plan(&self, total: u64) -> MixPlan {
        // Past `usize::MAX` packets the schedule could not be held anyway.
        let total = usize::try_from(total).unwrap_or(usize::MAX);
        // Packet `i`'s slot `i % 10`, for the mixes planned in blocks of ten.
        let tens = || (0..10u32).cycle().take(total);
        match self {
            TrafficMix::Cbr => {
                // Flows 0..4 reserved, 4..8 best-effort; round-robin.
                let flows = class_split(8, 4);
                let sequence = (0..8).cycle().take(total).collect();
                MixPlan { flows, sequence }
            }
            TrafficMix::BurstyOnOff => {
                let flows = class_split(8, 4);
                let bursts = (0..8).flat_map(|f| std::iter::repeat_n(f, 64));
                MixPlan { flows, sequence: bursts.cycle().take(total).collect() }
            }
            TrafficMix::ElephantMice => {
                // Flow 0: reserved elephant; flow 1: best-effort
                // elephant; flows 2..42: mice, alternating class. Blocks
                // of ten: four packets per elephant, two mice.
                let mut flows = vec![FlowSpec { reserved: true }, FlowSpec { reserved: false }];
                flows.extend((0..40).map(|i| FlowSpec { reserved: i % 2 == 0 }));
                let mut mice = (2..42).cycle();
                let sequence = tens()
                    .map(|slot| match slot {
                        0..=3 => 0,
                        4..=7 => 1,
                        _ => mice.next().unwrap_or(2),
                    })
                    .collect();
                MixPlan { flows, sequence }
            }
            TrafficMix::FlashCrowd => {
                // Flows 0..2 reserved base, 2..4 best-effort base,
                // 4..132 the crowd (all best-effort).
                let mut flows = class_split(4, 2);
                flows.extend((0..128).map(|_| FlowSpec { reserved: false }));
                let surge = total / 4..3 * total / 4;
                let mut crowd = (4..132).cycle();
                let sequence = (0..total)
                    .zip((0..4).cycle())
                    .map(|(i, base)| {
                        if surge.contains(&i) && i % 2 == 1 {
                            crowd.next().unwrap_or(4)
                        } else {
                            base
                        }
                    })
                    .collect();
                MixPlan { flows, sequence }
            }
            TrafficMix::VideoCall => {
                // Flow 0: the reserved call; flows 1..5: best-effort
                // bulk. Blocks of ten: three call packets, seven bulk.
                let mut flows = vec![FlowSpec { reserved: true }];
                flows.extend((0..4).map(|_| FlowSpec { reserved: false }));
                let sequence = tens()
                    .map(|slot| match slot {
                        0..=2 => 0,
                        slot => 1 + (slot - 3) % 4,
                    })
                    .collect();
                MixPlan { flows, sequence }
            }
        }
    }
}

/// `n` flows with the first `reserved` of them credentialed.
fn class_split(n: usize, reserved: usize) -> Vec<FlowSpec> {
    (0..n).map(|i| FlowSpec { reserved: i < reserved }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mix_plans_full_schedules_with_both_classes() {
        for mix in TrafficMix::ALL.iter().chain([TrafficMix::VideoCall].iter()) {
            let plan = mix.plan(10_000);
            assert_eq!(plan.sequence.len(), 10_000, "{}", mix.name());
            assert!(
                plan.sequence.iter().all(|&f| (f as usize) < plan.flows.len()),
                "{}: flow id out of table",
                mix.name()
            );
            assert!(plan.flows.iter().any(|f| f.reserved), "{}", mix.name());
            assert!(plan.flows.iter().any(|f| !f.reserved), "{}", mix.name());
            // Every flow in the table actually sends at least once.
            let mut seen = vec![false; plan.flows.len()];
            for &f in &plan.sequence {
                seen[f as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "{}: unused flow in table", mix.name());
            assert_eq!(
                plan.sequence,
                mix.plan(10_000).sequence,
                "{}: not deterministic",
                mix.name()
            );
        }
    }

    #[test]
    fn flash_crowd_surges_only_in_the_middle_half() {
        let plan = TrafficMix::FlashCrowd.plan(4_000);
        assert!(plan.sequence[..1_000].iter().all(|&f| f < 4));
        assert!(plan.sequence[3_000..].iter().all(|&f| f < 4));
        assert!(plan.sequence[1_000..3_000].iter().any(|&f| f >= 4));
    }
}
