//! Reactive (closed-loop) flows: a windowed, ack-clocked sender with
//! retransmission timeouts, exponential backoff, and a bounded retry
//! budget.
//!
//! The CBR [`Flow`](crate::sim::Flow) injectors are open loop — they
//! keep sending at their configured rate no matter what the network
//! does, which is the right model for measuring *isolation* (the
//! flooding adversary of Fig. 3 is exactly such a sender) but the wrong
//! one for measuring *overload*: a real application backs off when the
//! path congests, retries when packets die, and gives up when the path
//! stays dead. [`ReactiveFlow`] is that sender, shaped like the
//! flow objects of classic packet-level simulators (a host owns a set
//! of flows, each reacting to the packets that come back to it):
//!
//! * **window** — at most `window` packets unacknowledged in flight; a
//!   send opportunity that finds the window full stalls (counted in
//!   [`FlowStats::backpressure_stalls`](crate::sim::FlowStats::backpressure_stalls))
//!   and the next acknowledgment restarts the send chain — ack
//!   clocking, the closed loop itself;
//! * **pacing** — new packets leave at most one per `pacing_ns`, so a
//!   wide-open window does not burst-dump into the first queue;
//! * **RTO** — each packet arms a retransmission timer; on expiry the
//!   packet is regenerated *through the flow's current generator* (so a
//!   reroute applied between tries sends the retry down the new path —
//!   retransmit-driven recovery) and the timer doubles up to
//!   `rto_max_ns`;
//! * **budget** — after `max_retransmits` retries the packet is
//!   abandoned. Every sequence number therefore terminates — acked or
//!   abandoned — and the flow completes in bounded time even on a path
//!   that blackholes everything (the no-livelock property the
//!   `closed_loop` tests pin).
//!
//! The acknowledgment channel is modeled, not simulated: delivery at
//! the destination host schedules an ack event `ack_delay_ns` later
//! rather than routing a reverse-path packet. That keeps the reverse
//! path out of the contended forward topology (acks are tiny and ride
//! links the experiments never saturate) while preserving what matters
//! for closed-loop dynamics: the round-trip delay before the window
//! opens again.

use crate::sim::NodeId;
use hummingbird_dataplane::SourceGenerator;
use std::collections::HashMap;

/// Configuration of a closed-loop flow
/// ([`Simulator::add_reactive_flow`](crate::sim::Simulator::add_reactive_flow)).
pub(crate) struct ReactiveFlow {
    /// Source generator (holds path + reservations). Retransmissions
    /// regenerate through whatever generator the flow holds *at retry
    /// time*, so a mid-run
    /// [`set_flow_route`](crate::sim::Simulator::set_flow_route) applies
    /// to them.
    pub generator: SourceGenerator,
    /// Node the packets enter (the first on-path AS).
    pub entry: NodeId,
    /// Payload bytes per packet.
    pub payload_len: usize,
    /// Total distinct packets to deliver (the flow completes when every
    /// one is acked or abandoned).
    pub total_pkts: u64,
    /// Maximum unacknowledged packets in flight (≥ 1).
    pub window: usize,
    /// Minimum gap between *new* packet sends, ns.
    pub pacing_ns: u64,
    /// Modeled reverse-path delay between delivery and the sender
    /// seeing the ack, ns.
    pub ack_delay_ns: u64,
    /// Initial retransmission timeout, ns.
    pub rto_ns: u64,
    /// Backoff cap: the RTO doubles per retry up to this, ns.
    pub rto_max_ns: u64,
    /// Retries per packet before it is abandoned.
    pub max_retransmits: u32,
    /// First send time, ns.
    pub start_ns: u64,
}

/// What happened, when — one entry in a reactive flow's timeline
/// ([`Simulator::flow_events`](crate::sim::Simulator::flow_events)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowEvent {
    /// Simulation time of the event, ns.
    pub at_ns: u64,
    /// What happened.
    pub kind: FlowEventKind,
}

/// The kinds of [`FlowEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowEventKind {
    /// A new sequence number left the host.
    Sent {
        /// Sequence number.
        seq: u64,
    },
    /// A retransmission left the host.
    Retransmit {
        /// Sequence number.
        seq: u64,
        /// Retry ordinal (1 = first retransmission).
        attempt: u32,
    },
    /// The sender saw the acknowledgment for `seq`.
    Acked {
        /// Sequence number.
        seq: u64,
    },
    /// A retransmission timer fired for `seq`.
    Timeout {
        /// Sequence number.
        seq: u64,
    },
    /// A send opportunity found the window full; the flow is ack-blocked.
    Stalled,
    /// `seq` exhausted its retransmit budget and was given up on.
    Abandoned {
        /// Sequence number.
        seq: u64,
    },
    /// Every sequence number is acked or abandoned; the flow is done.
    Completed,
}

/// Timer/window state of one unacknowledged sequence number.
pub(crate) struct Outstanding {
    /// Retry ordinal of the copy most recently sent (0 = original). An
    /// RTO event carries the attempt it armed for, so a timer made
    /// stale by a retransmission is recognized and ignored.
    pub attempt: u32,
    /// Timeout armed for the *next* expiry, ns (doubles per retry, capped).
    pub rto_ns: u64,
}

/// Run-time state machine of one reactive flow.
pub(crate) struct ReactiveState {
    pub cfg: ReactiveFlow,
    /// Next new sequence number to send.
    pub next_seq: u64,
    /// Sequence numbers acknowledged.
    pub acked: u64,
    /// Sequence numbers that exhausted their budget.
    pub abandoned: u64,
    /// In-flight (unacked, not abandoned) sequence numbers. Never
    /// iterated — only keyed access — so the map's order cannot leak
    /// into the simulation (determinism contract).
    pub outstanding: HashMap<u64, Outstanding>,
    /// Whether a `ReactiveSend` event is already in the queue (the send
    /// chain is self-perpetuating; acks and abandons restart it when it
    /// stalled on a full window).
    pub send_scheduled: bool,
    /// Last new-packet send time, ns — pacing floor for restarts.
    pub last_send_ns: u64,
    /// Every sequence number has terminated.
    pub done: bool,
    /// The timeline.
    pub events: Vec<FlowEvent>,
}

impl ReactiveState {
    pub(crate) fn new(cfg: ReactiveFlow) -> Self {
        ReactiveState {
            cfg,
            next_seq: 0,
            acked: 0,
            abandoned: 0,
            outstanding: HashMap::new(),
            send_scheduled: false,
            last_send_ns: 0,
            done: false,
            events: Vec::new(),
        }
    }

    /// Whether every sequence number has been acked or abandoned.
    pub(crate) fn complete(&self) -> bool {
        self.acked + self.abandoned >= self.cfg.total_pkts
    }
}
