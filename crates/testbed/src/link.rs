//! Credit-windowed UDP links: the flow-control layer that makes exact
//! packet conservation provable over real sockets.
//!
//! `std::net` exposes no receive-buffer control, so a sender that simply
//! blasts datagrams at loopback speed will eventually overrun the
//! receiver's kernel buffer and the kernel will drop datagrams
//! *silently* — unattributable loss that would break the testbed's
//! `sent = received + dropped` accounting. Instead every link is
//! credit-windowed:
//!
//! * a [`CreditedSender`] keeps at most `window` data frames in flight —
//!   sized so even worst-case kernel skb accounting stays far below the
//!   default receive buffer, making kernel drops structurally impossible;
//! * the receiver counts every data frame it pulls off its socket and
//!   sends the cumulative count back on a separate control socket (an
//!   [`AckSender`], every `ack_every` frames and once more on FIN);
//! * a sender that would exceed its window polls its control socket
//!   under its [`WaitStrategy`] (`--wait`) until credit arrives — or
//!   errors out loudly after `timeout`, so a genuine stall (a wedged
//!   node, an unexpected kernel drop) surfaces as a failure instead of
//!   silent loss.
//!
//! Acks are cumulative *counts*, not sequence numbers, so they are
//! idempotent and loss-tolerant: a later ack supersedes any number of
//! lost earlier ones (and ack traffic is itself bounded by the data
//! window, so the control sockets cannot overrun either).

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use crate::frame::{KIND_DATA, KIND_FIN};

/// How a [`CreditedSender`] waits between nonblocking control-socket
/// polls while it is out of credit ([`ChainSpec::wait`], `--wait`): a
/// spinning sender steals the timeslice the receiver it waits on needs
/// when node threads outnumber hardware threads, a yielding one adds
/// latency when they do not.
///
/// [`ChainSpec::wait`]: crate::ChainSpec::wait
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaitStrategy {
    /// Spin (`spin_loop` hint) without ever yielding — lowest latency
    /// when every node owns a dedicated hardware thread, pathological
    /// when cores are shared.
    BusyPoll,
    /// Spin through the first `n` polls, then yield the timeslice on
    /// every further one until credit arrives. `YieldAfter(0)` yields
    /// immediately.
    YieldAfter(u32),
    /// Spin through 63 polls, yield through the next 192, then sleep
    /// 50 µs per poll: short stalls stay on-core, long ones surrender
    /// the core entirely. Needs no tuning parameter; the default.
    #[default]
    Backoff,
}

/// Spin/yield/sleep helper implementing a [`WaitStrategy`].
struct Waiter {
    strategy: WaitStrategy,
    spins: u32,
}

impl Waiter {
    fn new(strategy: WaitStrategy) -> Self {
        Waiter { strategy, spins: 0 }
    }

    fn reset(&mut self) {
        self.spins = 0;
    }

    fn wait(&mut self) {
        self.spins = self.spins.saturating_add(1);
        match self.strategy {
            WaitStrategy::BusyPoll => std::hint::spin_loop(),
            WaitStrategy::YieldAfter(n) => {
                if self.spins > n {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
            WaitStrategy::Backoff => {
                if self.spins < 64 {
                    std::hint::spin_loop();
                } else if self.spins < 256 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }
}

/// The sending half of one credit-windowed link.
pub struct CreditedSender {
    data: UdpSocket,
    ctrl: UdpSocket,
    peer: SocketAddr,
    window: u64,
    timeout: Duration,
    waiter: Waiter,
    /// Data frames sent on this link.
    pub sent: u64,
    /// Highest cumulative receive count acknowledged by the peer.
    pub acked: u64,
}

impl CreditedSender {
    /// Opens a sender toward `peer` (the receiver's data socket) with at
    /// most `window` unacknowledged data frames in flight. The paired
    /// control socket ([`CreditedSender::ctrl_addr`]) must be handed to
    /// the receiver's [`AckSender`].
    pub fn new(
        peer: SocketAddr,
        window: usize,
        wait: WaitStrategy,
        timeout: Duration,
    ) -> io::Result<Self> {
        let data = UdpSocket::bind("127.0.0.1:0")?;
        let ctrl = UdpSocket::bind("127.0.0.1:0")?;
        ctrl.set_nonblocking(true)?;
        Ok(CreditedSender {
            data,
            ctrl,
            peer,
            window: window.max(1) as u64,
            timeout,
            waiter: Waiter::new(wait),
            sent: 0,
            acked: 0,
        })
    }

    /// Where the receiver must send its cumulative acks.
    pub fn ctrl_addr(&self) -> io::Result<SocketAddr> {
        self.ctrl.local_addr()
    }

    /// Drains every pending ack off the control socket (nonblocking).
    fn poll_acks(&mut self) {
        let mut buf = [0u8; 8];
        while let Ok(n) = self.ctrl.recv(&mut buf) {
            if n == 8 {
                self.acked = self.acked.max(u64::from_le_bytes(buf));
            }
        }
    }

    /// Waits (under the configured [`WaitStrategy`]) until at most
    /// `below` data frames are unacknowledged.
    fn wait_in_flight_below(&mut self, below: u64) -> io::Result<()> {
        if self.sent - self.acked < below {
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout;
        self.waiter.reset();
        loop {
            self.poll_acks();
            if self.sent - self.acked < below {
                return Ok(());
            }
            if Instant::now() >= deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "link stalled: {} of {} data frames unacknowledged after {:?}",
                        self.sent - self.acked,
                        self.sent,
                        self.timeout
                    ),
                ));
            }
            self.waiter.wait();
        }
    }

    /// Sends one data frame (`KIND_DATA` byte + serialized packet),
    /// blocking under the wait strategy while the window is full.
    pub fn send_data(&mut self, frame: &[u8]) -> io::Result<()> {
        debug_assert_eq!(frame.first(), Some(&KIND_DATA));
        self.wait_in_flight_below(self.window)?;
        self.data.send_to(frame, self.peer)?;
        self.sent += 1;
        Ok(())
    }

    /// Waits until the peer has acknowledged every data frame sent.
    ///
    /// Call *after* [`CreditedSender::send_fin`]: the receiver only acks
    /// on its `ack_every` cadence, so the frames past the last cadence
    /// boundary are acknowledged by the receiver's FIN-time flush. A
    /// drain issued before the FIN deadlocks on those trailing frames
    /// (and times out loudly) whenever `sent` is not a multiple of the
    /// cadence.
    pub fn drain(&mut self) -> io::Result<()> {
        self.wait_in_flight_below(1)
    }

    /// Sends the FIN marker. Loopback UDP delivers in order per socket
    /// pair, so the FIN arrives after every data frame already sent;
    /// the receiver flushes its cumulative ack on FIN, which is what
    /// lets the subsequent [`CreditedSender::drain`] complete.
    pub fn send_fin(&mut self) -> io::Result<()> {
        self.data.send_to(&[KIND_FIN], self.peer)?;
        Ok(())
    }
}

/// The receiving half's ack duty: counts data frames and reports the
/// cumulative count to the upstream sender's control socket.
pub struct AckSender {
    sock: UdpSocket,
    upstream_ctrl: SocketAddr,
    every: u64,
    /// Data frames received so far on this link.
    pub received: u64,
}

impl AckSender {
    /// Creates the ack half toward `upstream_ctrl`
    /// ([`CreditedSender::ctrl_addr`]), acking every `every` frames.
    pub fn new(upstream_ctrl: SocketAddr, every: u64) -> io::Result<Self> {
        Ok(AckSender {
            sock: UdpSocket::bind("127.0.0.1:0")?,
            upstream_ctrl,
            every: every.max(1),
            received: 0,
        })
    }

    /// Records one received data frame, acking on the cadence.
    pub fn on_data(&mut self) -> io::Result<()> {
        self.received += 1;
        if self.received.is_multiple_of(self.every) {
            self.flush()?;
        }
        Ok(())
    }

    /// Sends the current cumulative count unconditionally (the FIN-time
    /// final ack).
    pub fn flush(&mut self) -> io::Result<()> {
        self.sock.send_to(&self.received.to_le_bytes(), self.upstream_ctrl)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_blocks_until_acked_and_drain_completes() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut tx = CreditedSender::new(
            rx.local_addr().unwrap(),
            2,
            WaitStrategy::Backoff,
            Duration::from_millis(200),
        )
        .unwrap();
        let mut ack = AckSender::new(tx.ctrl_addr().unwrap(), 1).unwrap();

        let frame = [KIND_DATA, 1, 2, 3];
        tx.send_data(&frame).unwrap();
        tx.send_data(&frame).unwrap();
        // Window of 2 is full and nothing acked: the third send times out.
        let err = tx.send_data(&frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);

        // The receiver pulls both frames and acks; credit returns.
        let mut buf = [0u8; 64];
        for _ in 0..2 {
            let n = rx.recv(&mut buf).unwrap();
            assert_eq!(buf[..n], frame);
            ack.on_data().unwrap();
        }
        tx.send_data(&frame).unwrap();
        let n = rx.recv(&mut buf).unwrap();
        assert_eq!(buf[..n], frame);
        ack.on_data().unwrap();
        tx.drain().unwrap();
        assert_eq!(tx.sent, 3);
        assert_eq!(tx.acked, 3);

        // FIN travels the data path after the drain.
        tx.send_fin().unwrap();
        let n = rx.recv(&mut buf).unwrap();
        assert_eq!(&buf[..n], &[KIND_FIN]);
    }

    #[test]
    fn acks_are_cumulative_and_loss_tolerant() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let mut tx = CreditedSender::new(
            rx.local_addr().unwrap(),
            4,
            WaitStrategy::YieldAfter(8),
            Duration::from_secs(1),
        )
        .unwrap();
        // A stale (smaller) ack never regresses the credit.
        let ctrl = tx.ctrl_addr().unwrap();
        let side = UdpSocket::bind("127.0.0.1:0").unwrap();
        side.send_to(&5u64.to_le_bytes(), ctrl).unwrap();
        side.send_to(&3u64.to_le_bytes(), ctrl).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        tx.poll_acks();
        assert_eq!(tx.acked, 5);
    }
}
