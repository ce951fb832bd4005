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
//! * a [`CreditedSender`] keeps at most `window` data frames in flight,
//!   fewer than the receive buffer can hold, so kernel drops are
//!   structurally impossible. Linux's default 212 992-byte buffer
//!   holds 166 loopback datagrams of ≤ 600 B (the kernel charges each
//!   its whole buffer allocation, not its length), so the default
//!   window of 64 fills 39 % of it; datagrams of 1 000–1 500 B fit 92;
//! * the receiver counts every data frame it pulls off its socket and
//!   sends the cumulative count back on a separate control socket (an
//!   [`AckSender`], every `ack_every` frames and once more on FIN);
//! * a sender that would exceed its window polls its control socket
//!   under its [`WaitStrategy`] until credit arrives — under the default
//!   `Backoff`, a few yielding polls and then a blocking `recv` that the
//!   next ack ends — or errors out loudly after `timeout`, so a genuine
//!   stall (a wedged node, an unexpected kernel drop) surfaces as a
//!   failure instead of silent loss.
//!
//! Acks are cumulative *counts*, not sequence numbers, so they are
//! idempotent and loss-tolerant: a later ack supersedes any number of
//! lost earlier ones (and ack traffic is itself bounded by the data
//! window, so the control sockets cannot overrun either). Each sending
//! socket is connected to its one peer, which spares every datagram the
//! kernel's per-`sendto` route lookup.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use crate::frame::{KIND_DATA, KIND_FIN};

/// How a [`CreditedSender`] waits for credit ([`ChainSpec::wait`]): a
/// spinning sender steals the timeslice the receiver it waits on needs
/// when node threads outnumber hardware threads, a yielding one adds
/// latency when they do not.
///
/// [`ChainSpec::wait`]: crate::ChainSpec::wait
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaitStrategy {
    /// Poll the control socket nonblocking and spin (`spin_loop` hint)
    /// between polls, never yielding — lowest latency when every node
    /// owns a dedicated hardware thread, pathological when cores are
    /// shared.
    BusyPoll,
    /// Spin through the first `n` nonblocking polls, then yield the
    /// timeslice after every further one until credit arrives.
    /// `YieldAfter(0)` yields immediately.
    YieldAfter(u32),
    /// Yield after each of the first few nonblocking polls, then sleep
    /// in a blocking `recv` on the control socket until an ack arrives
    /// or the stall budget runs out: a short stall costs a few yields,
    /// a long one costs the thread nothing until the ack wakes it. Needs
    /// no tuning parameter; the default.
    #[default]
    Backoff,
}

/// Nonblocking polls, each followed by a `yield_now`, before a
/// [`WaitStrategy::Backoff`] sender sleeps on its control socket.
const BACKOFF_POLLS: u32 = 4;

/// Whether a blocking `recv` ended because its read timeout expired,
/// which Linux reports as `WouldBlock` (`EAGAIN`), not `TimedOut`.
pub(crate) fn read_timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// The sending half of one credit-windowed link.
pub struct CreditedSender {
    data: UdpSocket,
    ctrl: UdpSocket,
    window: u64,
    timeout: Duration,
    wait: WaitStrategy,
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
        data.connect(peer)?;
        let ctrl = UdpSocket::bind("127.0.0.1:0")?;
        ctrl.set_nonblocking(true)?;
        Ok(CreditedSender {
            data,
            ctrl,
            window: window.max(1) as u64,
            timeout,
            wait,
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
            self.record_ack(&buf[..n]);
        }
    }

    fn record_ack(&mut self, ack: &[u8]) {
        if let Ok(count) = ack.try_into() {
            self.acked = self.acked.max(u64::from_le_bytes(count));
        }
    }

    /// Sleeps in a blocking `recv` on the control socket until one ack
    /// arrives or `left` runs out; the caller re-checks credit and
    /// deadline either way.
    fn sleep_for_ack(&mut self, left: Duration) -> io::Result<()> {
        let mut buf = [0u8; 8];
        self.ctrl.set_nonblocking(false)?;
        self.ctrl.set_read_timeout(Some(left))?;
        let got = self.ctrl.recv(&mut buf);
        self.ctrl.set_nonblocking(true)?;
        match got {
            Ok(n) => self.record_ack(&buf[..n]),
            Err(e) if read_timed_out(&e) || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Waits (under the configured [`WaitStrategy`]) until at most
    /// `below` data frames are unacknowledged.
    fn wait_in_flight_below(&mut self, below: u64) -> io::Result<()> {
        if self.sent - self.acked < below {
            return Ok(());
        }
        let deadline = Instant::now() + self.timeout;
        let mut polls = 0u32;
        loop {
            self.poll_acks();
            if self.sent - self.acked < below {
                return Ok(());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
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
            polls = polls.saturating_add(1);
            match self.wait {
                WaitStrategy::BusyPoll => std::hint::spin_loop(),
                WaitStrategy::YieldAfter(n) if polls <= n => std::hint::spin_loop(),
                WaitStrategy::YieldAfter(_) => std::thread::yield_now(),
                WaitStrategy::Backoff if polls < BACKOFF_POLLS => std::thread::yield_now(),
                WaitStrategy::Backoff => self.sleep_for_ack(left)?,
            }
        }
    }

    /// Sends one data frame (`KIND_DATA` byte + serialized packet),
    /// blocking under the wait strategy while the window is full.
    pub fn send_data(&mut self, frame: &[u8]) -> io::Result<()> {
        debug_assert_eq!(frame.first(), Some(&KIND_DATA));
        self.wait_in_flight_below(self.window)?;
        self.data.send(frame)?;
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
        self.data.send(&[KIND_FIN])?;
        Ok(())
    }
}

/// The receiving half's ack duty: counts data frames and reports the
/// cumulative count to the upstream sender's control socket.
pub struct AckSender {
    sock: UdpSocket,
    every: u64,
    /// Data frames received so far on this link.
    pub received: u64,
}

impl AckSender {
    /// Creates the ack half toward `upstream_ctrl`
    /// ([`CreditedSender::ctrl_addr`]), acking every `every` frames.
    pub fn new(upstream_ctrl: SocketAddr, every: u64) -> io::Result<Self> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.connect(upstream_ctrl)?;
        Ok(AckSender { sock, every: every.max(1), received: 0 })
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
        self.sock.send(&self.received.to_le_bytes())?;
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
