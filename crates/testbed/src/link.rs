//! Credit-windowed UDP links: the flow-control layer that makes exact
//! packet conservation provable over real sockets, carried in runs.
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
//!   structurally impossible. The kernel charges a datagram its buffer
//!   allocation, not its length. Every datagram a link sends carries
//!   `UDP_SEGMENT`, so the kernel builds it in page fragments; measured
//!   on loopback against Linux's default 212 992-byte buffer, a lone
//!   frame is charged 1.1–1.4 KiB up to 600 B, 2.3 KiB at 1 500 B and
//!   2.9 KiB at 2 KiB, and a run about 1.1× its bytes (665 B per 600 B
//!   frame, 2.2–2.3 KiB per 2 KiB frame). A frame in a run never costs
//!   more than the same frame alone, so the lone-frame charge bounds
//!   any grouping: the buffer holds 73 frames of 2 KiB, and the default
//!   window of 64 fits frames up to `MAX_FRAME` (2 KiB; longer ones are
//!   refused) however they ride, where a plain `send` (a linear buffer:
//!   166 datagrams of ≤ 600 B fit, only 48 above ≈ 1.65 KiB) would not.
//!   The chains' ≈ 300 B frames fill a third of it;
//! * the receiver counts every data frame it pulls off its socket and
//!   sends the cumulative count back on a separate control socket (an
//!   [`AckSender`], every `ack_every` frames and once more on FIN);
//! * a sender that would exceed its window polls its control socket
//!   under its [`WaitStrategy`] until credit arrives — `Backoff`, a few
//!   yielding polls and then a blocking `recv` that the next ack ends —
//!   or errors out loudly after `timeout`, so a genuine
//!   stall (a wedged node, an unexpected kernel drop) surfaces as a
//!   failure instead of silent loss.
//!
//! Frames ride in *runs*: consecutive frames of one length go out as a
//! single `UDP_SEGMENT` datagram (at most the credit left,
//! `MAX_RUN_FRAMES` frames and `MAX_RUN_BYTES` bytes), so the loopback
//! stack is walked once per run rather than once per frame. A sender
//! queues priority frames and defers best-effort ones, and a flush sends
//! the queued, then the deferred: a gateway window or a router drain
//! whose classes alternate in length leaves in long runs. A node's socket
//! has `UDP_GRO` on and reads a run back whole, splitting it by the
//! segment size the kernel reports; a plain socket gets the kernel to
//! split it into one datagram per frame. Credits, acks and the FIN count
//! frames, never datagrams.
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
use crate::sys;

/// How a [`CreditedSender`] waits for credit ([`ChainSpec::wait`]). A
/// spinning sender would steal the timeslice the receiver it waits on
/// needs when node threads outnumber hardware threads, so the one
/// strategy yields and then sleeps.
///
/// [`ChainSpec::wait`]: crate::ChainSpec::wait
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WaitStrategy {
    /// Yield after each of the first few nonblocking polls, then sleep
    /// in a blocking `recv` on the control socket until an ack arrives
    /// or the stall budget runs out: a short stall costs a few yields,
    /// a long one costs the thread nothing until the ack wakes it. Needs
    /// no tuning parameter.
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

/// Largest frame a link carries: a full default window of 2 KiB frames
/// fits the default receive buffer however the frames are grouped into
/// datagrams (see the module docs).
pub(crate) const MAX_FRAME: usize = 2048;
/// Most frames one run carries: `UDP_MAX_SEGMENTS` of the first
/// kernels with UDP segmentation offload.
pub(crate) const MAX_RUN_FRAMES: usize = 64;
/// Most bytes one run carries: the largest UDP payload IPv4 can carry,
/// 64 KiB less the IP and UDP headers.
pub(crate) const MAX_RUN_BYTES: usize = u16::MAX as usize - 20 - 8;

/// The sending half of one credit-windowed link.
pub struct CreditedSender {
    data: UdpSocket,
    ctrl: UdpSocket,
    window: u64,
    timeout: Duration,
    wait: WaitStrategy,
    /// Priority frames queued for this link, in order.
    queued: Runs,
    /// Best-effort frames held until the next flush, in order.
    deferred: Runs,
    /// Data frames sent on this link.
    pub sent: u64,
    /// Highest cumulative receive count acknowledged by the peer.
    pub acked: u64,
    /// Datagrams those frames rode in: one per run.
    pub(crate) datagrams: u64,
}

impl CreditedSender {
    /// Opens a sender toward `peer` (the receiver's data socket) with at
    /// most `window` unacknowledged data frames in flight. The paired
    /// control socket ([`CreditedSender::ctrl_addr`]) must be handed to
    /// the receiver's [`AckSender`]. Fails, naming the option, on a
    /// kernel without `UDP_SEGMENT`.
    pub fn new(
        peer: SocketAddr,
        window: usize,
        wait: WaitStrategy,
        timeout: Duration,
    ) -> io::Result<Self> {
        let data = UdpSocket::bind("127.0.0.1:0")?;
        data.connect(peer)?;
        sys::check_gso(&data)?;
        let ctrl = UdpSocket::bind("127.0.0.1:0")?;
        ctrl.set_nonblocking(true)?;
        Ok(CreditedSender {
            data,
            ctrl,
            window: window.max(1) as u64,
            timeout,
            wait,
            queued: Runs::default(),
            deferred: Runs::default(),
            sent: 0,
            acked: 0,
            datagrams: 0,
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
                WaitStrategy::Backoff if polls < BACKOFF_POLLS => std::thread::yield_now(),
                WaitStrategy::Backoff => self.sleep_for_ack(left)?,
            }
        }
    }

    /// Queues one data frame (`KIND_DATA` byte + serialized packet) and
    /// flushes, blocking under the wait strategy while the window is full.
    pub fn send_data(&mut self, frame: &[u8]) -> io::Result<()> {
        self.queue(frame);
        self.flush()
    }

    /// Queues one priority data frame; [`CreditedSender::flush`] sends it.
    pub(crate) fn queue(&mut self, frame: &[u8]) {
        self.queued.push(frame);
    }

    /// Holds one best-effort data frame until the next
    /// [`CreditedSender::flush`] has sent the queued priority frames.
    pub(crate) fn defer(&mut self, frame: &[u8]) {
        self.deferred.push(frame);
    }

    /// Sends every queued frame and then every deferred one, each in
    /// order, one `UDP_SEGMENT` datagram per run. A run longer than its
    /// bound, or than the credit left, goes out in parts: each part waits
    /// for at least one credit and takes as many frames as the credit
    /// covers, so a run never waits for credit it could do without.
    pub(crate) fn flush(&mut self) -> io::Result<()> {
        // Moved out for the sends and back after, keeping their capacity.
        let mut held = [std::mem::take(&mut self.queued), std::mem::take(&mut self.deferred)];
        let sent =
            held.iter().flat_map(Runs::iter).try_for_each(|(run, len)| self.send_run(run, len));
        held.iter_mut().for_each(Runs::clear);
        [self.queued, self.deferred] = held;
        sent
    }

    /// Sends `run`, frames of `len` bytes back to back, in as few
    /// datagrams as its bound and the credit allow, charging one credit
    /// per frame.
    fn send_run(&mut self, mut run: &[u8], len: usize) -> io::Result<()> {
        let Some(seg) = u16::try_from(len).ok().filter(|_| (1..=MAX_FRAME).contains(&len)) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("{len} B frame: a link carries frames of 1 to {MAX_FRAME} B"),
            ));
        };
        while !run.is_empty() {
            self.wait_in_flight_below(self.window)?;
            let credit =
                usize::try_from(self.window - (self.sent - self.acked)).unwrap_or(usize::MAX);
            let frames = (run.len() / len).min(MAX_RUN_FRAMES).min(MAX_RUN_BYTES / len).min(credit);
            let (part, rest) = run.split_at(frames * len);
            sys::send_run(&self.data, part, seg)?;
            self.sent += frames as u64;
            self.datagrams += 1;
            run = rest;
        }
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

    /// Sends whatever is queued, then the FIN marker. Loopback UDP
    /// delivers in order per socket pair, so the FIN arrives after every
    /// data frame already sent; the receiver flushes its cumulative ack
    /// on FIN, which is what lets the subsequent
    /// [`CreditedSender::drain`] complete.
    pub fn send_fin(&mut self) -> io::Result<()> {
        self.flush()?;
        self.data.send(&[KIND_FIN])?;
        Ok(())
    }
}

/// Frames back to back, in order, as runs of `(frame length, frames)`:
/// consecutive frames of one length share a run.
#[derive(Default)]
struct Runs {
    bytes: Vec<u8>,
    runs: Vec<(usize, usize)>,
}

impl Runs {
    fn push(&mut self, frame: &[u8]) {
        debug_assert_eq!(frame.first(), Some(&KIND_DATA));
        self.bytes.extend_from_slice(frame);
        match self.runs.last_mut() {
            Some((len, frames)) if *len == frame.len() => *frames += 1,
            _ => self.runs.push((frame.len(), 1)),
        }
    }

    /// Each run's frames with their length.
    fn iter(&self) -> impl Iterator<Item = (&[u8], usize)> {
        let mut rest = &self.bytes[..];
        self.runs.iter().map(move |&(len, frames)| {
            let (run, tail) = rest.split_at(len * frames);
            rest = tail;
            (run, len)
        })
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.runs.clear();
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
    use crate::node::bind_receiver;

    /// `n` data frames of `len` bytes, frame `i` filled with byte `i`.
    fn frames(n: usize, len: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| tagged(i, len)).collect()
    }

    /// A data frame of `len` bytes filled with byte `i`.
    fn tagged(i: usize, len: usize) -> Vec<u8> {
        let mut frame = vec![i as u8; len];
        frame[0] = KIND_DATA;
        frame
    }

    fn sender(to: &UdpSocket, window: usize) -> CreditedSender {
        let to = to.local_addr().unwrap();
        CreditedSender::new(to, window, WaitStrategy::Backoff, Duration::from_secs(5)).unwrap()
    }

    /// A `UDP_GRO` receiver with a read timeout, so a missing datagram
    /// fails the test instead of hanging it.
    fn gro_receiver() -> UdpSocket {
        let rx = bind_receiver().unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        rx
    }

    /// A run of equal frames is one datagram on the wire, which a plain
    /// socket (no `UDP_GRO`) receives as one datagram per frame, in
    /// order: the wire format of a link is unchanged.
    #[test]
    fn a_run_reaches_a_plain_socket_as_one_datagram_per_frame() {
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut tx = sender(&rx, 64);
        let queued = frames(8, 300);
        queued.iter().for_each(|f| tx.queue(f));
        tx.flush().unwrap();
        assert_eq!((tx.sent, tx.datagrams), (8, 1));
        let mut buf = [0u8; 2048];
        for frame in &queued {
            let n = rx.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], &frame[..]);
        }
        rx.set_nonblocking(true).unwrap();
        let rest = rx.recv(&mut buf).unwrap_err();
        assert_eq!(rest.kind(), io::ErrorKind::WouldBlock, "one datagram per frame, no more");
    }

    /// Frames of mixed lengths go out as one run per stretch of equal
    /// lengths, and a `UDP_GRO` receiver reads them back whole, with
    /// their segment size, in the order they were queued.
    #[test]
    fn mixed_lengths_split_into_runs_without_reordering() {
        let rx = gro_receiver();
        let mut tx = sender(&rx, 64);
        let lens = [300, 300, 200, 200, 200, 300, 120];
        let queued: Vec<Vec<u8>> =
            lens.iter().enumerate().map(|(i, &len)| tagged(i, len)).collect();
        queued.iter().for_each(|f| tx.queue(f));
        tx.flush().unwrap();
        assert_eq!((tx.sent, tx.datagrams), (7, 4));
        let (mut buf, mut runs, mut got) = (vec![0u8; 1 << 16], Vec::new(), Vec::new());
        for _ in 0..4 {
            let (n, seg) = sys::recv_run(&rx, &mut buf).unwrap();
            runs.push((n, seg));
            got.extend(buf[..n].chunks(seg).map(<[u8]>::to_vec));
        }
        assert_eq!(runs, [(600, 300), (600, 200), (300, 300), (120, 120)]);
        assert_eq!(got, queued);
    }

    /// One flush sends the queued frames and then the deferred ones,
    /// each in the order they were handed over, however the two were
    /// interleaved, and a run spans only frames of one length.
    #[test]
    fn deferred_frames_leave_after_the_queued_ones() {
        let rx = gro_receiver();
        let mut tx = sender(&rx, 64);
        let (mut queued, mut deferred) = (Vec::new(), Vec::new());
        for i in 0..12 {
            if i % 4 < 2 {
                queued.push(tagged(i, 300));
                tx.queue(&tagged(i, 300));
            } else {
                deferred.push(tagged(i, 200));
                tx.defer(&tagged(i, 200));
            }
        }
        tx.flush().unwrap();
        assert_eq!((tx.sent, tx.datagrams), (12, 2));
        let (mut buf, mut got) = (vec![0u8; 1 << 16], Vec::new());
        for _ in 0..2 {
            let (n, seg) = sys::recv_run(&rx, &mut buf).unwrap();
            got.extend(buf[..n].chunks(seg).map(<[u8]>::to_vec));
        }
        queued.extend(deferred);
        assert_eq!(got, queued);
    }

    /// A run never exceeds [`MAX_RUN_FRAMES`] frames or [`MAX_RUN_BYTES`]
    /// bytes: 70 frames of 1 000 B go out as 64 + 6, and 40 frames of
    /// 2 000 B as 32 + 8.
    #[test]
    fn runs_are_bounded_by_segments_and_bytes() {
        for (n, len, split) in [(70, 1_000, [64, 6]), (40, 2_000, [32, 8])] {
            let rx = gro_receiver();
            let mut tx = sender(&rx, 200);
            frames(n, len).iter().for_each(|f| tx.queue(f));
            tx.flush().unwrap();
            assert_eq!((tx.sent, tx.datagrams), (n as u64, 2));
            let mut buf = vec![0u8; 1 << 16];
            for frames in split {
                assert_eq!(sys::recv_run(&rx, &mut buf).unwrap(), (frames * len, len));
            }
        }
    }

    /// A run longer than the credit left goes out in parts, each as
    /// large as the credit that arrived allows and never beyond the
    /// window; every frame still arrives, in order.
    #[test]
    fn a_run_beyond_the_credit_goes_out_in_parts() {
        const WINDOW: usize = 5;
        let rx = gro_receiver();
        let mut tx = sender(&rx, WINDOW);
        let mut acks = AckSender::new(tx.ctrl_addr().unwrap(), 1).unwrap();
        let queued = frames(12, 100);
        let expect = queued.len();
        let reader = std::thread::spawn(move || {
            let (mut buf, mut got, mut runs) = (vec![0u8; 1 << 16], Vec::new(), Vec::new());
            while got.len() < expect {
                let (n, seg) = sys::recv_run(&rx, &mut buf).unwrap();
                runs.push(n / seg);
                for frame in buf[..n].chunks(seg) {
                    got.push(frame.to_vec());
                    acks.on_data().unwrap();
                }
            }
            (got, runs)
        });
        queued.iter().for_each(|f| tx.queue(f));
        tx.flush().unwrap();
        let (got, runs) = reader.join().unwrap();
        assert_eq!(got, queued);
        assert!(runs.iter().all(|&frames| frames <= WINDOW), "{runs:?}");
        assert_eq!(tx.datagrams, runs.len() as u64);
        assert!(tx.datagrams >= 3, "12 frames through a window of 5: {runs:?}");
    }

    /// A coalesced run read into a buffer shorter than the run is an
    /// error that names `MSG_TRUNC` and the run's real length, never a
    /// short read that silently loses frames.
    #[test]
    fn a_truncated_run_is_a_msg_trunc_error() {
        let rx = gro_receiver();
        let mut tx = sender(&rx, 64);
        frames(4, 100).iter().for_each(|f| tx.queue(f));
        tx.flush().unwrap();
        let err = sys::recv_run(&rx, &mut [0u8; 150]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("MSG_TRUNC") && msg.contains("400 B"), "{msg}");
    }

    /// A frame longer than [`MAX_FRAME`] is refused before it is sent:
    /// the window's receive-buffer bound does not cover it.
    #[test]
    fn frames_beyond_the_maximum_are_refused() {
        let rx = gro_receiver();
        let mut tx = sender(&rx, 64);
        let err = tx.send_data(&tagged(0, MAX_FRAME + 1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(tx.sent, 0);
        tx.send_data(&tagged(0, MAX_FRAME)).unwrap();
    }

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
            WaitStrategy::Backoff,
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
