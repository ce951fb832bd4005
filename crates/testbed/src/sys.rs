//! The three socket calls `std::net` does not expose: `setsockopt` for
//! `UDP_SEGMENT`/`UDP_GRO`, `sendmsg` with a `UDP_SEGMENT` control
//! message, and `recvmsg` that reads the `UDP_GRO` segment size back.
//! Linux-only (UDP segmentation offload, kernel ≥ 5.0) and the crate's
//! only `unsafe` code.
//!
//! With these, one datagram carries a *run* of equal-length frames:
//! the sender hands the kernel the frames back to back plus their
//! length (`UDP_SEGMENT`), loopback carries the run through the stack
//! once, and a receiver with `UDP_GRO` on reads it back whole with the
//! segment length in a control message. A receiver without `UDP_GRO`
//! (any plain `UdpSocket`) gets the run split by the kernel into one
//! datagram per frame, so the wire format is unchanged.

use std::io;
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_void};

/// `SOL_UDP`: the option level of both UDP offload options.
const SOL_UDP: c_int = 17;
/// `UDP_SEGMENT` (`<linux/udp.h>`): send-side segment size, a `u16`.
const UDP_SEGMENT: c_int = 103;
/// `UDP_GRO` (`<linux/udp.h>`): receive coalesced runs, reporting the
/// segment size as an `int` control message.
const UDP_GRO: c_int = 104;
/// `MSG_TRUNC`: on input, return the datagram's real length; on output,
/// the datagram did not fit the buffer.
const MSG_TRUNC: c_int = 0x20;

/// `struct iovec`.
#[repr(C)]
struct IoVec {
    base: *mut c_void,
    len: usize,
}

/// `struct msghdr` (64-bit Linux layout; `repr(C)` adds the padding
/// after `namelen`).
#[repr(C)]
struct MsgHdr {
    name: *mut c_void,
    namelen: u32,
    iov: *mut IoVec,
    iovlen: usize,
    control: *mut c_void,
    controllen: usize,
    flags: c_int,
}

/// `struct cmsghdr`.
#[repr(C)]
#[derive(Default)]
struct CmsgHdr {
    len: usize,
    level: c_int,
    ty: c_int,
}

/// One control message with an `int`-sized payload, padded to
/// `CMSG_SPACE(sizeof(int))`: the `UDP_GRO` segment size on receive,
/// and (in its first two bytes) the `UDP_SEGMENT` one on send.
#[repr(C)]
#[derive(Default)]
struct Cmsg {
    hdr: CmsgHdr,
    data: [u8; 4],
    pad: [u8; 4],
}

/// `CMSG_LEN(len)`: the header plus `len` data bytes.
const fn cmsg_len(len: usize) -> usize {
    std::mem::size_of::<CmsgHdr>() + len
}

extern "C" {
    fn setsockopt(fd: c_int, level: c_int, name: c_int, val: *const c_void, len: u32) -> c_int;
    fn sendmsg(fd: c_int, msg: *const MsgHdr, flags: c_int) -> isize;
    fn recvmsg(fd: c_int, msg: *mut MsgHdr, flags: c_int) -> isize;
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the socket testbed needs 64-bit Linux: its links use UDP_SEGMENT and UDP_GRO");

/// Sets an `int` UDP option; an error names the option.
fn set_udp_option(sock: &impl AsRawFd, name: c_int, label: &str, val: c_int) -> io::Result<()> {
    // SAFETY: `val` is a live `c_int` and its exact size is passed; the
    // kernel only reads it during the call.
    let rc = unsafe {
        setsockopt(sock.as_raw_fd(), SOL_UDP, name, (&val as *const c_int).cast(), c_int::BITS / 8)
    };
    if rc == 0 {
        return Ok(());
    }
    let e = io::Error::last_os_error();
    Err(io::Error::new(e.kind(), format!("setsockopt({label}): {e} (needs Linux >= 5.0)")))
}

/// Turns on `UDP_GRO`: runs arrive whole, read by [`recv_run`].
pub(crate) fn enable_gro(sock: &impl AsRawFd) -> io::Result<()> {
    set_udp_option(sock, UDP_GRO, "UDP_GRO", 1)
}

/// Checks that the kernel accepts `UDP_SEGMENT`, which [`send_run`]
/// sets per datagram. Segment size 0 is the option's off state, so the
/// socket itself does not change.
pub(crate) fn check_gso(sock: &impl AsRawFd) -> io::Result<()> {
    set_udp_option(sock, UDP_SEGMENT, "UDP_SEGMENT", 0)
}

/// Sends `frames` — equal-length frames of `seg` bytes back to back —
/// as one `UDP_SEGMENT` datagram on a connected socket. The caller
/// bounds the run (`frames.len() / seg` ≤ 64 segments, ≤ 64 KiB). A run
/// of one frame leaves as a plain datagram, but the segment size still
/// makes the kernel build it in page fragments, which the receive
/// buffer charges less for than the linear buffer of a plain `send`
/// (see `link`'s receive-buffer argument).
pub(crate) fn send_run(sock: &impl AsRawFd, frames: &[u8], seg: u16) -> io::Result<()> {
    let mut data = [0; 4];
    data[..2].copy_from_slice(&seg.to_ne_bytes());
    let mut control = Cmsg {
        hdr: CmsgHdr { len: cmsg_len(2), level: SOL_UDP, ty: UDP_SEGMENT },
        data,
        pad: [0; 4],
    };
    let mut iov = IoVec { base: frames.as_ptr() as *mut c_void, len: frames.len() };
    let msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: (&mut control as *mut Cmsg).cast(),
        controllen: std::mem::size_of::<Cmsg>(),
        flags: 0,
    };
    // SAFETY: `msg` points at `iov`, which covers exactly `frames` (the
    // kernel only reads through it, and `frames` stays borrowed for the
    // call), and at `control`, one initialised control message of
    // `controllen` bytes; no name, so the connected peer is used.
    let sent = unsafe { sendmsg(sock.as_raw_fd(), &msg, 0) };
    if sent < 0 {
        return Err(io::Error::last_os_error());
    }
    if sent as usize != frames.len() {
        return Err(io::Error::other(format!("sent {sent} of {} run bytes", frames.len())));
    }
    Ok(())
}

/// Receives one datagram into `buf`: `(length, segment size)`, where the
/// segment size is the `UDP_GRO` control message's for a coalesced run
/// and the whole length otherwise. A datagram longer than `buf` is an
/// `InvalidData` error naming `MSG_TRUNC`, never a silent short read.
pub(crate) fn recv_run(sock: &impl AsRawFd, buf: &mut [u8]) -> io::Result<(usize, usize)> {
    let mut control = Cmsg::default();
    let mut iov = IoVec { base: buf.as_mut_ptr().cast(), len: buf.len() };
    let mut msg = MsgHdr {
        name: std::ptr::null_mut(),
        namelen: 0,
        iov: &mut iov,
        iovlen: 1,
        control: (&mut control as *mut Cmsg).cast(),
        controllen: std::mem::size_of::<Cmsg>(),
        flags: 0,
    };
    // SAFETY: `iov` covers exactly `buf` and `control` is `controllen`
    // writable bytes; both outlive the call. With `MSG_TRUNC` the kernel
    // returns the datagram's real length but still writes at most
    // `buf.len()` bytes.
    let n = unsafe { recvmsg(sock.as_raw_fd(), &mut msg, MSG_TRUNC) };
    if n < 0 {
        return Err(io::Error::last_os_error());
    }
    let n = n as usize;
    if msg.flags & MSG_TRUNC != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("datagram of {n} B truncated to a {} B buffer (MSG_TRUNC)", buf.len()),
        ));
    }
    // `UDP_GRO` is the only option that adds a control message, and it
    // adds one only to a coalesced run.
    let hdr = &control.hdr;
    let gro = msg.controllen >= cmsg_len(4)
        && hdr.len == cmsg_len(4)
        && (hdr.level, hdr.ty) == (SOL_UDP, UDP_GRO);
    let seg = if gro { c_int::from_ne_bytes(control.data) } else { 0 };
    Ok((n, usize::try_from(seg).ok().filter(|&s| s > 0).unwrap_or(n)))
}
