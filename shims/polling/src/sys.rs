//! The raw syscall layer: `epoll_*` and `socket`/`connect`, declared
//! directly against the Linux C library that `std` already links (no `libc`
//! crate in the offline build environment).
//!
//! Everything `unsafe` in the shim lives here; the wrappers exposed to the
//! rest of the crate are safe and return `io::Error::last_os_error()` on
//! the C side's `-1`.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_uint, c_void};

// ---- epoll -----------------------------------------------------------

pub(crate) const EPOLL_CTL_ADD: c_int = 1;
pub(crate) const EPOLL_CTL_DEL: c_int = 2;
pub(crate) const EPOLL_CTL_MOD: c_int = 3;

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
pub(crate) const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CLOEXEC: c_int = 0o2000000;

/// The kernel ABI's `struct epoll_event`. Packed on x86-64 (the kernel
/// declares it `__attribute__((packed))` there), naturally aligned on
/// every other architecture — mirroring the C library's definition.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub(crate) struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
}

/// Creates a close-on-exec epoll instance.
pub(crate) fn epoll_create() -> io::Result<OwnedFd> {
    let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: a non-negative return from epoll_create1 is a freshly opened
    // fd this process owns exclusively.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// One `epoll_ctl` call; `event` may be `None` only for `EPOLL_CTL_DEL`.
pub(crate) fn epoll_control(
    epfd: RawFd,
    op: c_int,
    fd: RawFd,
    event: Option<EpollEvent>,
) -> io::Result<()> {
    let mut ev = event.unwrap_or(EpollEvent { events: 0, data: 0 });
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// One `epoll_wait` call into `buf`; `timeout` in milliseconds, `-1` for
/// infinite. Returns the number of ready entries.
pub(crate) fn epoll_wait_raw(
    epfd: RawFd,
    buf: &mut [EpollEvent],
    timeout: c_int,
) -> io::Result<usize> {
    let rc = unsafe { epoll_wait(epfd, buf.as_mut_ptr(), buf.len() as c_int, timeout) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

// ---- non-blocking connect --------------------------------------------

const AF_INET: c_int = 2;
const AF_INET6: c_int = 10;
const SOCK_STREAM: c_int = 1;
const SOCK_NONBLOCK: c_int = 0o4000;
const SOCK_CLOEXEC: c_int = 0o2000000;
const EINPROGRESS: i32 = 115;

#[repr(C)]
struct SockAddrIn {
    family: u16,
    /// Big-endian.
    port: u16,
    /// Big-endian.
    addr: u32,
    zero: [u8; 8],
}

#[repr(C)]
struct SockAddrIn6 {
    family: u16,
    /// Big-endian.
    port: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

extern "C" {
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: c_uint) -> c_int;
}

/// Starts a non-blocking TCP connection to `addr` and returns the socket
/// as a [`TcpStream`] whose connect may still be in progress.
///
/// The caller waits for *writable* readiness and then checks
/// [`TcpStream::take_error`] for the `SO_ERROR` verdict — the classic
/// readiness-based dial, which `std` alone cannot express (its `connect`
/// blocks and its `connect_timeout` blocks up to the timeout).
pub fn connect_stream(addr: &SocketAddr) -> io::Result<TcpStream> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => AF_INET6,
    };
    let fd = unsafe { socket(family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // SAFETY: a non-negative return from socket(2) is a fresh fd owned
    // exclusively by this process; OwnedFd closes it on every error path.
    let owned = unsafe { OwnedFd::from_raw_fd(fd) };
    let stream = TcpStream::from(owned);

    let rc = match addr {
        SocketAddr::V4(v4) => {
            let sa = SockAddrIn {
                family: AF_INET as u16,
                port: v4.port().to_be(),
                addr: u32::from_ne_bytes(v4.ip().octets()),
                zero: [0; 8],
            };
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn>() as c_uint,
                )
            }
        }
        SocketAddr::V6(v6) => {
            let sa = SockAddrIn6 {
                family: AF_INET6 as u16,
                port: v6.port().to_be(),
                flowinfo: v6.flowinfo().to_be(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            unsafe {
                connect(
                    fd,
                    (&sa as *const SockAddrIn6).cast::<c_void>(),
                    std::mem::size_of::<SockAddrIn6>() as c_uint,
                )
            }
        }
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.raw_os_error() != Some(EINPROGRESS) {
            return Err(err);
        }
    }
    Ok(stream)
}
