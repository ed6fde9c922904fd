//! Minimal offline stand-in for the `polling` crate: portable readiness
//! polling for the reactor-based network runtime.
//!
//! The repository builds in environments without a crates.io mirror, so
//! this shim provides the small slice of a readiness API `tetrabft-net`
//! needs, in the style of smol's `polling` crate:
//!
//! * [`Poller`] — an OS readiness queue: **epoll** on Linux, with a
//!   portable **`poll(2)`** fallback on other Unixes
//!   ([`Poller::with_backend`] picks either, so the readiness tests run
//!   every case against both on one machine);
//! * **oneshot semantics** — an event delivery disarms the source's
//!   interest until it is re-armed with [`Poller::modify`], so a level
//!   condition (readable socket nobody drained) can never spin the loop;
//! * [`Poller::notify`] — a cross-thread waker (self-pipe) that makes
//!   [`Poller::wait`] return without reporting an event;
//! * [`os`] — the syscall helper `std` cannot express: a genuinely
//!   non-blocking `connect`.
//!
//! # Examples
//!
//! ```
//! use polling::{Event, Events, Poller};
//! use std::io::Write;
//!
//! let poller = Poller::new().unwrap();
//! let (mut a, b) = std::os::unix::net::UnixStream::pair().unwrap();
//! b.set_nonblocking(true).unwrap();
//! poller.add(&b, Event::readable(7)).unwrap();
//! a.write_all(b"x").unwrap();
//! let mut events = Events::new();
//! poller.wait(&mut events, Some(std::time::Duration::from_secs(1))).unwrap();
//! let got: Vec<_> = events.iter().collect();
//! assert_eq!(got.len(), 1);
//! assert!(got[0].readable && got[0].key == 7);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

mod sys;

/// The syscall helper that rounds out `std`'s socket API for
/// readiness-based runtimes.
pub mod os {
    pub use crate::sys::connect_stream;
}

/// The key reserved for the poller's internal notifier; user keys must be
/// smaller.
const NOTIFY_KEY: u64 = u64::MAX;

/// Interest in (or readiness of) one registered source, tagged with the
/// caller's `key`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen tag identifying the source.
    pub key: usize,
    /// Interested in / ready for reading. Errors and hang-ups surface as
    /// readability (the next `read` reports them).
    pub readable: bool,
    /// Interested in / ready for writing. Errors also surface here so a
    /// pending non-blocking `connect` learns its fate.
    pub writable: bool,
}

impl Event {
    /// Read interest only.
    pub fn readable(key: usize) -> Event {
        Event { key, readable: true, writable: false }
    }

    /// Write interest only.
    pub fn writable(key: usize) -> Event {
        Event { key, readable: false, writable: true }
    }

    /// Read and write interest.
    pub fn all(key: usize) -> Event {
        Event { key, readable: true, writable: true }
    }

    /// No interest — keeps the source registered but disarmed.
    pub fn none(key: usize) -> Event {
        Event { key, readable: false, writable: false }
    }
}

/// A reusable buffer of delivered [`Event`]s.
#[derive(Default)]
pub struct Events {
    list: Vec<Event>,
    /// Scratch for the epoll backend (reused across waits).
    raw: Vec<sys::EpollEvent>,
}

impl std::fmt::Debug for Events {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.list.iter()).finish()
    }
}

/// How many kernel events one wait can deliver; more simply arrive on the
/// next wait.
const WAIT_CAPACITY: usize = 1024;

impl Events {
    /// An empty, reusable event buffer.
    pub fn new() -> Events {
        Events { list: Vec::with_capacity(WAIT_CAPACITY), raw: Vec::new() }
    }

    /// Iterates the events delivered by the last [`Poller::wait`].
    pub fn iter(&self) -> impl Iterator<Item = Event> + '_ {
        self.list.iter().copied()
    }

    /// Number of delivered events.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// `true` if the last wait delivered nothing.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// Which OS mechanism a [`Poller`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Linux `epoll` with `EPOLLONESHOT`.
    Epoll,
    /// Portable `poll(2)`; oneshot is emulated by the shim.
    Poll,
}

#[derive(Debug, Clone, Copy)]
struct Reg {
    key: usize,
    readable: bool,
    writable: bool,
}

enum BackendImpl {
    Epoll { ep: std::os::fd::OwnedFd },
    Poll { regs: Mutex<HashMap<RawFd, Reg>> },
}

/// A readiness queue over one of the [`Backend`]s.
///
/// Registered sources deliver at most one event per arming
/// ([`Poller::add`] / [`Poller::modify`]); [`Poller::wait`] blocks until
/// an event, a [`Poller::notify`], or the timeout.
pub struct Poller {
    backend: BackendImpl,
    /// Self-pipe: `notify` writes one byte, `wait` drains and wakes.
    notify_rx: UnixStream,
    notify_tx: UnixStream,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("backend", &self.backend()).finish_non_exhaustive()
    }
}

impl Poller {
    /// Creates a poller on the platform's best backend: epoll on Linux,
    /// `poll(2)` elsewhere.
    pub fn new() -> io::Result<Poller> {
        let backend = if cfg!(target_os = "linux") { Backend::Epoll } else { Backend::Poll };
        Poller::with_backend(backend)
    }

    /// Creates a poller on an explicit backend (the readiness test suite
    /// runs every case against both).
    pub fn with_backend(backend: Backend) -> io::Result<Poller> {
        let (notify_tx, notify_rx) = UnixStream::pair()?;
        notify_tx.set_nonblocking(true)?;
        notify_rx.set_nonblocking(true)?;
        let backend = match backend {
            Backend::Epoll => {
                let ep = sys::epoll_create()?;
                // The notifier is level-triggered and never disarmed: a
                // pending wake must survive until the wait that drains it.
                sys::epoll_control(
                    ep.as_raw_fd(),
                    sys::EPOLL_CTL_ADD,
                    notify_rx.as_raw_fd(),
                    Some(sys::EpollEvent { events: sys::EPOLLIN, data: NOTIFY_KEY }),
                )?;
                BackendImpl::Epoll { ep }
            }
            Backend::Poll => BackendImpl::Poll { regs: Mutex::new(HashMap::new()) },
        };
        Ok(Poller { backend, notify_rx, notify_tx })
    }

    /// The backend this poller runs on.
    pub fn backend(&self) -> Backend {
        match self.backend {
            BackendImpl::Epoll { .. } => Backend::Epoll,
            BackendImpl::Poll { .. } => Backend::Poll,
        }
    }

    /// Registers `source` with an initial interest. The source must stay
    /// open until [`Poller::delete`]; `ev.key` tags its deliveries.
    ///
    /// # Errors
    ///
    /// The OS error of the underlying registration call.
    pub fn add(&self, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
        assert!((ev.key as u64) < NOTIFY_KEY, "key {} is reserved", ev.key);
        match &self.backend {
            BackendImpl::Epoll { ep } => sys::epoll_control(
                ep.as_raw_fd(),
                sys::EPOLL_CTL_ADD,
                source.as_raw_fd(),
                Some(epoll_interest(ev)),
            ),
            BackendImpl::Poll { regs } => {
                let mut regs = regs.lock().expect("poller lock");
                regs.insert(
                    source.as_raw_fd(),
                    Reg { key: ev.key, readable: ev.readable, writable: ev.writable },
                );
                Ok(())
            }
        }
    }

    /// Re-arms (or changes) the interest of a registered source — the
    /// oneshot counterpart of "I have handled the last delivery".
    ///
    /// # Errors
    ///
    /// The OS error of the underlying modification call.
    pub fn modify(&self, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
        assert!((ev.key as u64) < NOTIFY_KEY, "key {} is reserved", ev.key);
        match &self.backend {
            BackendImpl::Epoll { ep } => sys::epoll_control(
                ep.as_raw_fd(),
                sys::EPOLL_CTL_MOD,
                source.as_raw_fd(),
                Some(epoll_interest(ev)),
            ),
            BackendImpl::Poll { regs } => {
                let mut regs = regs.lock().expect("poller lock");
                match regs.get_mut(&source.as_raw_fd()) {
                    Some(reg) => {
                        *reg = Reg { key: ev.key, readable: ev.readable, writable: ev.writable };
                        Ok(())
                    }
                    None => Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        "modify of an unregistered source",
                    )),
                }
            }
        }
    }

    /// Unregisters a source (call before closing its fd).
    ///
    /// # Errors
    ///
    /// The OS error of the underlying deregistration call.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        match &self.backend {
            BackendImpl::Epoll { ep } => {
                sys::epoll_control(ep.as_raw_fd(), sys::EPOLL_CTL_DEL, source.as_raw_fd(), None)
            }
            BackendImpl::Poll { regs } => {
                regs.lock().expect("poller lock").remove(&source.as_raw_fd());
                Ok(())
            }
        }
    }

    /// Blocks until at least one event, a [`Poller::notify`], or the
    /// timeout (`None` = forever). Delivered events land in `events`
    /// (cleared first); their sources are disarmed until re-armed with
    /// [`Poller::modify`]. Returns the number of delivered events — which
    /// is 0 for a pure notify wake, the "spurious wakeup" callers must
    /// tolerate.
    ///
    /// # Errors
    ///
    /// The OS error of the underlying wait (EINTR is retried internally).
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.list.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let ms = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    // Round up so a 0.5 ms wait cannot spin as 0 ms.
                    left.as_millis().min(i32::MAX as u128) as i32
                        + i32::from(left.subsec_nanos() % 1_000_000 != 0)
                }
            };
            let res = match &self.backend {
                BackendImpl::Epoll { ep } => self.wait_epoll(ep.as_raw_fd(), events, ms),
                BackendImpl::Poll { regs } => self.wait_poll(regs, events, ms),
            };
            match res {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
                Ok(woke) => {
                    // Wake on: delivered events, an explicit notify, or an
                    // expired deadline. A pure EINTR-free wake with neither
                    // (possible under poll when only the notifier fired
                    // mid-drain) retries until the deadline.
                    if !events.list.is_empty()
                        || woke
                        || deadline.is_some_and(|d| Instant::now() >= d)
                    {
                        return Ok(events.list.len());
                    }
                }
            }
        }
    }

    fn wait_epoll(&self, ep: RawFd, events: &mut Events, ms: i32) -> io::Result<bool> {
        events.raw.resize(WAIT_CAPACITY, sys::EpollEvent { events: 0, data: 0 });
        let n = sys::epoll_wait_raw(ep, &mut events.raw, ms)?;
        let mut notified = false;
        for raw in &events.raw[..n] {
            let (bits, data) = (raw.events, raw.data);
            if data == NOTIFY_KEY {
                notified = true;
                self.drain_notifications();
                continue;
            }
            let readable =
                bits & (sys::EPOLLIN | sys::EPOLLHUP | sys::EPOLLERR | sys::EPOLLRDHUP) != 0;
            let writable = bits & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0;
            if readable || writable {
                events.list.push(Event { key: data as usize, readable, writable });
            }
        }
        Ok(notified)
    }

    fn wait_poll(
        &self,
        regs: &Mutex<HashMap<RawFd, Reg>>,
        events: &mut Events,
        ms: i32,
    ) -> io::Result<bool> {
        // The registration table stays locked across the syscall: only the
        // owning reactor thread registers, so this never contends (notify
        // does not touch the table).
        let mut regs = regs.lock().expect("poller lock");
        let mut fds = Vec::with_capacity(regs.len() + 1);
        fds.push(sys::PollFd { fd: self.notify_rx.as_raw_fd(), events: sys::POLLIN, revents: 0 });
        let mut keys = Vec::with_capacity(regs.len());
        for (fd, reg) in regs.iter() {
            let mut interest = 0;
            if reg.readable {
                interest |= sys::POLLIN | sys::POLLRDHUP;
            }
            if reg.writable {
                interest |= sys::POLLOUT;
            }
            if interest != 0 {
                fds.push(sys::PollFd { fd: *fd, events: interest, revents: 0 });
                keys.push(*fd);
            }
        }
        sys::poll_raw(&mut fds, ms)?;
        let mut notified = false;
        if fds[0].revents != 0 {
            notified = true;
            self.drain_notifications();
        }
        for (slot, fd) in fds[1..].iter().zip(keys) {
            if slot.revents == 0 {
                continue;
            }
            let err = slot.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0;
            let readable = slot.revents & (sys::POLLIN | sys::POLLRDHUP) != 0 || err;
            let writable = slot.revents & sys::POLLOUT != 0 || err;
            if let Some(reg) = regs.get_mut(&fd) {
                // Emulated oneshot: a delivery disarms the source entirely,
                // exactly like EPOLLONESHOT.
                reg.readable = false;
                reg.writable = false;
                events.list.push(Event { key: reg.key, readable, writable });
            }
        }
        Ok(notified)
    }

    fn drain_notifications(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.notify_rx).read(&mut buf), Ok(n) if n > 0) {}
    }

    /// Wakes a concurrent (or the next) [`Poller::wait`] without
    /// delivering an event. Callable from any thread; coalesces.
    ///
    /// # Errors
    ///
    /// The OS error of the self-pipe write (a full pipe is *not* an
    /// error — a wake is already pending).
    pub fn notify(&self) -> io::Result<()> {
        match (&self.notify_tx).write(&[1]) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

fn epoll_interest(ev: Event) -> sys::EpollEvent {
    let mut bits = sys::EPOLLONESHOT | sys::EPOLLRDHUP;
    if ev.readable {
        bits |= sys::EPOLLIN;
    }
    if ev.writable {
        bits |= sys::EPOLLOUT;
    }
    sys::EpollEvent { events: bits, data: ev.key as u64 }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_wakes_without_an_event() {
        for backend in [Backend::Epoll, Backend::Poll] {
            let poller = Poller::with_backend(backend).unwrap();
            poller.notify().unwrap();
            let mut events = Events::new();
            let start = Instant::now();
            let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 0, "{backend:?}: a notify delivers no event");
            assert!(start.elapsed() < Duration::from_secs(1), "{backend:?}: must not time out");
            // Drained: the next wait times out instead of waking again.
            let n = poller.wait(&mut events, Some(Duration::from_millis(30))).unwrap();
            assert_eq!(n, 0, "{backend:?}: notification must not persist");
        }
    }

    #[test]
    fn notify_coalesces_from_many_threads() {
        for backend in [Backend::Epoll, Backend::Poll] {
            let poller = std::sync::Arc::new(Poller::with_backend(backend).unwrap());
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    let p = std::sync::Arc::clone(&poller);
                    std::thread::spawn(move || {
                        for _ in 0..1000 {
                            p.notify().unwrap();
                        }
                    })
                })
                .collect();
            for t in threads {
                t.join().unwrap();
            }
            let mut events = Events::new();
            poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
            let n = poller.wait(&mut events, Some(Duration::from_millis(50))).unwrap();
            assert_eq!(n, 0, "{backend:?}: 8000 notifies drain to silence");
        }
    }

    #[test]
    fn reserved_key_is_rejected() {
        let poller = Poller::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        let err = std::panic::catch_unwind(|| poller.add(&b, Event::readable(usize::MAX)));
        assert!(err.is_err(), "the notifier key is reserved");
    }
}
