//! Minimal offline stand-in for the `polling` crate: Linux epoll
//! readiness polling for the reactor-based network runtime.
//!
//! The repository builds in environments without a crates.io mirror, so
//! this shim provides the small slice of a readiness API `tetrabft-net`
//! needs, in the style of smol's `polling` crate:
//!
//! * [`Poller`] — an OS readiness queue over Linux **epoll**, the one
//!   platform the runtime is built and tested on;
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
#![warn(unreachable_pub)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, OwnedFd};
use std::os::unix::net::UnixStream;
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
    /// Scratch for `epoll_wait` (reused across waits).
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
}

/// A readiness queue over an epoll instance.
///
/// Registered sources deliver at most one event per arming
/// ([`Poller::add`] / [`Poller::modify`]); [`Poller::wait`] blocks until
/// an event, a [`Poller::notify`], or the timeout.
pub struct Poller {
    ep: OwnedFd,
    /// Self-pipe: `notify` writes one byte, `wait` drains and wakes.
    notify_rx: UnixStream,
    notify_tx: UnixStream,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Poller").field("ep", &self.ep).finish_non_exhaustive()
    }
}

impl Poller {
    /// Creates a poller.
    ///
    /// # Errors
    ///
    /// The OS error of creating the epoll instance or the notifier.
    pub fn new() -> io::Result<Poller> {
        let (notify_tx, notify_rx) = UnixStream::pair()?;
        notify_tx.set_nonblocking(true)?;
        notify_rx.set_nonblocking(true)?;
        let ep = sys::epoll_create()?;
        // The notifier is level-triggered and never disarmed: a pending
        // wake must survive until the wait that drains it.
        sys::epoll_control(
            ep.as_raw_fd(),
            sys::EPOLL_CTL_ADD,
            notify_rx.as_raw_fd(),
            Some(sys::EpollEvent { events: sys::EPOLLIN, data: NOTIFY_KEY }),
        )?;
        Ok(Poller { ep, notify_rx, notify_tx })
    }

    /// Registers `source` with an initial interest. The source must stay
    /// open until [`Poller::delete`]; `ev.key` tags its deliveries.
    ///
    /// # Errors
    ///
    /// The OS error of the underlying registration call.
    pub fn add(&self, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
        self.control(sys::EPOLL_CTL_ADD, source, ev)
    }

    /// Re-arms (or changes) the interest of a registered source — the
    /// oneshot counterpart of "I have handled the last delivery".
    ///
    /// # Errors
    ///
    /// The OS error of the underlying modification call.
    pub fn modify(&self, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
        self.control(sys::EPOLL_CTL_MOD, source, ev)
    }

    fn control(&self, op: i32, source: &impl AsRawFd, ev: Event) -> io::Result<()> {
        assert!((ev.key as u64) < NOTIFY_KEY, "key {} is reserved", ev.key);
        let mut bits = sys::EPOLLONESHOT | sys::EPOLLRDHUP;
        if ev.readable {
            bits |= sys::EPOLLIN;
        }
        if ev.writable {
            bits |= sys::EPOLLOUT;
        }
        let interest = sys::EpollEvent { events: bits, data: ev.key as u64 };
        sys::epoll_control(self.ep.as_raw_fd(), op, source.as_raw_fd(), Some(interest))
    }

    /// Unregisters a source (call before closing its fd).
    ///
    /// # Errors
    ///
    /// The OS error of the underlying deregistration call.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        sys::epoll_control(self.ep.as_raw_fd(), sys::EPOLL_CTL_DEL, source.as_raw_fd(), None)
    }

    /// Blocks until at least one event, a [`Poller::notify`], or the
    /// timeout (`None` = forever). Delivered events land in `events`
    /// (cleared first); their sources are disarmed until re-armed with
    /// [`Poller::modify`]. Returns the number of delivered events — which
    /// is 0 for a pure notify wake, the "spurious wakeup" callers must
    /// tolerate, and for a timeout.
    ///
    /// # Errors
    ///
    /// The OS error of the underlying wait (EINTR is retried internally).
    pub fn wait(&self, events: &mut Events, timeout: Option<Duration>) -> io::Result<usize> {
        events.list.clear();
        events.raw.resize(WAIT_CAPACITY, sys::EpollEvent { events: 0, data: 0 });
        let deadline = timeout.map(|t| Instant::now() + t);
        let n = loop {
            let ms = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    // Round up so a 0.5 ms wait cannot spin as 0 ms.
                    left.as_millis().min(i32::MAX as u128) as i32
                        + i32::from(left.subsec_nanos() % 1_000_000 != 0)
                }
            };
            match sys::epoll_wait_raw(self.ep.as_raw_fd(), &mut events.raw, ms) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                ready => break ready?,
            }
        };
        for raw in &events.raw[..n] {
            let (bits, data) = (raw.events, raw.data);
            if data == NOTIFY_KEY {
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
        Ok(events.list.len())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_wakes_without_an_event() {
        let poller = Poller::new().unwrap();
        poller.notify().unwrap();
        let mut events = Events::new();
        let start = Instant::now();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 0, "a notify delivers no event");
        assert!(start.elapsed() < Duration::from_secs(1), "must not time out");
        // Drained: the next wait times out instead of waking again.
        let n = poller.wait(&mut events, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "notification must not persist");
    }

    #[test]
    fn notify_coalesces_from_many_threads() {
        let poller = std::sync::Arc::new(Poller::new().unwrap());
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
        assert_eq!(n, 0, "8000 notifies drain to silence");
    }

    #[test]
    fn reserved_key_is_rejected() {
        let poller = Poller::new().unwrap();
        let (_a, b) = UnixStream::pair().unwrap();
        let err = std::panic::catch_unwind(|| poller.add(&b, Event::readable(usize::MAX)));
        assert!(err.is_err(), "the notifier key is reserved");
    }
}
