//! Readiness edge cases for the polling shim: spurious wakeups, EAGAIN
//! mid-frame writes, half-close, and oneshot re-arm — the exact cases the
//! reactor's correctness leans on.

use polling::{Event, Events, Poller};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// A connected nonblocking local TCP pair.
fn tcp_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let a = TcpStream::connect(addr).unwrap();
    let (b, _) = listener.accept().unwrap();
    a.set_nonblocking(true).unwrap();
    b.set_nonblocking(true).unwrap();
    (a, b)
}

fn wait(poller: &Poller, events: &mut Events, timeout: Duration) -> Vec<Event> {
    poller.wait(events, Some(timeout)).unwrap();
    events.iter().collect()
}

#[test]
fn spurious_wakeup_reports_no_events_and_loop_survives() {
    let poller = &Poller::new().unwrap();
    let (_a, b) = tcp_pair();
    poller.add(&b, Event::readable(1)).unwrap();

    // A notify with no I/O pending is exactly a spurious wakeup: wait
    // returns early with zero events, and the caller's loop must simply
    // go around again.
    poller.notify().unwrap();
    let mut events = Events::new();
    let start = Instant::now();
    let got = wait(poller, &mut events, Duration::from_secs(5));
    assert!(got.is_empty(), "spurious wakeup must deliver no events");
    assert!(start.elapsed() < Duration::from_secs(1), "must wake early");

    // The socket's interest is untouched by the spurious wakeup: data
    // arriving afterwards is still delivered.
    (&_a).write_all(b"ping").unwrap();
    let got = wait(poller, &mut events, Duration::from_secs(5));
    assert_eq!(got.len(), 1, "real readiness after spurious wake");
    assert_eq!(got[0].key, 1);
    assert!(got[0].readable);
    poller.delete(&b).unwrap();
}

#[test]
fn eagain_mid_frame_write_then_writable_again() {
    let poller = &Poller::new().unwrap();
    let (a, b) = tcp_pair();

    // Fill the send buffer until a mid-"frame" write hits EAGAIN, like
    // the reactor flushing a frame into a congested peer socket.
    let chunk = vec![0xABu8; 64 * 1024];
    let mut sent = 0usize;
    let stalled = loop {
        match (&a).write(&chunk) {
            Ok(n) => sent += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
            Err(e) => panic!("unexpected write error: {e}"),
        }
        if sent > 512 * 1024 * 1024 {
            break false; // absurdly large buffers; cannot happen locally
        }
    };
    assert!(stalled, "expected the send buffer to fill");

    // Blocked writer: arm write interest; nothing may fire while the
    // peer has not drained.
    poller.add(&a, Event::writable(7)).unwrap();
    let mut events = Events::new();
    let got = wait(poller, &mut events, Duration::from_millis(100));
    assert!(got.is_empty(), "no writable while the buffer is full");

    // Drain on the peer side until the writer is reported writable and
    // the rest of the "frame" goes through.
    let mut drain = vec![0u8; 256 * 1024];
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut writable = false;
    while Instant::now() < deadline {
        loop {
            match (&b).read(&mut drain) {
                Ok(0) => panic!("peer closed unexpectedly"),
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
        let got = wait(poller, &mut events, Duration::from_millis(50));
        if got.iter().any(|ev| ev.key == 7 && ev.writable) {
            writable = true;
            break;
        }
        // Oneshot: if anything else fired, re-arm and keep draining.
        poller.modify(&a, Event::writable(7)).unwrap();
    }
    assert!(writable, "writable readiness after the peer drained");
    let n = (&a).write(&chunk).expect("write resumes after EAGAIN");
    assert!(n > 0, "resumed write makes progress");
    poller.delete(&a).unwrap();
}

#[test]
fn half_close_is_reported_as_readable_eof() {
    let poller = &Poller::new().unwrap();
    let (a, b) = tcp_pair();
    poller.add(&b, Event::readable(3)).unwrap();

    // Peer half-closes its write side: the registered socket must wake
    // readable, and the read must observe EOF (Ok(0)).
    a.shutdown(std::net::Shutdown::Write).unwrap();
    let mut events = Events::new();
    let got = wait(poller, &mut events, Duration::from_secs(5));
    assert_eq!(got.len(), 1, "half-close wakes the reader");
    assert_eq!(got[0].key, 3);
    assert!(got[0].readable, "half-close surfaces as readability");
    let mut buf = [0u8; 16];
    assert_eq!((&b).read(&mut buf).unwrap(), 0, "read sees EOF");

    // The other direction stays usable after the half-close.
    (&b).write_all(b"still-open").unwrap();
    let mut back = [0u8; 10];
    let mut a_blocking = a;
    a_blocking.set_nonblocking(false).unwrap();
    a_blocking.read_exact(&mut back).unwrap();
    assert_eq!(&back, b"still-open");
    poller.delete(&b).unwrap();
}

#[test]
fn oneshot_delivery_disarms_until_rearmed() {
    let poller = &Poller::new().unwrap();
    let (a, b) = tcp_pair();
    poller.add(&b, Event::readable(9)).unwrap();
    (&a).write_all(b"first").unwrap();

    let mut events = Events::new();
    let got = wait(poller, &mut events, Duration::from_secs(5));
    assert_eq!(got.len(), 1, "first delivery");
    assert!(got[0].readable);

    // The data is deliberately NOT drained. Oneshot means the source is
    // disarmed after the delivery: a still-readable socket must not fire
    // again until re-armed — this is what stops a busy loop.
    let got = wait(poller, &mut events, Duration::from_millis(100));
    assert!(got.is_empty(), "no redelivery before re-arm");

    poller.modify(&b, Event::readable(9)).unwrap();
    let got = wait(poller, &mut events, Duration::from_secs(5));
    assert_eq!(got.len(), 1, "re-arm redelivers the level condition");
    assert!(got[0].readable);

    // Re-arm with no interest parks the source entirely.
    poller.modify(&b, Event::none(9)).unwrap();
    let got = wait(poller, &mut events, Duration::from_millis(100));
    assert!(got.is_empty(), "Event::none() disarms");
    poller.delete(&b).unwrap();
}

#[test]
fn delete_stops_all_deliveries() {
    let poller = &Poller::new().unwrap();
    let (a, b) = tcp_pair();
    poller.add(&b, Event::readable(4)).unwrap();
    poller.delete(&b).unwrap();
    (&a).write_all(b"late").unwrap();
    let mut events = Events::new();
    let got = wait(poller, &mut events, Duration::from_millis(100));
    assert!(got.is_empty(), "deleted sources never fire");
}

#[test]
fn two_sources_deliver_with_their_own_keys() {
    let poller = &Poller::new().unwrap();
    let (a1, b1) = tcp_pair();
    let (a2, b2) = tcp_pair();
    poller.add(&b1, Event::readable(11)).unwrap();
    poller.add(&b2, Event::readable(22)).unwrap();
    (&a1).write_all(b"one").unwrap();
    (&a2).write_all(b"two").unwrap();

    let mut events = Events::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut seen = Vec::new();
    while seen.len() < 2 && Instant::now() < deadline {
        for ev in wait(poller, &mut events, Duration::from_millis(200)) {
            seen.push(ev.key);
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, vec![11, 22], "both sources, correct keys");
    poller.delete(&b1).unwrap();
    poller.delete(&b2).unwrap();
}

#[test]
fn nonblocking_connect_success_and_refusal() {
    let poller = &Poller::new().unwrap();
    // Success path: dial a live listener, wait writable, SO_ERROR clean.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stream = polling::os::connect_stream(&addr).unwrap();
    poller.add(&stream, Event::writable(1)).unwrap();
    let mut events = Events::new();
    let got = wait(poller, &mut events, Duration::from_secs(5));
    assert!(got.iter().any(|ev| ev.key == 1 && ev.writable), "pending connect becomes writable");
    assert!(stream.take_error().unwrap().is_none(), "SO_ERROR clean");
    poller.delete(&stream).unwrap();

    // Refusal path: dial a port nobody listens on; readiness fires and
    // SO_ERROR (or the first write) reports the refusal.
    drop(listener);
    let stream = match polling::os::connect_stream(&addr) {
        Ok(s) => s,
        // Localhost refusals may complete synchronously inside connect().
        Err(e) => {
            assert_eq!(e.kind(), ErrorKind::ConnectionRefused);
            return;
        }
    };
    poller.add(&stream, Event::all(2)).unwrap();
    let got = wait(poller, &mut events, Duration::from_secs(5));
    assert!(!got.is_empty(), "refused connect wakes the poller");
    let verdict = stream.take_error().unwrap();
    assert!(verdict.is_some(), "SO_ERROR reports the refusal");
    poller.delete(&stream).unwrap();
}
