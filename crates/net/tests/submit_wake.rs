//! A client frame wakes a sleeping node: the engine steps on the node's one
//! thread, which sleeps in its poller between passes, so a frame arriving
//! on a client connection must be admitted at once — not at the next 25-ms
//! poll tick.
//!
//! Its own binary: the assertions are wall-clock bounds. They bound the
//! median frame and the worst one separately, so one scheduler hiccup on a
//! busy host fails neither, while frames that wait for the tick push the
//! median far past its bound.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tetrabft_engine::{Context, FrameRequest, Input, Node, Submitter, WireSize};
use tetrabft_net::ClusterBuilder;
use tetrabft_wire::{Reader, Wire, WireError, Writer};

/// How late the median admission may be stamped after `submit` returns.
const MEDIAN_BOUND: Duration = Duration::from_millis(5);

/// The idle node's poll tick: no frame may wait this long.
const POLL_TICK: Duration = Duration::from_millis(25);

#[derive(Debug, Clone, Copy)]
struct Nothing;

impl Wire for Nothing {
    fn encode(&self, _: &mut Writer) {}
    fn decode(_: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Nothing)
    }
}

impl WireSize for Nothing {
    fn wire_size(&self) -> usize {
        0
    }
}

/// A client request: one big-endian `u32` per 4-byte frame.
struct Seq(u32);

impl FrameRequest for Seq {
    fn from_frame(bytes: &[u8]) -> Option<Self> {
        Some(Seq(u32::from_be_bytes(bytes.try_into().ok()?)))
    }
}

/// Sends nothing, arms nothing; stamps every request it admits.
struct Recorder {
    accepted: Arc<Mutex<Vec<(u32, Instant)>>>,
}

impl Node for Recorder {
    type Msg = Nothing;
    type Output = ();

    fn handle(&mut self, _: Input<Nothing>, _: &mut Context<'_, Nothing, ()>) {}
}

impl Submitter for Recorder {
    type Request = Seq;
    type SubmitError = ();

    fn accept(&mut self, Seq(i): Seq) -> Result<(), ()> {
        self.accepted.lock().unwrap().push((i, Instant::now()));
        Ok(())
    }
}

#[test]
fn a_client_frame_wakes_an_idle_node_at_once() {
    let accepted = Arc::new(Mutex::new(Vec::new()));
    let ((_cluster, handles), _net) = ClusterBuilder::new(4)
        .spawn_serving(|_| Recorder { accepted: Arc::clone(&accepted) })
        .expect("cluster spawns");
    // Let the links come up; after that nothing happens on any node.
    std::thread::sleep(Duration::from_millis(100));

    let mut returned = Vec::new();
    for i in 0..20u32 {
        std::thread::sleep(Duration::from_millis(40));
        handles[0].submit(&i.to_be_bytes()).expect("node 0 is running");
        returned.push((i, Instant::now()));
    }
    std::thread::sleep(Duration::from_millis(100));

    let stamps = accepted.lock().unwrap().clone();
    assert_eq!(stamps.len(), returned.len(), "every frame is admitted");
    let mut lateness = Vec::new();
    for ((seq, stamp), (i, back)) in stamps.iter().zip(&returned) {
        assert_eq!(seq, i, "frames are admitted in order");
        lateness.push(stamp.saturating_duration_since(*back));
    }
    lateness.sort();
    let (median, worst) = (lateness[lateness.len() / 2], lateness[lateness.len() - 1]);
    assert!(median <= MEDIAN_BOUND, "the median frame was admitted {median:?} after submit");
    assert!(worst < POLL_TICK, "a frame waited {worst:?}, a whole poll tick");
}
