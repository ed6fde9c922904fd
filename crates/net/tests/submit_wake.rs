//! An in-process submission wakes a sleeping node: the engine steps on the
//! node's one thread, which sleeps in its poller between passes, so a
//! `SubmitHandle::submit` must wake that poller — not wait for the next
//! 25-ms poll tick to be noticed.
//!
//! Its own binary: the assertion is a wall-clock bound.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tetrabft_net::ClusterBuilder;
use tetrabft_sim::{Context, Input, Node, Submitter, WireSize};
use tetrabft_wire::{Reader, Wire, WireError, Writer};

/// How late an admission may be stamped after `submit` returns.
const BOUND: Duration = Duration::from_millis(5);

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

/// Sends nothing, arms nothing; stamps every request it admits.
struct Recorder {
    accepted: Arc<Mutex<Vec<Instant>>>,
}

impl Node for Recorder {
    type Msg = Nothing;
    type Output = ();

    fn handle(&mut self, _: Input<Nothing>, _: &mut Context<'_, Nothing, ()>) {}
}

impl Submitter for Recorder {
    type Request = u32;
    type SubmitError = ();

    fn accept(&mut self, _: u32) -> Result<(), ()> {
        self.accepted.lock().unwrap().push(Instant::now());
        Ok(())
    }
}

#[test]
fn a_submission_wakes_an_idle_node_at_once() {
    let accepted = Arc::new(Mutex::new(Vec::new()));
    let ((_cluster, handles), _net) = ClusterBuilder::new(4)
        .spawn_submitting(|_| Recorder { accepted: Arc::clone(&accepted) })
        .expect("cluster spawns");
    // Let the links come up; after that nothing happens on any node.
    std::thread::sleep(Duration::from_millis(100));

    let mut returned = Vec::new();
    for i in 0..20u32 {
        std::thread::sleep(Duration::from_millis(40));
        handles[0].submit(i).expect("node 0 is running");
        returned.push(Instant::now());
    }
    std::thread::sleep(Duration::from_millis(100));

    let stamps = accepted.lock().unwrap().clone();
    assert_eq!(stamps.len(), returned.len(), "every submission is admitted");
    for (i, (stamp, back)) in stamps.iter().zip(&returned).enumerate() {
        let late = stamp.saturating_duration_since(*back);
        assert!(late <= BOUND, "submission {i} was admitted {late:?} after submit returned");
    }
}
