//! The repo benchmark: a delay-injected TCP commit path and a
//! deterministic full-stack replay. See `README.md` for the workloads,
//! every metric's definition, and how the layers map to them.

pub mod calibrate;
pub mod commits;
pub mod measure;
pub mod micro;
pub mod probe;
pub mod procfs;
pub mod replay;
pub mod replay_report;
pub mod report;
pub mod schedule;
pub mod spec;
pub mod stats;
pub mod tcp;
pub mod tcp_report;
pub mod trace_report;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tetrabft_bench::{AllocSnapshot, CountingAlloc};
use tetrabft_ledger::transfer_admission;
use tetrabft_multishot::MultiShotNode;
use tetrabft_types::{Config, NodeId};

use probe::{Probe, Traces};
use report::Outcome;
use schedule::Schedule;
use spec::{Args, Payload, Runtime, Workload, N, SETUP_REPEATS};
use tcp::{BenchNode, NodeFactory};
use trace_report::Collected;

/// Where runs keep their WAL directories and traces, relative to the
/// checkout root the benchmark is started from.
pub const OUT_DIR: &str = "benchmark/out";

/// Entry point of both binaries; the trace binary passes its counting
/// global allocator.
pub fn main(alloc: Option<&'static CountingAlloc>) -> ExitCode {
    stats::epoch();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nusage: --workload <loaded|bulk|leader_crash|replay> --seed <u64> --seconds <1..60> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, alloc) {
        Ok(outcome) => {
            for note in &outcome.notes {
                eprintln!("note: {note}");
            }
            for violation in &outcome.violations {
                eprintln!("INCORRECT: {violation}");
            }
            // The other metric group, for `spread.py --trace-check` and
            // anyone reading along; the contract's line goes to stdout.
            eprintln!("other: {}", outcome.to_json(!args.trace));
            println!("{}", outcome.to_json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark could not run: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, alloc: Option<&'static CountingAlloc>) -> Result<Outcome, String> {
    let run_dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload.name,
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("{}: {e}", run_dir.display()))?;
    let result = match args.workload.runtime {
        Runtime::Tcp if args.trace => {
            let traces = probe::new_traces();
            let probes = traces.clone();
            let w = args.workload;
            let make = move |id: NodeId, dir: &Path| {
                Probe::traced(durable_node(&w, id, dir), id, probes.clone())
            };
            run_tcp(args, &run_dir, make, Some(traces), alloc)
        }
        Runtime::Tcp => {
            let w = args.workload;
            let make = move |id: NodeId, dir: &Path| durable_node(&w, id, dir);
            run_tcp(args, &run_dir, make, None, alloc)
        }
        Runtime::Replay => run_replay(args, &run_dir, alloc),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = result?;
    if outcome.attempted == 0 {
        return Err("no transaction was due in the window: nothing was measured".into());
    }
    Ok(outcome)
}

/// A durable node of workload `w` over `dir`, as deployed.
pub(crate) fn durable_node(w: &Workload, id: NodeId, dir: &Path) -> MultiShotNode {
    let cfg = Config::new(N).expect("n = 4 is a valid configuration");
    let node = MultiShotNode::durable(cfg, w.params(), id, dir)
        .unwrap_or_else(|e| panic!("node {id}: store under {} is unusable: {e}", dir.display()));
    match w.payload {
        Payload::Transfer => node.with_admission(transfer_admission),
        Payload::Opaque(_) => node,
    }
}

/// Repeats set-up [`SETUP_REPEATS`] times, each in a directory of its own
/// under `run_dir`, and returns the last stack, its directory, and the
/// median duration: one slow disk sync or scheduler stall moves one
/// repetition, not `setup_s`.
fn repeated_setup<T>(
    mut set_up: impl FnMut(&Path) -> Result<T, String>,
    run_dir: &Path,
) -> Result<(T, PathBuf, f64), String> {
    let mut seconds = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for rep in 0..SETUP_REPEATS {
        if kept.take().is_some() {
            // Let the dropped stack's threads wind down off the clock.
            std::thread::sleep(Duration::from_millis(50));
        }
        let dir = run_dir.join(format!("setup{rep}"));
        let started = Instant::now();
        let stack = set_up(&dir)?;
        seconds.push(started.elapsed().as_secs_f64());
        kept = Some((stack, dir));
    }
    let (stack, dir) = kept.expect("SETUP_REPEATS > 0");
    Ok((stack, dir, stats::median(&mut seconds)))
}

/// Forgets what the set-up repetitions recorded — they are not part of
/// the run — and starts the allocation count.
fn start_tracing(
    traces: Option<&Traces>,
    alloc: Option<&'static CountingAlloc>,
) -> Option<AllocSnapshot> {
    if let Some(traces) = traces {
        drop(Collected::take(traces));
    }
    alloc.map(CountingAlloc::snapshot)
}

fn run_tcp<N: BenchNode>(
    args: &Args,
    run_dir: &Path,
    make: impl Fn(NodeId, &Path) -> N + Send + Sync + 'static,
    traces: Option<Traces>,
    alloc: Option<&'static CountingAlloc>,
) -> Result<Outcome, String> {
    let w = args.workload;
    let schedule = Arc::new(Schedule::generate(&w, args.seed, args.seconds));
    let make: Arc<NodeFactory<N>> = Arc::new(make);
    let (stack, dir, setup_s) = repeated_setup(|dir| tcp::set_up(&w, dir, &*make), run_dir)?;
    let genesis = stack.replicas.first().map(|r| r.ledger().clone());
    let allocs_before = start_tracing(traces.as_ref(), alloc);
    let observed = tcp::run(&w, stack, &schedule, &dir, make)?;
    let allocs = allocs_before.zip(alloc.map(CountingAlloc::snapshot));

    let mut out = Outcome::default();
    tcp_report::report(&mut out, &w, &schedule, &observed, &dir);
    out.set("setup_s", setup_s);
    if let Some(traces) = &traces {
        let traced = Collected::take(traces);
        tcp_report::probe_counts(&mut out, &observed, &traced);
        trace_report::report(
            &mut out,
            &w,
            &schedule,
            &observed.exec.commits,
            &traced,
            observed.load_start_ns,
            Some(&observed.load.sent_ns),
            allocs,
        );
        let (msgs, blocks) = traced.samples();
        micro::timed_calls(&mut out, &w, &schedule, &msgs, blocks, genesis.as_ref(), &dir);
    }
    Ok(out)
}

fn run_replay(
    args: &Args,
    run_dir: &Path,
    alloc: Option<&'static CountingAlloc>,
) -> Result<Outcome, String> {
    let w = args.workload;
    let schedule = Arc::new(Schedule::generate(&w, args.seed, args.seconds));
    let traces = args.trace.then(probe::new_traces);
    let (stack, dir, setup_s) = repeated_setup(
        |dir| replay::set_up(&w, args.seed, dir, &schedule, traces.as_ref()),
        run_dir,
    )?;
    let genesis = stack.genesis();
    let allocs_before = start_tracing(traces.as_ref(), alloc);
    let observed = replay::run(stack, &schedule);
    let allocs = allocs_before.zip(alloc.map(CountingAlloc::snapshot));

    let mut out = Outcome::default();
    replay_report::report(&mut out, &schedule, &observed, &dir);
    out.set("setup_s", setup_s);
    if let Some(traces) = &traces {
        let traced = Collected::take(traces);
        // One thread: the probes' own timers are the engine's CPU.
        out.set(
            "engine.cpu_us_per_tx",
            stats::ratio(traced.sum(|n| n.handle_ns) as f64 / 1e3, schedule.len() as f64),
        );
        trace_report::report(
            &mut out,
            &w,
            &schedule,
            &observed.commits,
            &traced,
            probe::REPLAY_ORIGIN_MS * 1_000_000,
            None,
            allocs,
        );
        let (msgs, blocks) = traced.samples();
        micro::timed_calls(&mut out, &w, &schedule, &msgs, blocks, Some(&genesis), &dir);
    }
    Ok(out)
}
