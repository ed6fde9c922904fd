//! The TCP runner: four durable nodes on real sockets with δ injected on
//! every link, one sender thread and one drain thread as the whole load
//! generator, one `exec` thread folding every node's finalized stream
//! into its `LedgerReplica`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tetrabft_engine::Submitter;
use tetrabft_ledger::LedgerReplica;
use tetrabft_multishot::{Finalized, MsMessage, Tx};
use tetrabft_net::{Cluster, ClusterBuilder, NetControl, NetStats, CLIENT_HELLO_ID};
use tetrabft_types::NodeId;

use crate::calibrate::{Passes, Reference};
use crate::commits::Commits;
use crate::procfs::{self, ProcessSample};
use crate::schedule::{genesis, Schedule};
use crate::spec::{
    link_plan, FaultPlan, Workload, CLIENT_NODES, COMMIT_DEADLINE, CRASH_NODE, N, SLICES,
};
use crate::stats::{now_ns, ns_of};

/// How often the sampling thread times a reference pass inside the window.
const PASS_EVERY: Duration = Duration::from_millis(25);

/// Any node the cluster can serve: `MultiShotNode` itself, or the tracing
/// probe around it.
pub trait BenchNode:
    Submitter<Msg = MsMessage, Output = Finalized, Request = Tx> + Send + 'static
{
}
impl<T> BenchNode for T where
    T: Submitter<Msg = MsMessage, Output = Finalized, Request = Tx> + Send + 'static
{
}

/// Builds the node for a slot of the cluster from its id and WAL directory;
/// called once per node at spawn and again when a killed node restarts.
pub type NodeFactory<N> = dyn Fn(NodeId, &Path) -> N + Send + Sync;

/// A running stack, up to the point where load can start.
pub struct Stack {
    pub cluster: Cluster<Finalized>,
    pub control: NetControl,
    pub clients: [TcpStream; 2],
    /// One per node on ledger workloads, else empty.
    pub replicas: Vec<LedgerReplica>,
    /// Outputs the health barrier consumed; they still belong to the run.
    pub backlog: Vec<(NodeId, Finalized, u64)>,
}

/// WAL directory of `node` under `run_dir`.
pub fn node_dir(run_dir: &Path, node: NodeId) -> PathBuf {
    run_dir.join(format!("node{}", node.0))
}

/// Brings the whole stack up — genesis on every replica, fresh WAL dirs,
/// cluster, client connections — and returns once every node has
/// finalized a block (the barrier is an event, not a sleep tick).
pub fn set_up<N: BenchNode>(
    w: &Workload,
    run_dir: &Path,
    make: &NodeFactory<N>,
) -> Result<Stack, String> {
    let replicas: Vec<LedgerReplica> = if w.ledger() {
        (0..N).map(|_| LedgerReplica::new(genesis())).collect()
    } else {
        Vec::new()
    };
    let _ = std::fs::remove_dir_all(run_dir);
    let ((mut cluster, _handles), control) = ClusterBuilder::new(N)
        .plan(link_plan())
        .spawn_serving(|id| make(id, &node_dir(run_dir, id)))
        .map_err(|e| format!("cluster spawn: {e}"))?;

    let dial = |node: NodeId| -> std::io::Result<TcpStream> {
        let mut stream = TcpStream::connect(cluster.topology().addr(node))?;
        stream.set_nodelay(true)?;
        let mut hello = [0u8; 10];
        hello[..2].copy_from_slice(&CLIENT_HELLO_ID.to_be_bytes());
        stream.write_all(&hello)?;
        let mut ack = [0u8; 8];
        stream.read_exact(&mut ack)?;
        Ok(stream)
    };
    let clients = [
        dial(CLIENT_NODES[0]).map_err(|e| format!("dial: {e}"))?,
        dial(CLIENT_NODES[1]).map_err(|e| format!("dial: {e}"))?,
    ];

    let mut backlog = Vec::new();
    let mut live = [false; N];
    let cap = Instant::now() + Duration::from_secs(30);
    while live.iter().any(|l| !l) {
        if Instant::now() > cap {
            return Err("nodes did not all finalize within 30 s of spawning".into());
        }
        if let Some((node, fin)) = cluster.next_output_timeout(Duration::from_secs(1)) {
            live[node.index()] = true;
            backlog.push((node, fin, now_ns()));
        }
    }
    Ok(Stack { cluster, control, clients, replicas, backlog })
}

/// What the load generator's own threads report.
pub struct LoadReport {
    /// When each transaction's bytes were handed to the socket, ns after
    /// load start.
    pub sent_ns: Vec<u64>,
    pub sender_tid: u32,
    pub drain_tid: u32,
    /// Executes finalized blocks: its CPU counts as the system's.
    pub exec_tid: u32,
    /// Samples counters and runs the reference passes: counts as neither.
    pub main_tid: u32,
}

/// What the `exec` thread reports.
pub struct ExecReport {
    pub commits: Commits,
    pub replicas: Vec<LedgerReplica>,
    /// `(start, end)` of every `LedgerReplica::push`, run clock.
    pub exec_spans: Vec<(u64, u64)>,
}

/// Fault actions as they actually happened, run clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultLog {
    pub killed_ns: Option<u64>,
    pub restarted_ns: Option<u64>,
}

/// Counters sampled at every slice boundary of the window: the first
/// mark is window open, the last window close.
pub struct WindowSamples {
    /// `(instant on the run clock, every thread's counters then)`.
    pub marks: Vec<(u64, ProcessSample)>,
    /// The reference passes the sampling (main) thread ran between marks.
    pub passes: Passes,
    pub net_open: NetStats,
    pub net_close: NetStats,
}

impl WindowSamples {
    pub fn open_ns(&self) -> u64 {
        self.marks[0].0
    }

    pub fn close_ns(&self) -> u64 {
        self.marks[self.marks.len() - 1].0
    }

    /// Per-thread growth over the whole window.
    pub fn used(&self) -> ProcessSample {
        self.marks[self.marks.len() - 1].1.since(&self.marks[0].1)
    }
}

/// Everything one TCP run observed.
pub struct TcpRun {
    pub load_start_ns: u64,
    pub load: LoadReport,
    pub exec: ExecReport,
    pub faults: FaultLog,
    pub window: WindowSamples,
}

/// Offers the schedule to `stack` and observes the run to its end: every
/// scheduled transaction committed, or the commit deadline past the last
/// due instant.
pub fn run<N: BenchNode>(
    w: &Workload,
    stack: Stack,
    schedule: &Arc<Schedule>,
    run_dir: &Path,
    make: Arc<NodeFactory<N>>,
) -> Result<TcpRun, String> {
    let Stack { cluster, control, clients, replicas, backlog } = stack;
    let mut reference = Reference::new();
    let load_start = Instant::now() + Duration::from_millis(20);
    let load_start_ns = ns_of(load_start);
    let open = load_start + Duration::from_nanos(schedule.warmup_ns);
    let close = open + Duration::from_nanos(schedule.window_ns);
    let fault = w.fault_plan(Duration::from_nanos(schedule.window_ns));

    let stop = Arc::new(AtomicBool::new(false));
    let committed = Arc::new(AtomicUsize::new(0));
    let cpu = Arc::new(Mutex::new(ProcessSample::default()));
    let (sender_tid, drain_tid, exec_tid) =
        (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
    let (fin_tx, fin_rx) = mpsc::channel::<(NodeId, Finalized, u64)>();
    for item in backlog {
        let _ = fin_tx.send(item);
    }

    let exec = {
        let mut commits = Commits::new(schedule, load_start_ns);
        let (committed, tid) = (Arc::clone(&committed), Arc::clone(&exec_tid));
        let mut replicas = replicas;
        thread::Builder::new().name("exec".into()).spawn(move || {
            tid.store(procfs::current_tid(), Ordering::Relaxed);
            let mut exec_spans = Vec::new();
            for (node, fin, seen_ns) in fin_rx {
                let done_ns = match replicas.get_mut(node.index()) {
                    Some(replica) => {
                        let start = now_ns();
                        replica.push(0, &fin);
                        let end = now_ns();
                        exec_spans.push((start, end));
                        end
                    }
                    None => seen_ns,
                };
                commits.observe(node, &fin, seen_ns, done_ns);
                committed.store(commits.committed, Ordering::Relaxed);
            }
            ExecReport { commits, replicas, exec_spans }
        })
    }
    .map_err(|e| format!("spawn exec: {e}"))?;

    let drain = {
        let (stop, cpu, tid) = (Arc::clone(&stop), Arc::clone(&cpu), Arc::clone(&drain_tid));
        let run_dir = run_dir.to_path_buf();
        thread::Builder::new().name("drain".into()).spawn(move || {
            tid.store(procfs::current_tid(), Ordering::Relaxed);
            drain_loop(cluster, &fin_tx, &stop, fault.map(|f| (open, f)), &cpu, &run_dir, &*make)
        })
    }
    .map_err(|e| format!("spawn drain: {e}"))?;

    let sender = {
        let (schedule, tid) = (Arc::clone(schedule), Arc::clone(&sender_tid));
        thread::Builder::new().name("sender".into()).spawn(move || {
            tid.store(procfs::current_tid(), Ordering::Relaxed);
            send_loop(&schedule, clients, load_start, close)
        })
    }
    .map_err(|e| format!("spawn sender: {e}"))?;

    let mut marks = Vec::with_capacity(SLICES + 1);
    let mut passes = Passes::default();
    let net_open = control.stats();
    for k in 0..=SLICES as u32 {
        let at = open + Duration::from_nanos(schedule.window_ns) * k / SLICES as u32;
        // Up to the mark, time a reference pass every `PASS_EVERY`: about
        // 1 % of one core, on the one thread that has nothing else to do.
        loop {
            let left = at.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            thread::sleep(left.min(PASS_EVERY));
            if k > 0 && Instant::now() < at {
                passes.0.push((now_ns(), reference.pass()));
            }
        }
        let at_ns = now_ns();
        let mut cpu = cpu.lock().expect("cpu sampler never panics while locked");
        cpu.refresh();
        marks.push((at_ns, cpu.clone()));
    }
    let net_close = control.stats();

    let sent_ns =
        sender.join().map_err(|_| "sender panicked")?.map_err(|e| format!("send: {e}"))?;
    let give_up = close + COMMIT_DEADLINE;
    while committed.load(Ordering::Relaxed) < schedule.len() && Instant::now() < give_up {
        thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, Ordering::Relaxed);
    let (cluster, faults) = drain.join().map_err(|_| "drain panicked")??;
    let exec = exec.join().map_err(|_| "exec panicked")?;
    // Stop the nodes and let their threads (20 ms poll) close the stores.
    drop(cluster);
    thread::sleep(Duration::from_millis(100));

    Ok(TcpRun {
        load_start_ns,
        load: LoadReport {
            sent_ns,
            sender_tid: sender_tid.load(Ordering::Relaxed),
            drain_tid: drain_tid.load(Ordering::Relaxed),
            exec_tid: exec_tid.load(Ordering::Relaxed),
            main_tid: procfs::current_tid(),
        },
        exec,
        faults,
        window: WindowSamples { marks, passes, net_open, net_close },
    })
}

/// Sends every frame at its due instant: sleeps to the next due time,
/// then hands each connection everything that has come due in one write.
/// Never waits for a reply (open loop); a blocked socket shows as lateness.
fn send_loop(
    schedule: &Schedule,
    mut conns: [TcpStream; 2],
    load_start: Instant,
    close: Instant,
) -> std::io::Result<Vec<u64>> {
    let n = schedule.len();
    let mut sent_ns = vec![0u64; n];
    let mut cursor = [0usize; 2];
    let mut next = 0;
    while next < n {
        let at = Instant::now();
        let due_at = load_start + Duration::from_nanos(schedule.due_ns[next]);
        if due_at > at {
            thread::sleep(due_at - at);
            continue;
        }
        let now = (at - load_start).as_nanos() as u64;
        let mut upto = cursor;
        while next < n && schedule.due_ns[next] <= now {
            upto[schedule.conn[next] as usize] = schedule.frame_end[next];
            sent_ns[next] = now;
            next += 1;
        }
        for c in 0..2 {
            if upto[c] > cursor[c] {
                conns[c].write_all(&schedule.frames[c][cursor[c]..upto[c]])?;
                cursor[c] = upto[c];
            }
        }
    }
    // Outlive the window-close sample: an exited thread's CPU time is gone
    // from /proc.
    thread::sleep((close + Duration::from_millis(20)).saturating_duration_since(Instant::now()));
    Ok(sent_ns)
}

/// Forwards every node's outputs to `exec`, stamped on arrival, and plays
/// the fault plan: the cluster has one owner, so the thread that drains
/// it is also the one that kills and restarts.
fn drain_loop<N: BenchNode>(
    mut cluster: Cluster<Finalized>,
    out: &mpsc::Sender<(NodeId, Finalized, u64)>,
    stop: &AtomicBool,
    fault: Option<(Instant, FaultPlan)>,
    cpu: &Mutex<ProcessSample>,
    run_dir: &Path,
    make: &NodeFactory<N>,
) -> Result<(Cluster<Finalized>, FaultLog), String> {
    const POLL: Duration = Duration::from_millis(50);
    let mut log = FaultLog::default();
    while !stop.load(Ordering::Relaxed) {
        let mut wait = POLL;
        if let Some((open, plan)) = fault {
            let now = Instant::now();
            if log.killed_ns.is_none() {
                if now >= open + plan.kill {
                    // The dying node's threads vanish from /proc: bank
                    // what they have used so far.
                    cpu.lock().expect("cpu sampler never panics while locked").refresh();
                    cluster.kill(CRASH_NODE);
                    log.killed_ns = Some(now_ns());
                } else {
                    wait = wait.min((open + plan.kill) - now);
                }
            } else if log.restarted_ns.is_none() {
                if now >= open + plan.restart {
                    log.restarted_ns = Some(now_ns());
                    let node = make(CRASH_NODE, &node_dir(run_dir, CRASH_NODE));
                    cluster
                        .restart_submitter(CRASH_NODE, node)
                        .map_err(|e| format!("restart: {e}"))?;
                } else {
                    wait = wait.min((open + plan.restart) - now);
                }
            }
        }
        if let Some((node, fin)) = cluster.next_output_timeout(wait.max(Duration::from_micros(100)))
        {
            if out.send((node, fin, now_ns())).is_err() {
                break;
            }
        }
    }
    Ok((cluster, log))
}
