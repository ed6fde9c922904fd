//! Cluster orchestration: flat clusters, submitting clusters, and the
//! [`ClusterBuilder`] that threads a declarative topology and link plan
//! through every node.

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

use tetrabft_engine::{FrameRequest, Node, Submitter};
use tetrabft_sim::LinkPlan;
use tetrabft_types::NodeId;
use tetrabft_wire::Wire;

use crate::link::{LinkSetup, NetControl};
use crate::reactor::SubmitCodec;
use crate::runner::{run_node_inner, run_submitter_inner, NodeHandle, SubmitHandle};
use crate::topology::{NetError, Topology};

/// A running cluster: `n` nodes in one process, real TCP between them.
///
/// Dropping the cluster stops every node.
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct Cluster<O> {
    outputs: mpsc::Receiver<(NodeId, O)>,
    handles: Vec<NodeHandle>,
    /// Retained for node restarts: the shared output sender, the addresses
    /// every node listens on, and the link setup (conditioners, metrics,
    /// cut flags) a replacement node re-joins.
    tx: mpsc::Sender<(NodeId, O)>,
    topology: Topology,
    setup: LinkSetup,
}

/// How long a restart will wait out `AddrInUse` once the killed node's
/// thread has exited and closed its listener (OS lag only).
const REBIND_WINDOW: Duration = Duration::from_secs(5);

/// What [`Cluster::spawn_submitting`] yields: the cluster plus one
/// [`SubmitHandle`] per node (indexed by [`NodeId`]).
pub type SubmittingCluster<O, R> = (Cluster<O>, Vec<SubmitHandle<R>>);

/// Declarative cluster spec: node count or explicit [`Topology`], a
/// [`LinkPlan`] for fault injection / WAN conditioning, and the
/// deterministic seed feeding every edge's conditioner.
///
/// # Examples
///
/// Spawn a 4-node cluster whose links behave like a 30 ms WAN, then sever
/// and heal a link mid-run:
///
/// ```no_run
/// use tetrabft::{Params, TetraNode};
/// use tetrabft_net::{ClusterBuilder, LinkPlan};
/// use tetrabft_types::{Config, NodeId, Value};
///
/// # fn main() -> Result<(), tetrabft_net::NetError> {
/// let cfg = Config::new(4).unwrap();
/// let (mut cluster, net) = ClusterBuilder::new(4).plan(LinkPlan::wan(30)).spawn(|id| {
///     TetraNode::new(cfg, Params::new(1000), id, Value::from_u64(7))
/// })?;
/// net.cut(NodeId(0), NodeId(1)); // the link re-establishes on its own
/// let (node, decided) = cluster.next_output().unwrap();
/// println!("{node} decided {decided}; {:?}", net.stats());
/// # Ok(()) }
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    n: usize,
    topology: Option<Topology>,
    plan: LinkPlan,
    seed: u64,
}

impl ClusterBuilder {
    /// Starts a spec for `n` nodes on OS-assigned localhost ports.
    pub fn new(n: usize) -> Self {
        ClusterBuilder { n, topology: None, plan: LinkPlan::ideal(), seed: 0 }
    }

    /// Places nodes at explicit addresses instead of ephemeral localhost
    /// ports (the node count becomes the topology's length).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.n = topology.len();
        self.topology = Some(topology);
        self
    }

    /// Conditions every link according to `plan` (delays, jitter, loss,
    /// scripted partitions). Default: ideal links.
    pub fn plan(mut self, plan: LinkPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Seeds the per-edge conditioning RNGs (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    fn listeners(&mut self) -> Result<(Vec<TcpListener>, Topology, LinkSetup), NetError> {
        let (listeners, topology) = match self.topology.take() {
            Some(t) => (t.bind_all()?, t),
            None => Topology::bind_ephemeral(self.n)?,
        };
        let setup = LinkSetup::new(self.plan.clone(), topology.len(), self.seed);
        Ok((listeners, topology, setup))
    }

    /// Spawns one node per topology slot, built by `make`, and returns the
    /// cluster plus its [`NetControl`] (link stats and fault injection).
    ///
    /// # Errors
    ///
    /// [`NetError`] on bind or listener-configuration failures.
    pub fn spawn<N, O, F>(mut self, mut make: F) -> Result<(Cluster<O>, NetControl), NetError>
    where
        N: Node<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        let (listeners, topology, setup) = self.listeners()?;
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::with_capacity(topology.len());
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = NodeId(i as u16);
            let (handle, _submissions) = run_node_inner::<N, std::convert::Infallible>(
                make(id),
                id,
                listener,
                topology.clone(),
                tx.clone(),
                setup.clone(),
                None,
                |_, never| match never {},
            )?;
            handles.push(handle);
        }
        let control = setup.control();
        Ok((Cluster { outputs: rx, handles, tx, topology, setup }, control))
    }

    /// Like [`ClusterBuilder::spawn`] for [`Submitter`] nodes: also
    /// returns one [`SubmitHandle`] per node.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::spawn`].
    pub fn spawn_submitting<N, O, F>(
        self,
        make: F,
    ) -> Result<(SubmittingCluster<O, N::Request>, NetControl), NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        self.spawn_submitting_with(make, None)
    }

    /// Like [`ClusterBuilder::spawn_submitting`] for nodes **serving
    /// framed client submissions over TCP**: every node also accepts
    /// client connections on its listen port (hello id `0xFFFF`), decodes
    /// each frame through [`FrameRequest`], and queues it for the engine
    /// on the node's thread, with no thread per connection. The repo
    /// benchmark's generator submits through this path, and
    /// `tests/reactor_runtime.rs` fans a hundred-odd raw clients into it.
    /// The in-process [`SubmitHandle`]s are returned too.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::spawn`].
    pub fn spawn_serving<N, O, F>(
        self,
        make: F,
    ) -> Result<(SubmittingCluster<O, N::Request>, NetControl), NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: FrameRequest + Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        self.spawn_submitting_with(make, Some(N::Request::from_frame))
    }

    fn spawn_submitting_with<N, O, F>(
        mut self,
        mut make: F,
        codec: Option<SubmitCodec<N::Request>>,
    ) -> Result<(SubmittingCluster<O, N::Request>, NetControl), NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        let (listeners, topology, setup) = self.listeners()?;
        let (tx, rx) = mpsc::channel();
        let mut handles = Vec::with_capacity(topology.len());
        let mut submitters = Vec::with_capacity(topology.len());
        for (i, listener) in listeners.into_iter().enumerate() {
            let id = NodeId(i as u16);
            let (handle, submit) = run_submitter_inner(
                make(id),
                id,
                listener,
                topology.clone(),
                tx.clone(),
                setup.clone(),
                codec,
            )?;
            handles.push(handle);
            submitters.push(submit);
        }
        let control = setup.control();
        Ok(((Cluster { outputs: rx, handles, tx, topology, setup }, submitters), control))
    }
}

impl<O> Cluster<O> {
    /// Binds `n` OS-assigned ephemeral listeners on localhost and spawns
    /// one node per listener, built by `make`, over unconditioned links.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors as [`NetError`].
    pub fn spawn<N, F>(n: usize, make: F) -> Result<Cluster<O>, NetError>
    where
        N: Node<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        ClusterBuilder::new(n).spawn(make).map(|(cluster, _)| cluster)
    }

    /// Like [`Cluster::spawn`] for nodes accepting client submissions:
    /// also returns one [`SubmitHandle`] per node, feeding requests into
    /// that node's engine at runtime.
    ///
    /// # Errors
    ///
    /// Propagates socket binding errors as [`NetError`].
    pub fn spawn_submitting<N, F>(
        n: usize,
        make: F,
    ) -> Result<SubmittingCluster<O, N::Request>, NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        ClusterBuilder::new(n).spawn_submitting(make).map(|(cluster, _)| cluster)
    }

    /// Stops node `id` abruptly — the in-process stand-in for `kill -9`:
    /// its thread winds down without any shutdown protocol, sockets break
    /// mid-stream, and nothing is flushed that was not already flushed.
    /// Returns once the thread has exited, so nothing of the node's reaches
    /// its directory or a socket afterwards. The rest of the cluster keeps
    /// running; peers' link supervisors buffer, re-dial, and re-handshake
    /// on their own.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn kill(&mut self, id: NodeId) {
        self.handles[id.index()].join();
    }

    /// Restarts slot `id` with the state machine `node` — the
    /// crash-recovery path. The old node (if still running) is killed as
    /// by [`Cluster::kill`], the listen address is re-bound, and `node`
    /// takes over the slot: same address, same output channel, same link
    /// plan and metrics. A durable `node` restored from disk announces its
    /// bumped incarnation in every handshake, so peers drop frames buffered
    /// for its previous life.
    ///
    /// # Errors
    ///
    /// [`NetError`] if the address cannot be re-bound within the window.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn restart_node<N>(&mut self, id: NodeId, node: N) -> Result<(), NetError>
    where
        N: Node<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        O: Send + 'static,
    {
        self.handles[id.index()].join();
        let listener = self.topology.bind_retry(id, REBIND_WINDOW)?;
        let (handle, _submissions) = run_node_inner::<N, std::convert::Infallible>(
            node,
            id,
            listener,
            self.topology.clone(),
            self.tx.clone(),
            self.setup.clone(),
            None,
            |_, never| match never {},
        )?;
        self.handles[id.index()] = handle;
        Ok(())
    }

    /// Like [`Cluster::restart_node`] for [`Submitter`] nodes: the
    /// replacement also gets a fresh [`SubmitHandle`] (handles of the
    /// killed node are dead and return [`crate::SubmitClosed`]).
    ///
    /// # Errors
    ///
    /// As [`Cluster::restart_node`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn restart_submitter<N>(
        &mut self,
        id: NodeId,
        node: N,
    ) -> Result<SubmitHandle<N::Request>, NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: Send + 'static,
        O: Send + 'static,
    {
        self.handles[id.index()].join();
        let listener = self.topology.bind_retry(id, REBIND_WINDOW)?;
        let (handle, submit) = run_submitter_inner(
            node,
            id,
            listener,
            self.topology.clone(),
            self.tx.clone(),
            self.setup.clone(),
            None,
        )?;
        self.handles[id.index()] = handle;
        Ok(submit)
    }

    /// The addresses this cluster's nodes listen on — what a TCP client
    /// fleet needs to dial the nodes of a [`ClusterBuilder::spawn_serving`]
    /// cluster.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Waits for the next protocol output from any node.
    pub fn next_output(&mut self) -> Option<(NodeId, O)> {
        self.outputs.recv().ok()
    }

    /// Waits for the next protocol output, giving up after `timeout`.
    pub fn next_output_timeout(&mut self, timeout: Duration) -> Option<(NodeId, O)> {
        self.outputs.recv_timeout(timeout).ok()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// `true` if the cluster has no nodes.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }
}
