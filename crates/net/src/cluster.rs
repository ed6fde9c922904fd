//! Cluster orchestration: the [`ClusterBuilder`] that threads a
//! declarative topology and link plan through every node, and the running
//! [`Cluster`] that kills and restarts them.

use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;

use tetrabft_engine::{FrameRequest, LinkPlan, Node, Submitter};
use tetrabft_types::NodeId;
use tetrabft_wire::Wire;

use crate::client::SubmitHandle;
use crate::link::{LinkSetup, NetControl};
use crate::runner::{spawn_peer, spawn_serving, NodeHandle, Wiring};
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
    /// Retained for node restarts: the addresses every node listens on,
    /// the shared output sender, and the link setup (conditioners,
    /// metrics, cut flags) a replacement node re-joins.
    wiring: Wiring<O>,
}

/// How long a restart will wait out `AddrInUse` once the killed node's
/// thread has exited and closed its listener (OS lag only).
const REBIND_WINDOW: Duration = Duration::from_secs(5);

/// Declarative cluster spec: node count or explicit [`Topology`] and a
/// [`LinkPlan`] for fault injection / WAN conditioning.
///
/// # Examples
///
/// Spawn a 4-node cluster whose links behave like a 30 ms WAN, then sever
/// and heal a link mid-run:
///
/// ```no_run
/// use tetrabft::{Params, TetraNode};
/// use tetrabft_net::{ClusterBuilder, EdgeSpec, LinkPlan};
/// use tetrabft_types::{Config, NodeId, Value};
///
/// # fn main() -> Result<(), tetrabft_net::NetError> {
/// let cfg = Config::new(4).unwrap();
/// let wan = LinkPlan::uniform(EdgeSpec::delay(30).with_jitter(3));
/// let (mut cluster, net) = ClusterBuilder::new(4).plan(wan).spawn(|id| {
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
}

impl ClusterBuilder {
    /// Starts a spec for `n` nodes on OS-assigned localhost ports.
    pub fn new(n: usize) -> Self {
        ClusterBuilder { n, topology: None, plan: LinkPlan::ideal() }
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

    /// Binds every node's listener and starts each with `start`.
    fn build<O>(
        self,
        mut start: impl FnMut(NodeId, TcpListener, &Wiring<O>) -> Result<NodeHandle, NetError>,
    ) -> Result<(Cluster<O>, NetControl), NetError> {
        let (listeners, topology) = match self.topology {
            Some(t) => (t.bind_all()?, t),
            None => Topology::bind_ephemeral(self.n)?,
        };
        let links = LinkSetup::new(self.plan, topology.len());
        let (tx, outputs) = mpsc::channel();
        let wiring = Wiring { topology, outputs: tx, links };
        let handles = (0..listeners.len() as u16)
            .zip(listeners)
            .map(|(i, listener)| start(NodeId(i), listener, &wiring))
            .collect::<Result<_, _>>()?;
        let control = wiring.links.control();
        Ok((Cluster { outputs, handles, wiring }, control))
    }

    /// Spawns one peer-only node per topology slot, built by `make`, and
    /// returns the cluster plus its [`NetControl`] (link stats and fault
    /// injection). The nodes hang up on client hellos.
    ///
    /// # Errors
    ///
    /// [`NetError`] on bind or listener-configuration failures.
    pub fn spawn<N, O, F>(self, mut make: F) -> Result<(Cluster<O>, NetControl), NetError>
    where
        N: Node<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        self.build(|id, listener, wiring| spawn_peer(make(id), id, listener, wiring))
    }

    /// Like [`ClusterBuilder::spawn`] for [`Submitter`] nodes **serving
    /// client submissions over TCP**: every node also accepts client
    /// connections on its listen port (hello id [`crate::CLIENT_HELLO_ID`]),
    /// decodes each frame through [`FrameRequest`], and queues it for the
    /// engine on the node's thread, with no thread per connection. This is
    /// the only way a request enters a running node. Also returns one
    /// [`SubmitHandle`] per node (indexed by [`NodeId`]), a client of that
    /// node that dials on first use.
    ///
    /// # Errors
    ///
    /// As [`ClusterBuilder::spawn`].
    #[allow(clippy::type_complexity)] // the frozen benchmark destructures this tuple
    pub fn spawn_serving<N, O, F>(
        self,
        mut make: F,
    ) -> Result<((Cluster<O>, Vec<SubmitHandle>), NetControl), NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: FrameRequest + Send + 'static,
        O: Send + 'static,
        F: FnMut(NodeId) -> N,
    {
        let (cluster, control) =
            self.build(|id, listener, wiring| spawn_serving(make(id), id, listener, wiring))?;
        let handles = (0..cluster.len() as u16)
            .map(|i| SubmitHandle::new(cluster.wiring.topology.addr(NodeId(i))))
            .collect();
        Ok(((cluster, handles), control))
    }
}

impl<O> Cluster<O> {
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

    /// Restarts slot `id` with the peer-only state machine `node` — the
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
        self.restart(id, |listener, wiring| spawn_peer(node, id, listener, wiring))
    }

    /// Like [`Cluster::restart_node`] for a node of a
    /// [`ClusterBuilder::spawn_serving`] cluster: the replacement serves
    /// clients again, and the slot's [`SubmitHandle`] reaches it on its
    /// next submission.
    ///
    /// # Errors
    ///
    /// As [`Cluster::restart_node`].
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn restart_submitter<N>(&mut self, id: NodeId, node: N) -> Result<(), NetError>
    where
        N: Submitter<Output = O> + Send + 'static,
        N::Msg: Wire + Send + 'static,
        N::Request: FrameRequest + Send + 'static,
        O: Send + 'static,
    {
        self.restart(id, |listener, wiring| spawn_serving(node, id, listener, wiring))
    }

    fn restart(
        &mut self,
        id: NodeId,
        start: impl FnOnce(TcpListener, &Wiring<O>) -> Result<NodeHandle, NetError>,
    ) -> Result<(), NetError> {
        self.handles[id.index()].join();
        let listener = self.wiring.topology.bind_retry(id, REBIND_WINDOW)?;
        self.handles[id.index()] = start(listener, &self.wiring)?;
        Ok(())
    }

    /// The addresses this cluster's nodes listen on — what a TCP client
    /// fleet needs to dial the nodes of a [`ClusterBuilder::spawn_serving`]
    /// cluster.
    pub fn topology(&self) -> &Topology {
        &self.wiring.topology
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
