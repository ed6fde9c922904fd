//! Declarative peer topologies and the typed errors of the TCP layer.
//!
//! A [`Topology`] names where every node of a cluster listens — arbitrary
//! [`SocketAddr`]s, not hardcoded localhost ports. In-process clusters
//! derive their ports from the OS ([`Topology::bind_ephemeral`] binds
//! `127.0.0.1:0` per node and reads the assigned addresses back — the
//! "topology exchange" — so parallel test runs can never collide);
//! multi-process deployments parse an explicit spec with
//! [`Topology::parse`] and hand each process the same topology.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::str::FromStr;
use std::time::{Duration, Instant};

use tetrabft_types::NodeId;

/// A malformed topology specification.
#[derive(Debug)]
pub enum TopologyError {
    /// A topology needs at least one node.
    Empty,
    /// More nodes than [`NodeId`] can address.
    TooManyNodes(usize),
    /// An entry did not parse as a socket address.
    BadAddr {
        /// Position of the bad entry.
        index: usize,
        /// The offending text.
        text: String,
    },
    /// Two nodes share one address — they would dial themselves.
    Duplicate {
        /// Position of the second occurrence.
        index: usize,
        /// The duplicated address.
        addr: SocketAddr,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has no nodes"),
            TopologyError::TooManyNodes(n) => {
                write!(f, "topology has {n} nodes; NodeId is 16-bit")
            }
            TopologyError::BadAddr { index, text } => {
                write!(f, "node {index}: `{text}` is not a socket address")
            }
            TopologyError::Duplicate { index, addr } => {
                write!(f, "node {index}: address {addr} already taken by an earlier node")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// What can go wrong spinning up the TCP layer.
#[derive(Debug)]
pub enum NetError {
    /// Binding a node's listen address failed.
    Bind {
        /// The address that could not be bound.
        addr: SocketAddr,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Configuring or inspecting a bound listener failed.
    Listener {
        /// The underlying I/O error.
        source: io::Error,
    },
    /// The topology itself is malformed.
    Topology(TopologyError),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Bind { addr, source } => write!(f, "cannot bind {addr}: {source}"),
            NetError::Listener { source } => write!(f, "cannot configure listener: {source}"),
            NetError::Topology(e) => write!(f, "bad topology: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Bind { source, .. } | NetError::Listener { source } => Some(source),
            NetError::Topology(e) => Some(e),
        }
    }
}

impl From<TopologyError> for NetError {
    fn from(e: TopologyError) -> Self {
        NetError::Topology(e)
    }
}

/// Where every node of a cluster listens, indexed by [`NodeId`].
///
/// # Examples
///
/// ```
/// use tetrabft_net::Topology;
/// use tetrabft_types::NodeId;
///
/// let topo: Topology = "10.0.0.1:4100,10.0.0.2:4100,10.0.0.3:4100".parse()?;
/// assert_eq!(topo.len(), 3);
/// assert_eq!(topo.addr(NodeId(1)).port(), 4100);
/// # Ok::<(), tetrabft_net::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    addrs: Vec<SocketAddr>,
}

impl Topology {
    /// Builds a topology from explicit per-node addresses (index =
    /// [`NodeId`]).
    ///
    /// # Errors
    ///
    /// [`TopologyError`] if the list is empty, exceeds the id space, or
    /// repeats an address.
    pub fn new(addrs: Vec<SocketAddr>) -> Result<Self, TopologyError> {
        if addrs.is_empty() {
            return Err(TopologyError::Empty);
        }
        if addrs.len() > usize::from(u16::MAX) {
            return Err(TopologyError::TooManyNodes(addrs.len()));
        }
        for (index, addr) in addrs.iter().enumerate() {
            if addrs[..index].contains(addr) {
                return Err(TopologyError::Duplicate { index, addr: *addr });
            }
        }
        Ok(Topology { addrs })
    }

    /// Parses a comma-separated address list, e.g.
    /// `"10.0.0.1:4100,10.0.0.2:4100"`.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] on any unparseable or duplicate entry.
    pub fn parse(spec: &str) -> Result<Self, TopologyError> {
        let mut addrs = Vec::new();
        for (index, part) in spec.split(',').map(str::trim).filter(|p| !p.is_empty()).enumerate() {
            let addr = part
                .parse()
                .map_err(|_| TopologyError::BadAddr { index, text: part.to_string() })?;
            addrs.push(addr);
        }
        Topology::new(addrs)
    }

    /// Binds `n` OS-assigned ephemeral ports on localhost and returns the
    /// listeners together with the resulting topology — the in-process
    /// topology exchange that replaces fixed base ports (which collide
    /// under parallel test runs).
    ///
    /// # Errors
    ///
    /// [`NetError::Bind`] if the loopback interface refuses a socket.
    pub fn bind_ephemeral(n: usize) -> Result<(Vec<TcpListener>, Topology), NetError> {
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        let any: SocketAddr = ([127, 0, 0, 1], 0).into();
        for _ in 0..n {
            let listener =
                TcpListener::bind(any).map_err(|source| NetError::Bind { addr: any, source })?;
            addrs.push(listener.local_addr().map_err(|source| NetError::Listener { source })?);
            listeners.push(listener);
        }
        Ok((listeners, Topology::new(addrs)?))
    }

    /// Binds this topology's address for node `me`.
    ///
    /// # Errors
    ///
    /// [`NetError::Bind`] if the address is unavailable.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn bind(&self, me: NodeId) -> Result<TcpListener, NetError> {
        let addr = self.addr(me);
        TcpListener::bind(addr).map_err(|source| NetError::Bind { addr, source })
    }

    /// Binds node `me`'s address like [`Topology::bind`], but keeps
    /// retrying `AddrInUse` for up to `window` — the restart path: the
    /// killed node's thread has exited and dropped its listener, but the
    /// OS may lag the port's release. Any other bind failure still fails
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`NetError::Bind`] if the address is still in use when the window
    /// closes, or at once for non-`AddrInUse` failures.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn bind_retry(&self, me: NodeId, window: Duration) -> Result<TcpListener, NetError> {
        let addr = self.addr(me);
        let deadline = Instant::now() + window;
        loop {
            match TcpListener::bind(addr) {
                Ok(listener) => return Ok(listener),
                Err(source) if source.kind() == io::ErrorKind::AddrInUse => {
                    if Instant::now() >= deadline {
                        return Err(NetError::Bind { addr, source });
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(source) => return Err(NetError::Bind { addr, source }),
            }
        }
    }

    /// Binds every node's address, in id order (in-process clusters on an
    /// explicit topology).
    ///
    /// # Errors
    ///
    /// [`NetError::Bind`] on the first unavailable address.
    pub(crate) fn bind_all(&self) -> Result<Vec<TcpListener>, NetError> {
        (0..self.addrs.len() as u16).map(|i| self.bind(NodeId(i))).collect()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// `true` if the topology is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The listen address of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn addr(&self, id: NodeId) -> SocketAddr {
        self.addrs[usize::from(id.0)]
    }
}

impl FromStr for Topology {
    type Err = TopologyError;

    fn from_str(s: &str) -> Result<Self, TopologyError> {
        Topology::parse(s)
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, addr) in self.addrs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{addr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_through_display() {
        let topo = Topology::parse("127.0.0.1:4100, 127.0.0.1:4101,127.0.0.1:4102").unwrap();
        assert_eq!(topo.len(), 3);
        assert_eq!(topo.to_string(), "127.0.0.1:4100,127.0.0.1:4101,127.0.0.1:4102");
        assert_eq!(topo, topo.to_string().parse().unwrap());
        assert_eq!(topo.addr(NodeId(2)).port(), 4102);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        assert!(matches!(Topology::parse(""), Err(TopologyError::Empty)));
        assert!(matches!(
            Topology::parse("127.0.0.1:1,nonsense"),
            Err(TopologyError::BadAddr { index: 1, .. })
        ));
        assert!(matches!(
            Topology::parse("127.0.0.1:9,127.0.0.1:9"),
            Err(TopologyError::Duplicate { index: 1, .. })
        ));
    }

    #[test]
    fn ephemeral_bind_yields_distinct_live_ports() {
        let (listeners, topo) = Topology::bind_ephemeral(4).unwrap();
        assert_eq!(listeners.len(), 4);
        assert_eq!(topo.len(), 4);
        for (i, l) in listeners.iter().enumerate() {
            assert_eq!(l.local_addr().unwrap(), topo.addr(NodeId(i as u16)));
            assert_ne!(topo.addr(NodeId(i as u16)).port(), 0, "OS assigned a real port");
        }
    }

    #[test]
    fn bind_failure_is_a_typed_error() {
        let (_keep, topo) = Topology::bind_ephemeral(1).unwrap();
        // The port is still held by `_keep`, so re-binding must fail loudly.
        match topo.bind(NodeId(0)) {
            Err(NetError::Bind { addr, .. }) => assert_eq!(addr, topo.addr(NodeId(0))),
            other => panic!("expected NetError::Bind, got {other:?}"),
        }
    }
}
