//! The client side of a node's one door: the [`SubmitHandle`] speaks the
//! same hello and frames as any other TCP client (see [`CLIENT_HELLO_ID`]).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, PoisonError};

use tetrabft_wire::frame::encode_frame;

use crate::reactor::CLIENT_HELLO_ID;

/// A TCP client of one node.
///
/// Its submissions enter the node the way every client's do: as a
/// length-prefixed frame on the node's listen port, decoded through
/// [`crate::FrameRequest`] and admitted on the node's thread beside
/// deliveries and timer firings. The handle dials on its first submission
/// (the [`CLIENT_HELLO_ID`] hello, then the node's 8-byte ack) and keeps
/// the connection; a handle never used opens no socket. An I/O error drops
/// the connection, and the next submission dials again, so a handle
/// outlives a restart of its node.
///
/// Admission is best-effort, as for every TCP client: a request the node
/// refuses (mempool full, oversized, duplicate, vetoed) is dropped there,
/// and a frame written just before the node died is lost with it.
#[derive(Debug)]
pub struct SubmitHandle {
    addr: SocketAddr,
    conn: Mutex<Option<TcpStream>>,
}

/// The node this handle feeds could not be reached: it refused the dial or
/// the hello, or the connection broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitClosed;

impl std::fmt::Display for SubmitClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node is not reachable")
    }
}

impl std::error::Error for SubmitClosed {}

impl SubmitHandle {
    pub(crate) fn new(addr: SocketAddr) -> Self {
        SubmitHandle { addr, conn: Mutex::new(None) }
    }

    /// Writes `payload` to the node as one client frame. A payload over the
    /// frame limit is dropped here, as the node would drop it.
    ///
    /// # Errors
    ///
    /// [`SubmitClosed`] if the node cannot be reached.
    pub fn submit(&self, payload: &[u8]) -> Result<(), SubmitClosed> {
        let Ok(frame) = encode_frame(payload) else { return Ok(()) };
        let mut conn = self.conn.lock().unwrap_or_else(PoisonError::into_inner);
        let sent = match conn.as_mut() {
            Some(stream) => stream.write_all(&frame),
            None => dial(self.addr).and_then(|stream| conn.insert(stream).write_all(&frame)),
        };
        sent.map_err(|_| {
            *conn = None;
            SubmitClosed
        })
    }
}

/// Connects to `addr` as a client: the hello, then the node's ack.
fn dial(addr: SocketAddr) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut hello = [0u8; 10];
    hello[..2].copy_from_slice(&CLIENT_HELLO_ID.to_be_bytes());
    stream.write_all(&hello)?;
    stream.read_exact(&mut [0u8; 8])?;
    Ok(stream)
}
