//! Optional event trace, used to regenerate the paper's worked figures.

use tetrabft_types::NodeId;

use tetrabft_engine::Time;

/// One traced network event.
///
/// Traces are opt-in ([`crate::SimBuilder::record_trace`]) because they grow
/// with the run; the figure-reproduction benches use them to print the
/// per-slot message timelines of Fig. 2 and Fig. 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent<M> {
    /// A message was handed to the network.
    Sent {
        /// Send time.
        at: Time,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// A message was delivered to its receiver.
    Delivered {
        /// Delivery time.
        at: Time,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// The [`LinkPlan`](tetrabft_engine::LinkPlan) dropped a message: edge
    /// loss or a lose window.
    Dropped {
        /// Send time.
        at: Time,
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
}
