//! Generic actors for fault injection: omission faults (a crashed node, an
//! honest node that drops part of what it sends) and a closure-driven node
//! for tests. Byzantine speech, nodes that send what the protocol never
//! would, lives in the adversary fuzzer, `tetrabft-fuzz`.

use std::marker::PhantomData;

use tetrabft_engine::{Action, ActionBuf, Context, Dest, Input, Node, WireSize};
use tetrabft_types::NodeId;

/// A node that never sends anything — models a crashed / silent Byzantine
/// node (the weakest adversary, but enough to force view changes).
///
/// # Examples
///
/// ```
/// use tetrabft_sim::SilentNode;
/// let _crash: SilentNode<u8, ()> = SilentNode::new();
/// ```
#[derive(Debug)]
pub struct SilentNode<M, O> {
    _marker: PhantomData<fn() -> (M, O)>,
}

impl<M, O> SilentNode<M, O> {
    /// Creates a silent node.
    pub fn new() -> Self {
        SilentNode { _marker: PhantomData }
    }
}

impl<M, O> Default for SilentNode<M, O> {
    fn default() -> Self {
        SilentNode::new()
    }
}

impl<M: WireSize + Clone, O> Node for SilentNode<M, O> {
    type Msg = M;
    type Output = O;
    fn handle(&mut self, _input: Input<M>, _ctx: &mut Context<'_, M, O>) {}
}

/// A node driven by a closure, for tests that need a node with one
/// hand-written reaction.
///
/// # Examples
///
/// A node that echoes every message back to its sender:
///
/// ```
/// use tetrabft_sim::{FnNode, Input};
///
/// # #[derive(Clone)] struct M;
/// # impl tetrabft_sim::WireSize for M { fn wire_size(&self) -> usize { 1 } }
/// let echo = FnNode::<M, (), _>::new(|input, ctx| {
///     if let Input::Deliver { from, msg } = input {
///         ctx.send(from, msg);
///     }
/// });
/// ```
pub struct FnNode<M, O, F> {
    f: F,
    _marker: PhantomData<fn() -> (M, O)>,
}

impl<M, O, F> FnNode<M, O, F>
where
    F: FnMut(Input<M>, &mut Context<'_, M, O>),
{
    /// Wraps `f` as a node.
    pub fn new(f: F) -> Self {
        FnNode { f, _marker: PhantomData }
    }
}

impl<M: WireSize + Clone, O, F> Node for FnNode<M, O, F>
where
    F: FnMut(Input<M>, &mut Context<'_, M, O>),
{
    type Msg = M;
    type Output = O;
    fn handle(&mut self, input: Input<M>, ctx: &mut Context<'_, M, O>) {
        (self.f)(input, ctx)
    }
}

/// Says which outbound messages a [`FilteredNode`] lets through.
type SendFilter<M> = Box<dyn FnMut(&M) -> bool>;

/// Wraps an honest node, silently dropping part of its outbound traffic —
/// selective silence over an otherwise *correct* protocol participant.
///
/// Two filters, one per constructor: [`FilteredNode::new`] drops every
/// send toward a set of targets (the node looks crashed to them and honest
/// to everyone else, the classic quorum-splitting adversary);
/// [`FilteredNode::sending`] drops whole messages by content (a leader that
/// never proposes one slot, a voter that never votes).
///
/// The inner node runs against a buffered [`Context`]; the wrapper replays
/// every recorded action, filtering sends. A `Dest::All` broadcast is
/// expanded per node only when a target is silenced, so individual targets
/// can be dropped; the node's own loopback delivery survives silencing
/// (which must not corrupt the inner node's own state) but not a message
/// the predicate rejects, which reaches nobody.
pub struct FilteredNode<N: Node> {
    inner: N,
    silenced: Vec<NodeId>,
    keep: SendFilter<N::Msg>,
    buf: ActionBuf<N::Msg, N::Output>,
}

impl<N: Node> FilteredNode<N> {
    /// Wraps `inner`, dropping its sends toward `silenced`.
    pub fn new(inner: N, silenced: impl IntoIterator<Item = NodeId>) -> Self {
        FilteredNode { silenced: silenced.into_iter().collect(), ..Self::sending(inner, |_| true) }
    }

    /// Wraps `inner`, dropping every message `keep` rejects, whoever it is
    /// addressed to.
    pub fn sending(inner: N, keep: impl FnMut(&N::Msg) -> bool + 'static) -> Self {
        FilteredNode { inner, silenced: Vec::new(), keep: Box::new(keep), buf: ActionBuf::new() }
    }
}

impl<N: Node> Node for FilteredNode<N> {
    type Msg = N::Msg;
    type Output = N::Output;

    fn handle(&mut self, input: Input<N::Msg>, ctx: &mut Context<'_, N::Msg, N::Output>) {
        let mut inner_ctx = Context::buffered(ctx.me(), ctx.n(), ctx.now(), &mut self.buf);
        self.inner.handle(input, &mut inner_ctx);
        for action in self.buf.drain(..) {
            match action {
                Action::Send { msg, .. } if !(self.keep)(&msg) => {}
                Action::Send { dest: Dest::All, msg } if self.silenced.is_empty() => {
                    ctx.broadcast(msg);
                }
                Action::Send { dest: Dest::All, msg } => {
                    for i in 0..ctx.n() as u16 {
                        let to = NodeId(i);
                        if to != ctx.me() && self.silenced.contains(&to) {
                            continue;
                        }
                        ctx.send(to, msg.clone());
                    }
                }
                Action::Send { dest: Dest::Node(to), msg } => {
                    if to == ctx.me() || !self.silenced.contains(&to) {
                        ctx.send(to, msg);
                    }
                }
                Action::SetTimer { id, after } => ctx.set_timer(id, after),
                Action::CancelTimer { id } => ctx.cancel_timer(id),
                Action::Output(out) => ctx.output(out),
            }
        }
    }

    fn persist(&mut self) {
        self.inner.persist()
    }

    fn incarnation(&self) -> u64 {
        self.inner.incarnation()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_engine::{Time, TimerId};

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct M(u8);
    impl WireSize for M {
        fn wire_size(&self) -> usize {
            1
        }
    }

    fn drive<N: Node>(node: &mut N, input: Input<N::Msg>) -> Vec<Action<N::Msg, N::Output>> {
        let mut buf = ActionBuf::new();
        let mut ctx = Context::buffered(NodeId(0), 4, Time(0), &mut buf);
        node.handle(input, &mut ctx);
        buf.into_iter().collect()
    }

    fn sent_to(actions: &[Action<M, ()>]) -> Vec<u16> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send { dest: Dest::Node(to), .. } => Some(to.0),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn filtered_node_drops_only_silenced_targets() {
        // An inner node that broadcasts on Start, sends to 2 on Deliver,
        // and keeps a timer armed.
        let inner = || {
            FnNode::<M, (), _>::new(|input, ctx| match input {
                Input::Start => {
                    ctx.broadcast(M(1));
                    ctx.set_timer(TimerId(9), 10);
                }
                Input::Deliver { .. } => ctx.send(NodeId(2), M(2)),
                _ => {}
            })
        };
        let mut node = FilteredNode::new(inner(), [NodeId(2)]);
        let actions = drive(&mut node, Input::Start);
        // Broadcast expands to 0 (self, kept), 1, 3 — 2 is silenced.
        assert_eq!(sent_to(&actions), vec![0, 1, 3]);
        assert!(actions.iter().any(|a| matches!(a, Action::SetTimer { id: TimerId(9), .. })));
        let actions = drive(&mut node, Input::Deliver { from: NodeId(1), msg: M(0) });
        assert!(sent_to(&actions).is_empty(), "direct send to silenced target dropped");

        // The predicate form drops a message for everyone, loopback
        // included, and passes the rest through as the inner node sent it.
        let mut node = FilteredNode::sending(inner(), |msg| *msg != M(1));
        let actions = drive(&mut node, Input::Start);
        assert!(matches!(actions[..], [Action::SetTimer { id: TimerId(9), .. }]));
        let mut node = FilteredNode::sending(inner(), |msg| *msg != M(2));
        let actions = drive(&mut node, Input::Start);
        assert!(
            matches!(actions[0], Action::Send { dest: Dest::All, msg: M(1) }),
            "a kept broadcast stays one broadcast"
        );
        let actions = drive(&mut node, Input::Deliver { from: NodeId(1), msg: M(0) });
        assert!(actions.is_empty());
    }
}
