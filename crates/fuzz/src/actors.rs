//! The Byzantine actor: a node assembled from composable behaviors, the
//! fuzzer's unit of adversary sampling.

use std::marker::PhantomData;

use tetrabft_sim::{Context, Dest, Input, Node, TimerId, WireSize};
use tetrabft_types::NodeId;

/// What a [`Behavior`] knows besides its input: who the Byzantine node is
/// and how many nodes exist.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BehaviorEnv {
    /// The Byzantine node's own id.
    pub(crate) me: NodeId,
    /// Number of nodes in the system.
    pub(crate) n: usize,
}

/// One composable Byzantine sub-strategy: it reacts to an input by queueing
/// `(destination, message)` pairs, where `Dest::All` means every *other*
/// node. Behaviors only send (no timers, no outputs), which is what makes
/// any composition safe: two behaviors can never fight over a timer.
pub(crate) type Behavior<M> = Box<dyn FnMut(&Input<M>, &BehaviorEnv, &mut Vec<(Dest, M)>)>;

/// Boxes `react` as a [`Behavior`] (and gives a closure its argument types).
pub(crate) fn behavior<M>(
    react: impl FnMut(&Input<M>, &BehaviorEnv, &mut Vec<(Dest, M)>) + 'static,
) -> Behavior<M> {
    Box::new(react)
}

/// Timer id of the actor's periodic tick, far outside any protocol's timer
/// space.
pub(crate) const BYZ_TICK: TimerId = TimerId(u64::MAX - 1);

/// Total-emission budget of a [`ByzantineActor`]: generous enough for any
/// real attack in a bounded-horizon run, small enough that a pathological
/// composition cannot wedge the event queue.
pub(crate) const DEFAULT_BYZ_BUDGET: u64 = 4096;

/// A Byzantine node composed of [`Behavior`]s. The actor:
/// * feeds every input (the boot, deliveries from *other* nodes, its
///   periodic [`BYZ_TICK`]) to each behavior in order;
/// * expands `Dest::All` into per-node sends, **never to itself** (no
///   loopback self-amplification);
/// * drops sends toward nodes in its selective-silence set;
/// * stops emitting once its budget is spent, so a runaway composition
///   cannot flood the simulation.
pub(crate) struct ByzantineActor<M, O> {
    behaviors: Vec<Behavior<M>>,
    silenced: Vec<NodeId>,
    tick_every: Option<u64>,
    budget: u64,
    scratch: Vec<(Dest, M)>,
    _marker: PhantomData<fn() -> O>,
}

impl<M, O> ByzantineActor<M, O> {
    /// An actor running `behaviors`, silent toward `silenced`, ticking every
    /// `tick_every` ms if set (for behaviors that emit spontaneously).
    pub(crate) fn new(
        behaviors: Vec<Behavior<M>>,
        silenced: Vec<NodeId>,
        tick_every: Option<u64>,
    ) -> Self {
        ByzantineActor {
            behaviors,
            silenced,
            tick_every: tick_every.map(|ms| ms.max(1)),
            budget: DEFAULT_BYZ_BUDGET,
            scratch: Vec::new(),
            _marker: PhantomData,
        }
    }
}

impl<M: WireSize + Clone, O> Node for ByzantineActor<M, O> {
    type Msg = M;
    type Output = O;

    fn handle(&mut self, input: Input<M>, ctx: &mut Context<'_, M, O>) {
        match &input {
            Input::Start | Input::Timer { id: BYZ_TICK } => {
                if let Some(every) = self.tick_every {
                    ctx.set_timer(BYZ_TICK, every);
                }
            }
            // Own loopback deliveries are ignored: Dest::All expansion
            // already skips `me`, and dropping strays here keeps any
            // hand-built scenario from self-amplifying.
            Input::Deliver { from, .. } if *from == ctx.me() => return,
            _ => {}
        }
        let env = BehaviorEnv { me: ctx.me(), n: ctx.n() };
        self.scratch.clear();
        for react in &mut self.behaviors {
            react(&input, &env, &mut self.scratch);
        }
        for (dest, msg) in self.scratch.drain(..) {
            let to = match dest {
                Dest::All => 0..env.n as u16,
                Dest::Node(to) => to.0..to.0 + 1,
            };
            for to in to.map(NodeId).filter(|to| *to != env.me && !self.silenced.contains(to)) {
                if self.budget == 0 {
                    return;
                }
                self.budget -= 1;
                ctx.send(to, msg.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_sim::{Action, ActionBuf, Time};

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct M(u8);
    impl WireSize for M {
        fn wire_size(&self) -> usize {
            1
        }
    }

    fn drive(actor: &mut ByzantineActor<M, ()>, input: Input<M>) -> Vec<Action<M, ()>> {
        let mut buf = ActionBuf::new();
        let mut ctx = Context::buffered(NodeId(0), 4, Time(0), &mut buf);
        actor.handle(input, &mut ctx);
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
    fn byzantine_actor_expands_broadcasts_skipping_self_and_silenced() {
        let echo = behavior(|input: &Input<M>, _, out| {
            if let Input::Deliver { msg, .. } = input {
                out.push((Dest::All, *msg));
            }
        });
        let mut actor = ByzantineActor::new(vec![echo], vec![NodeId(2)], None);
        let actions = drive(&mut actor, Input::Deliver { from: NodeId(1), msg: M(7) });
        assert_eq!(sent_to(&actions), vec![1, 3], "skips self (0) and silenced (2)");
        // Own loopback deliveries are ignored entirely.
        let actions = drive(&mut actor, Input::Deliver { from: NodeId(0), msg: M(7) });
        assert!(actions.is_empty());
    }

    #[test]
    fn byzantine_actor_budget_stops_emission() {
        let spam = behavior(|_: &Input<M>, _, out| out.push((Dest::All, M(1))));
        let mut actor = ByzantineActor::new(vec![spam], Vec::new(), None);
        actor.budget = 2;
        let actions = drive(&mut actor, Input::Deliver { from: NodeId(1), msg: M(0) });
        assert_eq!(sent_to(&actions).len(), 2, "budget caps mid-broadcast");
        let actions = drive(&mut actor, Input::Deliver { from: NodeId(1), msg: M(0) });
        assert!(sent_to(&actions).is_empty(), "budget exhausted");
    }

    #[test]
    fn byzantine_actor_ticks_rearm() {
        let mut actor = ByzantineActor::new(Vec::new(), Vec::new(), Some(50));
        let actions = drive(&mut actor, Input::Start);
        assert!(matches!(actions[..], [Action::SetTimer { id: BYZ_TICK, after: 50 }]));
        let actions = drive(&mut actor, Input::Timer { id: BYZ_TICK });
        assert!(matches!(actions[..], [Action::SetTimer { id: BYZ_TICK, after: 50 }]));
    }
}
