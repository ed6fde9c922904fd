//! The liveness driver of Algorithms 2 and 3: the slot timers, view-change
//! requests and echo, and DESIGN.md §6's departures from Algorithm 3 (the
//! silent bit, the start-of-slot request, the `PeerDown` hint and the
//! withdrawal). It changes the safety core only by [`Chain::enter`] and
//! [`Chain::open`]: it decides when a view is left, never what is voted.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use tetrabft::{Params, ViewChanges, ViewVerdict};
use tetrabft_engine::TimerId;
use tetrabft_types::{Config, NodeId, Slot, View};

use crate::chain::Chain;
use crate::msg::MsMessage;
use crate::node::Ctx;

/// Keeps in `held` the view-change request that reaches further: prefer
/// higher view, then lower slot (a lower slot covers strictly more of the
/// chain).
fn raise(held: &mut Option<(Slot, View)>, (slot, view): (Slot, View)) {
    if held.is_none_or(|(s_h, v_h)| (view, Reverse(slot)) > (v_h, Reverse(s_h))) {
        *held = Some((slot, view));
    }
}

/// The view-change state of one live slot.
#[derive(Debug)]
pub(crate) struct SlotWatch {
    /// Whether the slot's `9Δ` timer expired in the current view: unlike a
    /// proposal seen, this licenses moving a never-proposed slot on.
    pub(crate) timer_expired: bool,
    /// Per-peer view-change requests covering this slot: the highest view
    /// each peer asked for at this slot or below.
    pub(crate) requests: ViewChanges,
    /// Whether this node asked for view 1 as the slot started, taking its
    /// view-0 leader for dead.
    pub(crate) suspected: bool,
}

impl SlotWatch {
    pub(crate) fn new(cfg: &Config) -> Self {
        SlotWatch { timer_expired: false, requests: ViewChanges::new(cfg), suspected: false }
    }
}

#[derive(Debug)]
pub(crate) struct Liveness {
    pub(crate) params: Params,
    /// Each live slot's watch, made the first time the slot matters here
    /// and dropped when it retires.
    slots: BTreeMap<Slot, SlotWatch>,
    /// Per-peer latest raw view-change pair (for echoing).
    vc_raw: Vec<Option<(Slot, View)>>,
    /// Highest view-change this node broadcast.
    vc_sent: Option<(Slot, View)>,
    /// Per-peer *silent* bit: a view-0 slot the peer leads timed out with
    /// no proposal ever seen, or the transport saw its stream end, and the
    /// peer has not been heard voting for a known block (or proposing)
    /// since. A silent leader's next slot asks for view 1 the moment it
    /// starts instead of 9Δ later, and nothing is lent to it.
    silent: Vec<bool>,
}

impl Liveness {
    pub(crate) fn new(cfg: &Config, params: Params) -> Self {
        Liveness {
            params,
            slots: BTreeMap::new(),
            vc_raw: vec![None; cfg.n()],
            vc_sent: None,
            silent: vec![false; cfg.n()],
        }
    }

    /// Whether `slot`'s view-0 leader is held silent.
    fn leader_silent(&self, chain: &Chain, slot: Slot) -> bool {
        self.silent[chain.leader(slot, View::ZERO).index()]
    }

    fn watch(&mut self, chain: &Chain, slot: Slot) -> &mut SlotWatch {
        self.slots.entry(slot).or_insert_with(|| SlotWatch::new(&chain.cfg))
    }

    pub(crate) fn start(&mut self, chain: &mut Chain, ctx: &mut Ctx<'_>) {
        self.open(chain, chain.finalized.next(), ctx);
        // Restored slots were opened without a context; every live slot
        // (fresh or restored) gets its timer here.
        for slot in chain.slots.keys() {
            ctx.set_timer(TimerId(slot.0), self.params.view_timeout());
        }
    }

    /// Opens `slot` in the core, if it lies in the window and is not live.
    pub(crate) fn open(&mut self, chain: &mut Chain, slot: Slot, ctx: &mut Ctx<'_>) {
        if chain.open(slot).is_some() {
            self.opened(chain, slot, ctx);
        }
    }

    /// A slot the core just opened starts its timer, on a clean view-change
    /// slate: a view change applies to the slots active when it circulated,
    /// not to later ones, which "default to starting from view 0" (Fig. 3's
    /// slot 4) rather than go straight to a possibly-dead rotated leader.
    pub(crate) fn opened(&mut self, chain: &Chain, slot: Slot, ctx: &mut Ctx<'_>) {
        if self.leader_silent(chain, slot) {
            Self::suspect(self.watch(chain, slot), slot, chain.me, ctx);
        }
        ctx.set_timer(TimerId(slot.0), self.params.view_timeout());
    }

    /// A leader that let its last slot time out, or whose stream the
    /// transport saw end, and has not voted since is taken for dead: ask
    /// for view 1 now — a request every node was always free to send — and
    /// keep the 9Δ timer as retransmission.
    fn suspect(watch: &mut SlotWatch, slot: Slot, me: NodeId, ctx: &mut Ctx<'_>) {
        watch.suspected = true;
        watch.requests.record(me, View(1));
        ctx.broadcast(MsMessage::ViewChange { slot, view: View(1) });
    }

    /// `peer` proposed, or voted for a block this node knows at a live
    /// slot: it is in step.
    pub(crate) fn heard(&mut self, peer: NodeId) {
        self.silent[peer.index()] = false;
    }

    /// The transport's hint that `peer`'s stream ended: the silent bit a
    /// timer would set 9Δ from now, and for every live slot `peer` leads in
    /// view 0 and has not proposed in, what a silent leader's fresh slot
    /// does as it starts. Asked once per slot, however often it is hinted.
    pub(crate) fn on_peer_down(&mut self, chain: &Chain, peer: NodeId, ctx: &mut Ctx<'_>) {
        if peer == chain.me || peer.index() >= self.silent.len() {
            return;
        }
        self.silent[peer.index()] = true;
        for (slot, st) in &chain.slots {
            let watch = self.watch(chain, *slot);
            let unheard = st.view.is_zero() && !st.saw_proposal && !watch.suspected;
            if unheard && chain.leader(*slot, View::ZERO) == peer {
                Self::suspect(watch, *slot, chain.me, ctx);
            }
        }
    }

    pub(crate) fn on_view_change(
        &mut self,
        chain: &mut Chain,
        from: NodeId,
        (slot, view): (Slot, View),
        ctx: &mut Ctx<'_>,
    ) {
        // A peer that started a silent leader's slot a moment before this
        // node would: start it too (and ask with it), or the request finds
        // no slot to support and the slot waits out its timer.
        if slot.prev().is_some_and(|prev| chain.slots.contains_key(&prev))
            && self.leader_silent(chain, slot)
        {
            self.open(chain, slot, ctx);
        }
        raise(&mut self.vc_raw[from.index()], (slot, view));
        // Per-slot support: the request covers every live slot ≥ slot.
        for live in chain.slots.range(slot..).map(|(live, _)| *live) {
            self.watch(chain, live).requests.record(from, view);
        }
    }

    pub(crate) fn on_timeout(&mut self, chain: &Chain, slot: Slot, ctx: &mut Ctx<'_>) {
        let Some(st) = chain.slots.get(&slot) else { return };
        self.watch(chain, slot).timer_expired = true;
        let target = st.view.next();
        if st.view.is_zero() && !st.saw_proposal {
            self.silent[chain.leader(slot, View::ZERO).index()] = true;
        }
        // One view-change per stalled slot (Algorithm 3 lines 6–8); the
        // re-armed timer doubles as post-GST retransmission.
        raise(&mut self.vc_sent, (slot, target));
        ctx.broadcast(MsMessage::ViewChange { slot, view: target });
        ctx.set_timer(TimerId(slot.0), self.params.view_timeout());
    }

    /// Echo a view-change supported by a blocking set (Algorithm 2 lines
    /// 3–6), so that correct nodes converge on the change within one delay.
    pub(crate) fn step_echo(&mut self, chain: &Chain, ctx: &mut Ctx<'_>) -> bool {
        let mut pairs: Vec<(Slot, View)> = self.vc_raw.iter().flatten().copied().collect();
        pairs.sort_unstable_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        pairs.dedup();
        for (slot, view) in pairs {
            if self.vc_sent.is_some_and(|(_, v)| v >= view) {
                continue;
            }
            let support = self.vc_raw.iter().flatten().filter(|(s, v)| *s <= slot && *v >= view);
            if chain.cfg.is_blocking(support.count()) {
                raise(&mut self.vc_sent, (slot, view));
                ctx.broadcast(MsMessage::ViewChange { slot, view });
                return true;
            }
        }
        false
    }

    /// Move a slot to a higher view once a quorum supports it (Algorithm 2
    /// lines 7–11): the core enters it, and its timer restarts.
    pub(crate) fn step_enter(&mut self, chain: &mut Chain, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        let (me, silent) = (chain.me, self.leader_silent(chain, slot));
        let st = &chain.slots[&slot];
        let watch = self.watch(chain, slot);
        // A request made on suspicion alone stands while the leader
        // stays silent, or once a peer is seen in a later view of this
        // slot. Heard from again before anyone moved, it is taken back:
        // where only some nodes took the leader for dead, all move or
        // none does.
        let mut condemned = watch.timer_expired;
        if watch.suspected && st.view.is_zero() && !watch.timer_expired {
            let seen_moved = |peer| st.regs.peer(peer).proof().is_some();
            condemned = silent || chain.cfg.nodes().any(seen_moved);
            if !condemned {
                watch.requests.withdraw(me);
            } else if watch.requests.request(me).is_none() {
                watch.requests.record(me, View(1));
                ctx.broadcast(MsMessage::ViewChange { slot, view: View(1) });
            }
        }
        let ViewVerdict::Enter(target) = watch.requests.poll(st.view) else { return false };
        // Never-proposed slots stay in view 0 (Algorithm 3 line 10,
        // Fig. 3's slot 4) unless their own timer says the view-0
        // leader is dead, or its last slot's did and it is silent since.
        if !st.saw_proposal && !condemned {
            return false;
        }
        let Some((suggest, proof)) = chain.enter(slot, target) else { return false };
        watch.timer_expired = false;
        ctx.set_timer(TimerId(slot.0), self.params.view_timeout());
        ctx.send(chain.leader(slot, target), suggest);
        ctx.broadcast(proof);
        true
    }

    /// `slot` committed: its timer goes. A proposal starts the slot after
    /// it (Algorithm 3 line 4) unless that slot lay beyond the window; the
    /// window just moved, so start it now — its leader may be this node,
    /// and nothing else would.
    pub(crate) fn retire(&mut self, chain: &mut Chain, slot: Slot, ctx: &mut Ctx<'_>) {
        ctx.cancel_timer(TimerId(slot.0));
        self.slots.remove(&slot);
        if let Some((top, _)) = chain.slots.last_key_value().filter(|(_, st)| st.saw_proposal) {
            self.open(chain, top.next(), ctx);
        }
    }

    /// Whom to lend to as this node casts its view-0 vote at `voted`: the
    /// leader of the next slot is proposing at this instant and the one
    /// after it proposes one hop from now, so if this node is neither, what
    /// it has queued reaches a block sooner through that second leader than
    /// by waiting for a turn — unless that leader is silent or has proposed.
    pub(crate) fn borrower_after(&self, chain: &Chain, voted: Slot) -> Option<(Slot, NodeId)> {
        let slot = voted.next().next();
        let borrower = chain.leader(slot, View::ZERO);
        let open = borrower != chain.me
            && !self.silent[borrower.index()]
            && chain.leader(voted.next(), View::ZERO) != chain.me
            && !chain.slots.get(&slot).is_some_and(|st| st.saw_proposal);
        open.then_some((slot, borrower))
    }
}
