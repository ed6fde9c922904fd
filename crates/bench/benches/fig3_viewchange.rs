//! **E3 — Fig. 3**: Multi-shot TetraBFT with failed blocks. The leader of
//! slot 3 suppresses its proposal, so the pipeline stalls; the bench
//! regenerates the figure's storyline: timers expire, view-change messages
//! circulate for the aborted slots, suggest/proof messages seed Rule 1 /
//! Rule 3 in view 1, the aborted slots are re-proposed, and later slots
//! return to the view-0 good case.

use std::collections::BTreeMap;

use tetrabft::Params;
use tetrabft_multishot::{MsMessage, MultiShotNode};
use tetrabft_sim::{FilteredNode, SimBuilder, Time, TraceEvent};
use tetrabft_types::{Config, NodeId, Slot, View};

fn main() {
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let delta = 5; // 9Δ = 45-tick view timeout
    let failed_slot = 3;
    // The minimal Fig. 3 fault: slot 3's leader is honest but for its
    // view-0 proposal, which never goes out (it fails to propose without
    // crashing).
    let mut sim = SimBuilder::new(n).record_trace(true).build_boxed(|id| {
        let inner = MultiShotNode::new(cfg, Params::new(delta), id);
        if id == MultiShotNode::leader_of(&cfg, Slot(failed_slot), View(0)) {
            Box::new(FilteredNode::sending(inner, move |msg| {
                !matches!(msg, MsMessage::Proposal { view, block }
                    if view.is_zero() && block.slot.0 == failed_slot)
            }))
        } else {
            Box::new(inner)
        }
    });
    sim.run_until(Time(120));

    // Condensed timeline: first occurrence of each (slot, view, kind).
    let mut first: BTreeMap<(u64, u64, &'static str), u64> = BTreeMap::new();
    for ev in sim.trace().unwrap() {
        if let TraceEvent::Sent { at, msg, .. } = ev {
            let (slot, view) = match msg {
                MsMessage::Proposal { view, block } => (block.slot.0, view.0),
                MsMessage::Vote { slot, view, .. }
                | MsMessage::Suggest { slot, view, .. }
                | MsMessage::Proof { slot, view, .. }
                | MsMessage::ViewChange { slot, view } => (slot.0, view.0),
                // Resync traffic has no view and cannot appear in a
                // non-durable view-change run.
                MsMessage::CatchUp { .. } | MsMessage::Blocks { .. } => continue,
                // The hand-off moves queued transactions; this run submits
                // none, so none is lent.
                MsMessage::Relay { .. } => continue,
            };
            first.entry((slot, view, msg.kind())).or_insert(at.0);
        }
    }

    let mut ordered: Vec<(u64, u64, u64, &'static str)> =
        first.iter().map(|((s, v, k), t)| (*t, *s, *v, *k)).collect();
    ordered.sort();

    let fins: Vec<(u64, u64)> = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .map(|o| (o.time.0, o.output.slot.0))
        .collect();

    // The storyline assertions.
    let vc_at = ordered
        .iter()
        .find(|(_, _, _, k)| *k == "view-change")
        .expect("a view change must occur")
        .0;
    assert!(vc_at >= 9 * delta, "view change only after the 9Δ timeout");
    assert!(
        ordered.iter().any(|(_, s, v, k)| *k == "suggest" && *v == 1 && *s <= failed_slot),
        "suggest messages must be sent for the aborted slots in view 1"
    );
    assert!(
        ordered.iter().any(|(_, s, v, k)| *k == "proposal" && *v >= 1 && *s == failed_slot),
        "the failed slot must be re-proposed in a later view"
    );
    assert!(
        ordered.iter().any(|(_, s, v, k)| *k == "proposal" && *v == 0 && *s > failed_slot + 1),
        "slots beyond the recovery window restart in view 0 (Fig. 3's slot 4)"
    );
    assert!(
        fins.iter().any(|(_, s)| *s > failed_slot),
        "the chain must finalize past the failed slot"
    );
    // At most 5 blocks can be aborted (Section 6.2): slots that were
    // proposed in view 0 but had to be re-proposed.
    let aborted = ordered
        .iter()
        .filter(|(_, _, v, k)| *k == "proposal" && *v >= 1)
        .map(|(_, s, _, _)| s)
        .collect::<std::collections::BTreeSet<_>>();
    assert!(aborted.len() <= 5, "the number of aborted blocks is limited to 5");

    // `cargo test` runs this `main` for the assertions above; cargo passes
    // `--bench` only under `cargo bench`, which is when the figure is wanted.
    if !std::env::args().any(|arg| arg == "--bench") {
        return;
    }

    println!("## Fig. 3 — view change after a failed block (slot {failed_slot} suppressed)\n");
    println!("first occurrence of each (slot, view, message):\n");
    println!("tick | slot | view | message");
    println!("-----|------|------|--------");
    for (t, s, v, k) in &ordered {
        println!("{t:4} | s{s:<3} | v{v:<3} | {k}");
    }
    println!("\nfinalizations at node 0 (tick, slot): {fins:?}");
    println!("\nre-proposed (aborted) slots: {aborted:?}");
    println!("\nReproduced: Fig. 3's abort → view-change → suggest/proof → re-propose → good-case storyline.");
}
