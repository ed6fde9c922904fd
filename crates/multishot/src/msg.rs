//! Message types of Multi-shot TetraBFT (Section 6).

use std::sync::Arc;

use tetrabft::{ProofData, SuggestData};
use tetrabft_engine::WireSize;
use tetrabft_types::{AuditClaim, Phase, Slot, Value, View};
use tetrabft_wire::{Reader, Wire, WireError, Writer};

use crate::block::{decode_txs, encode_txs, Block, BlockHash, MAX_TXS};

/// A Multi-shot TetraBFT message.
///
/// The good case uses only [`MsMessage::Proposal`] and [`MsMessage::Vote`],
/// plus a [`MsMessage::Relay`] where a node holds transactions and does not
/// lead one of the next two slots; suggest/proof/view-change traffic
/// appears only during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MsMessage {
    /// A leader's block proposal for `(block.slot, view)`.
    Proposal {
        /// View the proposal is made in (the block itself is view-free so
        /// that re-proposals keep their identity).
        view: View,
        /// The proposed block.
        block: Block,
    },
    /// `⟨vote, slot, view, value⟩` — the multiplexed vote of Section 6.3:
    /// `vote-1` for `slot`, and `vote-2/3/4` for the three ancestors of
    /// `hash`.
    Vote {
        /// Slot being voted on.
        slot: Slot,
        /// View of `slot` at the time of voting.
        view: View,
        /// Hash of the block voted for.
        hash: BlockHash,
    },
    /// Per-slot suggest, sent to the slot's leader during view change.
    Suggest {
        /// Aborted slot.
        slot: Slot,
        /// New view for the slot.
        view: View,
        /// Historical vote-2/vote-3 roles recorded for this slot.
        data: SuggestData,
    },
    /// Per-slot proof, broadcast during view change.
    Proof {
        /// Aborted slot.
        slot: Slot,
        /// New view for the slot.
        view: View,
        /// Historical vote-1/vote-4 roles recorded for this slot.
        data: ProofData,
    },
    /// `⟨view-change, slot, view⟩` — requests view `view` for every slot
    /// `≥ slot` (Algorithm 2).
    ViewChange {
        /// Lowest aborted slot.
        slot: Slot,
        /// Requested view.
        view: View,
    },
    /// A restarted (or lagging) node asking peers for the finalized blocks
    /// it is missing, starting at `from_slot`. Durable peers answer with a
    /// [`MsMessage::Blocks`] range served from their on-disk chain log.
    CatchUp {
        /// First slot the requester does not have.
        from_slot: Slot,
    },
    /// A contiguous range of finalized blocks answering a
    /// [`MsMessage::CatchUp`]. Hashes are *not* carried: receivers recompute
    /// them (the channel is authenticated but the sender may still lie, and
    /// a recomputed hash plus f+1 agreeing peers is what makes a catch-up
    /// block trustworthy).
    Blocks {
        /// The blocks, in ascending slot order.
        blocks: Vec<Block>,
    },
    /// The hand-off: queued transactions lent to the view-0 leader of
    /// `slot`, sent beside the lender's view-0 vote for `slot − 2` so that
    /// they arrive as that leader becomes ready to propose, and bound to
    /// that vote: the borrower uses the loan only in a block whose chain
    /// has, at `slot − 2`, the block the vote names. The lender keeps owing
    /// the transactions until it sees what the slot's block carries; the
    /// borrower checks each like a client submission, puts what fits
    /// behind its own batch, and keeps nothing (DESIGN.md §3).
    Relay {
        /// The slot whose view-0 block should carry the transactions.
        slot: Slot,
        /// The payloads, in the lender's admission order. Shared, like
        /// [`Block::txs`]: the lender holds the same buffer until the loan
        /// is settled.
        txs: Arc<Vec<Vec<u8>>>,
    },
}

/// Most blocks one [`MsMessage::Blocks`] decode will accept; responders
/// send at most half this (`CATCHUP_BATCH` in `catchup.rs`), so the headroom
/// only rejects hostile encodings, never honest ones.
pub(crate) const MAX_CATCHUP_BLOCKS: usize = 64;

/// Most transactions one [`MsMessage::Relay`] decode will accept: what a
/// block's decode accepts. An honest lender sends at most `max_block_txs`
/// and a borrower buffers at most that many per slot, so, like
/// [`MAX_CATCHUP_BLOCKS`], the bound only refuses hostile encodings.
pub(crate) const MAX_RELAY_TXS: usize = MAX_TXS;

impl MsMessage {
    /// Short human-readable kind, used by traces and the figure benches.
    pub fn kind(&self) -> &'static str {
        match self {
            MsMessage::Proposal { .. } => "proposal",
            MsMessage::Vote { .. } => "vote",
            MsMessage::Suggest { .. } => "suggest",
            MsMessage::Proof { .. } => "proof",
            MsMessage::ViewChange { .. } => "view-change",
            MsMessage::CatchUp { .. } => "catch-up",
            MsMessage::Blocks { .. } => "blocks",
            MsMessage::Relay { .. } => "relay",
        }
    }
}

const TAG_PROPOSAL: u8 = 1;
const TAG_VOTE: u8 = 2;
const TAG_SUGGEST: u8 = 3;
const TAG_PROOF: u8 = 4;
const TAG_VIEW_CHANGE: u8 = 5;
const TAG_CATCH_UP: u8 = 6;
const TAG_BLOCKS: u8 = 7;
const TAG_RELAY: u8 = 8;

impl Wire for MsMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            MsMessage::Proposal { view, block } => {
                w.put_u8(TAG_PROPOSAL);
                view.encode(w);
                block.encode(w);
            }
            MsMessage::Vote { slot, view, hash } => {
                w.put_u8(TAG_VOTE);
                slot.encode(w);
                view.encode(w);
                hash.encode(w);
            }
            MsMessage::Suggest { slot, view, data } => {
                w.put_u8(TAG_SUGGEST);
                slot.encode(w);
                view.encode(w);
                data.encode_with_base(*view, w);
            }
            MsMessage::Proof { slot, view, data } => {
                w.put_u8(TAG_PROOF);
                slot.encode(w);
                view.encode(w);
                data.encode_with_base(*view, w);
            }
            MsMessage::ViewChange { slot, view } => {
                w.put_u8(TAG_VIEW_CHANGE);
                slot.encode(w);
                view.encode(w);
            }
            MsMessage::CatchUp { from_slot } => {
                w.put_u8(TAG_CATCH_UP);
                from_slot.encode(w);
            }
            MsMessage::Blocks { blocks } => {
                w.put_u8(TAG_BLOCKS);
                w.put_varint(blocks.len() as u64);
                for b in blocks {
                    b.encode(w);
                }
            }
            MsMessage::Relay { slot, txs } => {
                w.put_u8(TAG_RELAY);
                slot.encode(w);
                encode_txs(txs, w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            TAG_PROPOSAL => {
                Ok(MsMessage::Proposal { view: View::decode(r)?, block: Block::decode(r)? })
            }
            TAG_VOTE => Ok(MsMessage::Vote {
                slot: Slot::decode(r)?,
                view: View::decode(r)?,
                hash: BlockHash::decode(r)?,
            }),
            TAG_SUGGEST => {
                let slot = Slot::decode(r)?;
                let view = View::decode(r)?;
                Ok(MsMessage::Suggest { slot, view, data: SuggestData::decode_with_base(view, r)? })
            }
            TAG_PROOF => {
                let slot = Slot::decode(r)?;
                let view = View::decode(r)?;
                Ok(MsMessage::Proof { slot, view, data: ProofData::decode_with_base(view, r)? })
            }
            TAG_VIEW_CHANGE => {
                Ok(MsMessage::ViewChange { slot: Slot::decode(r)?, view: View::decode(r)? })
            }
            TAG_CATCH_UP => Ok(MsMessage::CatchUp { from_slot: Slot::decode(r)? }),
            TAG_BLOCKS => {
                let count = r.get_varint_u64()?;
                if count > MAX_CATCHUP_BLOCKS as u64 {
                    let declared = usize::try_from(count).unwrap_or(usize::MAX);
                    return Err(WireError::LengthOverflow { declared, limit: MAX_CATCHUP_BLOCKS });
                }
                let blocks = (0..count).map(|_| Block::decode(r)).collect::<Result<_, _>>()?;
                Ok(MsMessage::Blocks { blocks })
            }
            TAG_RELAY => {
                Ok(MsMessage::Relay { slot: Slot::decode(r)?, txs: decode_txs(r, MAX_RELAY_TXS)? })
            }
            tag => Err(WireError::InvalidTag { what: "MsMessage", tag }),
        }
    }
}

impl WireSize for MsMessage {
    fn wire_size(&self) -> usize {
        self.wire_len()
    }
    fn wire_kind(&self) -> &'static str {
        self.kind()
    }
    /// Proposals and votes claim the write-once `(slot, view)` register, with
    /// the block hash standing in as the claimed value (hashes are the
    /// identity the chain agrees on). Recovery and catch-up traffic carries
    /// history, a relay carries payloads: neither claims anything.
    fn audit_claim(&self) -> Option<AuditClaim> {
        match self {
            MsMessage::Proposal { view, block } => Some(AuditClaim {
                slot: Some(block.slot),
                view: *view,
                phase: None,
                value: Value::from_u64(block.hash().0),
            }),
            MsMessage::Vote { slot, view, hash } => Some(AuditClaim {
                slot: Some(*slot),
                view: *view,
                phase: Some(Phase::VOTE1),
                value: Value::from_u64(hash.0),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::GENESIS_HASH;

    fn roundtrip(msg: MsMessage) {
        let bytes = msg.to_bytes();
        assert_eq!(MsMessage::from_bytes(&bytes).unwrap(), msg);
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(MsMessage::Proposal {
            view: View(1),
            block: Block::new(Slot(3), GENESIS_HASH, vec![b"tx".to_vec()]),
        });
        roundtrip(MsMessage::Vote { slot: Slot(3), view: View(0), hash: BlockHash(77) });
        roundtrip(MsMessage::Suggest {
            slot: Slot(1),
            view: View(1),
            data: SuggestData::default(),
        });
        roundtrip(MsMessage::Proof { slot: Slot(1), view: View(1), data: ProofData::default() });
        roundtrip(MsMessage::ViewChange { slot: Slot(1), view: View(1) });
        roundtrip(MsMessage::CatchUp { from_slot: Slot(42) });
        roundtrip(MsMessage::Blocks { blocks: vec![] });
        roundtrip(MsMessage::Blocks {
            blocks: vec![
                Block::new(Slot(1), GENESIS_HASH, vec![b"a".to_vec()]),
                Block::new(Slot(2), BlockHash(77), vec![b"b".to_vec(), b"c".to_vec()]),
            ],
        });
        roundtrip(MsMessage::Relay { slot: Slot(9), txs: Arc::new(vec![]) });
        roundtrip(MsMessage::Relay {
            slot: Slot(u64::MAX),
            txs: Arc::new(vec![b"a".to_vec(), vec![], vec![7; 300]]),
        });
    }

    #[test]
    fn hostile_relay_count_and_length_rejected() {
        // Like a block's list: a count past MAX_RELAY_TXS is refused before
        // any allocation, with no payloads attached.
        let relay_of = |fill: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            w.put_u8(8); // TAG_RELAY
            Slot(3).encode(&mut w);
            fill(&mut w);
            MsMessage::from_bytes(w.as_bytes())
        };
        assert!(matches!(
            relay_of(&|w| w.put_varint(MAX_RELAY_TXS as u64 + 1)),
            Err(WireError::LengthOverflow { limit: MAX_RELAY_TXS, .. })
        ));
        assert!(matches!(
            relay_of(&|w| w.put_varint(u64::MAX)),
            Err(WireError::LengthOverflow { .. })
        ));
        // Exactly the limit passes as a *count* and fails on the missing
        // payloads, having reserved no more than the bytes present.
        assert!(matches!(
            relay_of(&|w| w.put_varint(MAX_RELAY_TXS as u64)),
            Err(e) if !matches!(e, WireError::LengthOverflow { .. })
        ));
        // One payload declaring 2^40 bytes, or 100 with 3 attached.
        for declared in [1u64 << 40, 100] {
            let verdict = relay_of(&|w| {
                w.put_varint(1);
                w.put_varint(declared);
                w.put_slice(b"abc");
            });
            assert!(verdict.is_err(), "a {declared}-byte payload with 3 bytes present");
        }
    }

    #[test]
    fn hostile_blocks_count_rejected() {
        // A Blocks frame claiming more than MAX_CATCHUP_BLOCKS entries must
        // be refused before any allocation, even with no bodies attached.
        let mut w = Writer::new();
        w.put_u8(7); // TAG_BLOCKS
        w.put_varint(MAX_CATCHUP_BLOCKS as u64 + 1);
        assert!(matches!(
            MsMessage::from_bytes(w.as_bytes()),
            Err(WireError::LengthOverflow { .. })
        ));
        // Exactly the limit is fine as a *count*; it then fails on the
        // missing bodies, not the bound.
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_varint(MAX_CATCHUP_BLOCKS as u64);
        assert!(!matches!(
            MsMessage::from_bytes(w.as_bytes()),
            Err(WireError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(matches!(
            MsMessage::from_bytes(&[0]),
            Err(WireError::InvalidTag { what: "MsMessage", tag: 0 })
        ));
    }

    #[test]
    fn votes_are_tiny() {
        // Good-case traffic is votes; they must be O(1) and small: a
        // realistic vote is tag + slot + view + 8-byte hash = 11 B.
        let v = MsMessage::Vote { slot: Slot(9), view: View(0), hash: BlockHash(1) };
        assert_eq!(v.wire_len(), 11);
    }

    #[test]
    fn suggest_proof_roundtrip_with_votes() {
        use tetrabft_types::{Value, VoteInfo};
        let vote = |view: u64| Some(VoteInfo::new(View(view), Value::from_u64(9)));
        roundtrip(MsMessage::Suggest {
            slot: Slot(40),
            view: View(3),
            data: SuggestData { vote2: vote(2), prev_vote2: None, vote3: vote(u64::MAX) },
        });
        roundtrip(MsMessage::Proof {
            slot: Slot(7),
            view: View(1),
            data: ProofData { vote1: vote(0), prev_vote1: vote(1), vote4: None },
        });
    }
}
