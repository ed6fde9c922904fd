//! The transfer transaction: canonical wire form, typed submission, and
//! the structural admission check.

use tetrabft_multishot::{SubmitError, Transaction};
use tetrabft_wire::{Reader, Wire, WireError, Writer};

use crate::account::AccountId;

/// Version tag leading every canonical transfer encoding, so the payload
/// space stays extensible (a later tx kind claims the next tag).
const TRANSFER_TAG: u8 = 1;

/// A signed-shape transfer: move `amount` from `from` to `to`, sequenced
/// by `from`'s `nonce`.
///
/// "Signed-shape" means the struct carries everything a signature would
/// cover and the nonce that makes replays detectable; actual signature
/// bytes are out of scope for the consensus reproduction (the threat model
/// here is Byzantine *replicas*, not forged client traffic).
///
/// The canonical encoding is the v2 wire idiom: a version tag then strict
/// LEB128 varints, so every field is minimal-length and
/// [`Wire::from_bytes`] rejects overlong or trailing bytes — two distinct
/// byte strings never decode to the same transfer.
///
/// # Examples
///
/// ```
/// use tetrabft_ledger::{AccountId, Transfer};
/// use tetrabft_multishot::Transaction;
/// use tetrabft_wire::Wire;
///
/// let t = Transfer { from: AccountId(1), to: AccountId(2), amount: 50, nonce: 0 };
/// let bytes = t.canonical_bytes();
/// assert_eq!(Transfer::from_bytes(&bytes)?, t);
/// assert_eq!(t.tx_id(), Transfer::from_bytes(&bytes)?.tx_id());
/// # Ok::<(), tetrabft_wire::WireError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Paying account.
    pub from: AccountId,
    /// Receiving account.
    pub to: AccountId,
    /// Amount moved.
    pub amount: u64,
    /// `from`'s sequence number for this transfer (must equal the
    /// account's current nonce at execution).
    pub nonce: u64,
}

impl Wire for Transfer {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(TRANSFER_TAG);
        w.put_varint(self.from.0);
        w.put_varint(self.to.0);
        w.put_varint(self.amount);
        w.put_varint(self.nonce);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.get_u8()?;
        if tag != TRANSFER_TAG {
            return Err(WireError::InvalidTag { what: "Transfer", tag });
        }
        Ok(Transfer {
            from: AccountId(r.get_varint_u64()?),
            to: AccountId(r.get_varint_u64()?),
            amount: r.get_varint_u64()?,
            nonce: r.get_varint_u64()?,
        })
    }
}

impl Transaction for Transfer {
    fn encode_canonical(&self, w: &mut Writer) {
        self.encode(w);
    }
}

/// The ledger's structural admission hook for
/// [`Mempool::with_admission`] / [`MultiShotNode::with_admission`]: refuses
/// at the door everything about a transfer that is checkable without state.
///
/// Non-canonical bytes are [`SubmitError::Malformed`]; a well-formed but
/// degenerate transfer (zero amount, paying itself) is
/// [`SubmitError::Rejected`]. Stateful rules — nonce sequencing, funds —
/// are deliberately *not* checked here: the mempool has no authoritative
/// state, so those reject deterministically at execution instead
/// ([`crate::ExecError`]).
///
/// [`Mempool::with_admission`]: tetrabft_multishot::Mempool::with_admission
/// [`MultiShotNode::with_admission`]: tetrabft_multishot::MultiShotNode::with_admission
///
/// # Examples
///
/// ```
/// use tetrabft_ledger::{transfer_admission, AccountId, Transfer};
/// use tetrabft_multishot::{Mempool, SubmitError, Tx};
///
/// let mut pool = Mempool::new(16).with_admission(transfer_admission);
/// let ok = Transfer { from: AccountId(1), to: AccountId(2), amount: 5, nonce: 0 };
/// pool.submit(Tx::typed(&ok))?;
/// assert!(matches!(
///     pool.submit(b"not a transfer".to_vec()),
///     Err(SubmitError::Malformed { .. })
/// ));
/// # Ok::<(), SubmitError>(())
/// ```
pub fn transfer_admission(bytes: &[u8]) -> Result<(), SubmitError> {
    let t = Transfer::from_bytes(bytes)
        .map_err(|_| SubmitError::Malformed { reason: "not a canonical transfer encoding" })?;
    if t.amount == 0 {
        return Err(SubmitError::Rejected { reason: "zero-amount transfer" });
    }
    if t.from == t.to {
        return Err(SubmitError::Rejected { reason: "self-paying transfer" });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_multishot::TxId;

    fn t(from: u64, to: u64, amount: u64, nonce: u64) -> Transfer {
        Transfer { from: AccountId(from), to: AccountId(to), amount, nonce }
    }

    #[test]
    fn canonical_roundtrip_and_stable_id() {
        let a = t(7, 9, 1_000_000, 3);
        let bytes = a.canonical_bytes();
        let back = Transfer::from_bytes(&bytes).unwrap();
        assert_eq!(back, a);
        assert_eq!(a.tx_id(), TxId::of(&bytes));
        assert_ne!(a.tx_id(), t(7, 9, 1_000_000, 4).tx_id(), "nonce is identity-bearing");
    }

    #[test]
    fn decode_rejects_trailing_and_wrong_tag() {
        let mut bytes = t(1, 2, 3, 0).canonical_bytes();
        bytes.push(0);
        assert!(matches!(
            Transfer::from_bytes(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        ));
        assert!(matches!(
            Transfer::from_bytes(&[9, 1, 2, 3, 0]),
            Err(WireError::InvalidTag { what: "Transfer", tag: 9 })
        ));
    }

    #[test]
    fn admission_vetoes_exactly_the_static_failures() {
        let check = |t: Transfer| transfer_admission(&t.canonical_bytes());
        assert_eq!(check(t(1, 2, 5, 0)), Ok(()));
        // Future nonce and overdraft-sized amounts are stateful: admitted
        // here, rejected at execution.
        assert_eq!(check(t(1, 2, u64::MAX, 999)), Ok(()));
        assert!(matches!(transfer_admission(b"garbage"), Err(SubmitError::Malformed { .. })));
        assert!(matches!(
            check(t(1, 2, 0, 0)),
            Err(SubmitError::Rejected { reason: "zero-amount transfer" })
        ));
        assert!(matches!(
            check(t(1, 1, 5, 0)),
            Err(SubmitError::Rejected { reason: "self-paying transfer" })
        ));
    }
}
