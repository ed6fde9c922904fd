//! The typed transaction surface: what clients submit instead of raw
//! byte blobs.
//!
//! A [`Transaction`] is anything with a *canonical* wire encoding and a
//! [`TxId`] derived from it: the word-step digest of those bytes, which a
//! block's hash folds once per transaction. The chain carries opaque bytes,
//! but admission works on a typed envelope ([`Tx`]) that knows its digest,
//! so the mempool deduplicates on identity instead of re-hashing and
//! byte-comparing payloads, and an application (e.g. `tetrabft-ledger`) can
//! veto structurally-invalid bytes at the door via an admission hook
//! ([`TxCheck`]). An opaque payload enters as [`Tx::raw`] (or the
//! `From<Vec<u8>>` conversion, which is the same thing): the bytes are
//! their own canonical encoding — what every TCP client frame is.

use std::fmt;

use tetrabft_types::{fold_bytes, tagged};
use tetrabft_wire::Writer;

/// A transaction's identity: its canonical encoding folded from domain tag
/// 4 by [`tetrabft_types::fold_bytes`].
///
/// Two transactions with the same canonical bytes have the same id by
/// construction, whether they were submitted typed or as raw bytes — so
/// dedup, requeue-after-lost-view-change, and durable-restore all agree on
/// what "the same transaction" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub u64);

#[cfg(test)]
thread_local! {
    /// Payloads this thread digested, alone or inside a block's hash.
    pub(crate) static HASHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl TxId {
    /// Digests `bytes`.
    pub fn of(bytes: &[u8]) -> Self {
        #[cfg(test)]
        HASHES.with(|count| count.set(count.get() + 1));
        TxId(fold_bytes(const { tagged(4) }, bytes))
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx:{:016x}", self.0)
    }
}

/// A client-submittable transaction: canonical encoding plus the digest
/// identity derived from it.
///
/// Implementors define [`Transaction::encode_canonical`]; the id is always
/// the digest of those bytes, so `tx_id` must not be overridden to disagree
/// with the encoding (everything downstream — dedup, requeue, restore —
/// assumes `tx_id == TxId::of(canonical_bytes)`).
pub trait Transaction {
    /// Writes the one true encoding of this transaction.
    fn encode_canonical(&self, w: &mut Writer);

    /// The canonical bytes (what a block will carry).
    fn canonical_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode_canonical(&mut w);
        w.as_bytes().to_vec()
    }

    /// The transaction's identity: digest of the canonical encoding.
    fn tx_id(&self) -> TxId {
        TxId::of(&self.canonical_bytes())
    }
}

/// The admission envelope: canonical bytes plus the [`TxId`] computed once
/// at the submission boundary.
///
/// This is what [`crate::Mempool::submit`] takes, what
/// [`crate::MultiShotNode`] accepts as its [`Submitter`] request, and what
/// a `tetrabft-net` node decodes each client frame into. Blocks still
/// store the bytes alone — the envelope exists only between client and
/// mempool.
///
/// [`Submitter`]: tetrabft_engine::Submitter
///
/// # Examples
///
/// ```
/// use tetrabft_multishot::{Transaction, Tx};
///
/// struct Memo(&'static str);
/// impl Transaction for Memo {
///     fn encode_canonical(&self, w: &mut tetrabft_wire::Writer) {
///         w.put_slice(self.0.as_bytes());
///     }
/// }
///
/// let typed = Tx::typed(&Memo("pay"));
/// let raw = Tx::from(b"pay".to_vec());
/// assert_eq!(typed.id(), raw.id(), "same canonical bytes, same identity");
/// assert_eq!(typed, raw, "and the same envelope");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tx {
    id: TxId,
    bytes: Vec<u8>,
}

impl Tx {
    /// Wraps a typed transaction: encodes canonically, digests once.
    pub fn typed<T: Transaction>(tx: &T) -> Self {
        Tx::raw(tx.canonical_bytes())
    }

    /// Wraps an opaque payload: the bytes are their own canonical encoding.
    pub fn raw(bytes: Vec<u8>) -> Self {
        Tx { id: TxId::of(&bytes), bytes }
    }

    /// The transaction's identity.
    #[inline]
    pub fn id(&self) -> TxId {
        self.id
    }

    /// The canonical payload bytes (what the block will carry).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Unwraps the payload.
    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl From<Vec<u8>> for Tx {
    fn from(bytes: Vec<u8>) -> Self {
        Tx::raw(bytes)
    }
}

/// Over a framed client connection the frame payload *is* the (opaque)
/// transaction, so submitting clients and the chain agree on the identity
/// for free: both sides digest the same bytes into the same [`TxId`] —
/// which is exactly what lets a load generator match its submissions
/// against the finalized stream without any richer client protocol.
impl tetrabft_engine::FrameRequest for Tx {
    fn from_frame(bytes: &[u8]) -> Option<Self> {
        (!bytes.is_empty()).then(|| Tx::raw(bytes.to_vec()))
    }
}

impl<T: Transaction> From<&T> for Tx {
    fn from(tx: &T) -> Self {
        Tx::typed(tx)
    }
}

/// An admission hook: the application's veto at the mempool door, over a
/// payload's canonical bytes.
///
/// Runs after the size/emptiness checks and before dedup/capacity; a
/// returned error refuses the submission with that typed reason. Stateless
/// by design (a plain `fn`, so [`crate::Mempool`] stays `Clone`): it covers
/// what is *statically* checkable — canonical decode, structural validity —
/// while stateful rules (nonces, balances) are enforced deterministically
/// at execution by the application replica.
pub type TxCheck = fn(&[u8]) -> Result<(), crate::SubmitError>;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A typed transaction whose canonical encoding is its payload.
    pub(crate) struct Memo(pub &'static [u8]);

    impl Transaction for Memo {
        fn encode_canonical(&self, w: &mut Writer) {
            w.put_slice(self.0);
        }
    }

    #[test]
    fn raw_and_typed_agree_on_identity() {
        let bytes = b"transfer 7".to_vec();
        let typed = Tx::typed(&Memo(b"transfer 7"));
        let raw = Tx::raw(bytes.clone());
        assert_eq!(typed.id(), raw.id());
        assert_eq!(typed.bytes(), raw.bytes());
        assert_eq!(typed.id(), TxId::of(&bytes));
    }

    #[test]
    fn id_is_content_sensitive() {
        assert_ne!(TxId::of(b"a"), TxId::of(b"b"));
        assert_ne!(Tx::raw(b"a".to_vec()).id(), Tx::raw(b"ab".to_vec()).id());
    }

    #[test]
    fn conversions_cover_legacy_and_typed_callers() {
        let from_vec: Tx = b"legacy".to_vec().into();
        let from_typed: Tx = (&Memo(b"legacy")).into();
        assert_eq!(from_vec.id(), from_typed.id());
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(TxId(0xAB).to_string(), "tx:00000000000000ab");
    }
}
