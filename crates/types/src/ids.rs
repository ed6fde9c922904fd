//! Identifier newtypes: [`NodeId`], [`View`], [`Slot`].

use std::fmt;

/// Identity of a node in the system.
///
/// Nodes are numbered `0..n`. The type is a transparent newtype so it can be
/// used as a vector index via [`NodeId::index`].
///
/// # Examples
///
/// ```
/// use tetrabft_types::NodeId;
/// let id = NodeId(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(id.to_string(), "n3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// Returns the id as a `usize`, convenient for indexing per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u16> for NodeId {
    fn from(raw: u16) -> Self {
        NodeId(raw)
    }
}

/// A view (round) number.
///
/// Views start at [`View::ZERO`]; view numbers only ever grow. The protocol
/// frequently asks for "the next view", provided by [`View::next`].
///
/// # Examples
///
/// ```
/// use tetrabft_types::View;
/// assert_eq!(View::ZERO.next(), View(1));
/// assert!(View(2) > View(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct View(pub u64);

impl View {
    /// The first view. All values are safe at view zero (Rule 1 / Rule 3).
    pub const ZERO: View = View(0);

    /// The successor view.
    #[inline]
    pub fn next(self) -> View {
        View(self.0 + 1)
    }

    /// The predecessor view, or `None` for view zero.
    #[cfg(test)]
    fn prev(self) -> Option<View> {
        self.0.checked_sub(1).map(View)
    }

    /// `true` for [`View::ZERO`].
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for View {
    fn from(raw: u64) -> Self {
        View(raw)
    }
}

/// A slot (block height) in multi-shot TetraBFT.
///
/// Slots are numbered from 1 as in Algorithm 3 of the paper; slot 0 denotes
/// the genesis block.
///
/// # Examples
///
/// ```
/// use tetrabft_types::Slot;
/// assert_eq!(Slot::GENESIS.next(), Slot(1));
/// assert_eq!(Slot(4).prev(), Some(Slot(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot(pub u64);

impl Slot {
    /// The genesis slot; holds the empty genesis block, never voted on.
    pub const GENESIS: Slot = Slot(0);

    /// The successor slot.
    #[inline]
    pub fn next(self) -> Slot {
        Slot(self.0 + 1)
    }

    /// The predecessor slot, or `None` for genesis.
    #[inline]
    pub fn prev(self) -> Option<Slot> {
        self.0.checked_sub(1).map(Slot)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u64> for Slot {
    fn from(raw: u64) -> Self {
        Slot(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip_and_display() {
        let id = NodeId::from(7u16);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "n7");
    }

    #[test]
    fn view_ordering_and_navigation() {
        assert!(View::ZERO.is_zero());
        assert_eq!(View::ZERO.prev(), None);
        assert_eq!(View(3).prev(), Some(View(2)));
        assert_eq!(View(3).next(), View(4));
        assert!(View(10) > View(9));
    }

    #[test]
    fn slot_navigation() {
        assert_eq!(Slot::GENESIS.prev(), None);
        assert_eq!(Slot(1).prev(), Some(Slot::GENESIS));
        assert_eq!(Slot(1).next(), Slot(2));
        assert_eq!(format!("{}", Slot(9)), "s9");
    }
}
