//! Umbrella crate for the TetraBFT reproduction: re-exports every workspace
//! crate and hosts the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`).
//!
//! Start with [`consensus`] ([`tetrabft`]) for single-shot consensus,
//! [`multishot`] for the pipelined blockchain (mempool and batching
//! included), [`ledger`] for the account state machine and
//! state roots executed on top, [`engine`] for the unified driver loop
//! every runtime shares, [`sim`] for the deterministic test harness, and
//! [`net`] for real TCP deployment.
//!
//! # Examples
//!
//! ```
//! use tetrabft_suite::prelude::*;
//!
//! let cfg = Config::new(4)?;
//! let mut sim = SimBuilder::new(4)
//!     .build(|id| TetraNode::new(cfg, Params::new(100), id, Value::from_u64(3)));
//! assert!(sim.run_until_outputs(4, 100_000));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tetrabft as consensus;
pub use tetrabft_baselines as baselines;
pub use tetrabft_engine as engine;
pub use tetrabft_ledger as ledger;
pub use tetrabft_mc as mc;
pub use tetrabft_multishot as multishot;
pub use tetrabft_net as net;
pub use tetrabft_sim as sim;
pub use tetrabft_types as types;
pub use tetrabft_wire as wire;

/// One-stop imports for examples and quick experiments.
pub mod prelude {
    pub use tetrabft::{Message, Params, TetraNode};
    pub use tetrabft_ledger::{
        transfer_admission, Account, AccountId, Ledger, LedgerReplica, StateRoot,
        StateRootMismatch, Transfer,
    };
    pub use tetrabft_multishot::{
        Block, BlockHash, Finalized, Mempool, MsMessage, MultiShotNode, SubmitError, Transaction,
        Tx, TxId, GENESIS_HASH,
    };
    pub use tetrabft_sim::{Input, Node, Sim, SimBuilder, Submitter, Time};
    pub use tetrabft_types::{Config, NodeId, Phase, Slot, Value, View};
}
