//! The digest, pinned. Every literal below was captured when the ledger's
//! digest became one word step per 64-bit word (DESIGN.md §9). Roots are
//! consensus-visible — replicas cross-check them — so a literal that moves
//! is a format change and must be made as one. Whether the trie's write
//! path computes the definition is checked by `tests/ledger.rs`, which
//! evaluates it from scratch; these pins catch a change to the definition
//! itself, that evaluator's copy included.
//!
//! One scripted run per id distribution: several blocks of valid
//! transfers, one block that only rejects, and one transfer whose receiver
//! does not exist yet and lands beside an existing leaf, splitting it. Its
//! final chained root pins every block's root before it, and the bare
//! account digest pins the leaf and branch steps apart from the chain.

use tetrabft_ledger::{AccountId, Ledger, Transfer};
use tetrabft_multishot::Transaction;

/// The benchmark's id spread (`benchmark/src/schedule.rs`): a bijection
/// over the whole key space, so the trie is shallow and balanced.
fn hashed(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs the script over `ids` (payers and receivers) plus `newcomer`, an
/// id outside the genesis set. Returns the final chained root and the bare
/// account digest of the final state.
fn scripted_run(ids: &[u64], newcomer: u64) -> (u64, u64) {
    let n = ids.len();
    let mut ledger = Ledger::new(ids.iter().map(|&id| (AccountId(id), 1_000)));
    let mut nonces = vec![0u64; n];
    let transfer = |from: u64, to: u64, amount: u64, nonce: u64| {
        Transfer { from: AccountId(from), to: AccountId(to), amount, nonce }.canonical_bytes()
    };
    // The next valid transfer out of `ids[from]`.
    let pay = |nonces: &mut [u64], from: usize, to: u64, amount: u64| {
        nonces[from] += 1;
        transfer(ids[from], to, amount, nonces[from] - 1)
    };
    let run = |ledger: &mut Ledger, txs: Vec<Vec<u8>>, applied: usize| {
        let slot = ledger.height() + 1;
        assert_eq!(ledger.apply_block(slot, &txs).applied, applied, "slot {slot}");
    };

    // Three blocks of valid transfers: strides that revisit payers and
    // receivers within a block, so one block writes the same leaf twice.
    for round in 0..3usize {
        let txs: Vec<Vec<u8>> = (0..2 * n / 3)
            .map(|i| {
                let from = (i * 7 + round) % n;
                let to = (from * 5 + 3 + round) % n;
                let to = if to == from { (to + 1) % n } else { to };
                pay(&mut nonces, from, ids[to], 1 + (i % 4) as u64)
            })
            .collect();
        let applied = txs.len();
        run(&mut ledger, txs, applied);
    }
    // A block of rejects only: garbage, zero amount, self-pay, a replayed
    // nonce, an overdraft, and a payer that does not exist.
    let rejects = vec![
        b"garbage".to_vec(),
        transfer(ids[0], ids[1], 0, nonces[0]),
        transfer(ids[0], ids[0], 1, nonces[0]),
        transfer(ids[2], ids[1], 1, 0),
        transfer(ids[1], ids[2], 1 << 40, nonces[1]),
        transfer(newcomer, ids[0], 1, 0),
    ];
    run(&mut ledger, rejects, 0);
    // The first credit materializes `newcomer` (with one ordinary transfer
    // either side of it), then an empty block, then `newcomer` spends.
    let txs = vec![
        pay(&mut nonces, 3, ids[4], 2),
        pay(&mut nonces, 5, newcomer, 17),
        pay(&mut nonces, 4, ids[3], 1),
    ];
    run(&mut ledger, txs, 3);
    run(&mut ledger, Vec::new(), 0);
    run(&mut ledger, vec![transfer(newcomer, ids[6], 9, 0), pay(&mut nonces, 6, newcomer, 1)], 2);

    assert_eq!(ledger.accounts().len(), n + 1);
    assert_eq!(ledger.accounts().total_balance(), n as u128 * 1_000, "conservation");
    (ledger.root().0, ledger.accounts().root_hash())
}

#[test]
fn sparse_hashed_ids_reproduce_the_pinned_roots() {
    let ids: Vec<u64> = (0..96).map(hashed).collect();
    // One bit away from an existing id: the two share 15 nibbles, so the
    // newcomer splits that leaf down to the last level.
    let newcomer = ids[40] ^ 1;
    let (root, accounts_digest) = scripted_run(&ids, newcomer);
    assert_eq!(root, 0x72a1_a129_bf0c_ef05, "got {root:#018x}");
    assert_eq!(accounts_digest, 0xa816_39d6_2ce8_04f5, "got {accounts_digest:#018x}");
}

#[test]
fn dense_ids_reproduce_the_pinned_roots() {
    // 1..=0x120: id 0x120 is alone under its 14-nibble prefix and so sits
    // in a leaf one level up; 0x121 arrives beside it and splits that leaf.
    let ids: Vec<u64> = (1..=0x120).collect();
    let (root, accounts_digest) = scripted_run(&ids, 0x121);
    assert_eq!(root, 0xa3c0_a5e9_fe31_2682, "got {root:#018x}");
    assert_eq!(accounts_digest, 0xbb12_8aa1_9d0a_b399, "got {accounts_digest:#018x}");
}
