//! The digest, pinned. Every literal below was captured at the commit
//! before `AccountMap` learned to write in place (eager path copy, one
//! rehash per level per insert): a change to the write algorithm must
//! reproduce all of them, because the trie's contents, shape and digest
//! are consensus-visible — replicas cross-check these roots.
//!
//! One scripted run per id distribution: several blocks of valid
//! transfers, one block that only rejects, and one transfer whose receiver
//! does not exist yet and lands beside an existing leaf, splitting it.

use tetrabft_ledger::{AccountId, AccountMap, Ledger, Transfer};
use tetrabft_multishot::Transaction;

/// The benchmark's id spread (`benchmark/src/schedule.rs`): a bijection
/// over the whole key space, so the trie is shallow and balanced.
fn hashed(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs the script over `ids` (payers and receivers) plus `newcomer`, an
/// id outside the genesis set. Returns the root after genesis and after
/// each block, and the bare account digest of the final state.
fn scripted_run(ids: &[u64], newcomer: u64) -> (Vec<u64>, u64) {
    let n = ids.len();
    let mut ledger = Ledger::new(ids.iter().map(|&id| (AccountId(id), 1_000)));
    let mut nonces = vec![0u64; n];
    // The next valid transfer out of `ids[from]`.
    let pay = |nonces: &mut [u64], from: usize, to: u64, amount: u64| {
        let nonce = nonces[from];
        nonces[from] += 1;
        Transfer { from: AccountId(ids[from]), to: AccountId(to), amount, nonce }.canonical_bytes()
    };
    let mut roots = vec![ledger.root().0];
    let mut slot = 0;
    let mut run = |ledger: &mut Ledger, txs: Vec<Vec<u8>>, applied: usize| {
        slot += 1;
        let receipt = ledger.apply_block(slot, &txs);
        assert_eq!(receipt.applied, applied, "slot {slot}");
        roots.push(receipt.root.0);
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
        Transfer { from: AccountId(ids[0]), to: AccountId(ids[1]), amount: 0, nonce: nonces[0] }
            .canonical_bytes(),
        Transfer { from: AccountId(ids[0]), to: AccountId(ids[0]), amount: 1, nonce: nonces[0] }
            .canonical_bytes(),
        Transfer { from: AccountId(ids[2]), to: AccountId(ids[1]), amount: 1, nonce: 0 }
            .canonical_bytes(),
        Transfer {
            from: AccountId(ids[1]),
            to: AccountId(ids[2]),
            amount: 1 << 40,
            nonce: nonces[1],
        }
        .canonical_bytes(),
        Transfer { from: AccountId(newcomer), to: AccountId(ids[0]), amount: 1, nonce: 0 }
            .canonical_bytes(),
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
    let spend = Transfer { from: AccountId(newcomer), to: AccountId(ids[6]), amount: 9, nonce: 0 }
        .canonical_bytes();
    run(&mut ledger, vec![spend, pay(&mut nonces, 6, newcomer, 1)], 2);

    assert_eq!(ledger.accounts().len(), n + 1);
    assert_eq!(ledger.accounts().total_balance(), n as u128 * 1_000, "conservation");
    // The same final state rebuilt one `insert` at a time, in descending
    // id order, hashes identically: the digest is a function of contents.
    let mut rebuilt = AccountMap::new();
    for (id, account) in ledger.accounts().entries().into_iter().rev() {
        rebuilt.insert(id, account);
    }
    assert_eq!(rebuilt.root_hash(), ledger.accounts().root_hash());
    (roots, ledger.accounts().root_hash())
}

#[test]
fn sparse_hashed_ids_reproduce_the_pinned_roots() {
    let ids: Vec<u64> = (0..96).map(hashed).collect();
    // One bit away from an existing id: the two share 15 nibbles, so the
    // newcomer splits that leaf down to the last level.
    let newcomer = ids[40] ^ 1;
    let (roots, accounts_digest) = scripted_run(&ids, newcomer);
    assert_eq!(
        roots,
        [
            0x9606_bed1_8d21_3354,
            0xb7fb_e518_6b6f_e90a,
            0xcd9a_a79c_e53e_f604,
            0xc2bd_dc0d_0cd4_fa84,
            0x4b68_ef58_efc1_e29c,
            0x39a1_1912_6b97_e87b,
            0x0439_ffe4_0ba0_5b4a,
            0x415e_41c5_1bcf_ef35,
        ],
        "chained state roots moved: {roots:#018x?}"
    );
    assert_eq!(accounts_digest, 0xa9ea_db90_1c63_3955, "got {accounts_digest:#018x}");
}

#[test]
fn dense_ids_reproduce_the_pinned_roots() {
    // 1..=0x120: id 0x120 is alone under its 14-nibble prefix and so sits
    // in a leaf one level up; 0x121 arrives beside it and splits that leaf.
    let ids: Vec<u64> = (1..=0x120).collect();
    let (roots, accounts_digest) = scripted_run(&ids, 0x121);
    assert_eq!(
        roots,
        [
            0x6fa4_a7d4_c087_b00c,
            0x4898_b966_bec5_d5a8,
            0x87d0_ac15_9aa1_a61e,
            0xa425_3024_7c89_a966,
            0x178e_30f2_5caa_6fcd,
            0xb9dd_209a_d0eb_6a18,
            0xa72f_454d_47bb_de1f,
            0x86dc_0334_e22c_246e,
        ],
        "chained state roots moved: {roots:#018x?}"
    );
    assert_eq!(accounts_digest, 0xdd0b_b7c9_d8b7_355d, "got {accounts_digest:#018x}");
}
