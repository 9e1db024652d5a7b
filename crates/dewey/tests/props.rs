//! Property tests for the Dewey id algebra and codecs.

use std::hash::{BuildHasher, BuildHasherDefault};

use gks_dewey::{codec, common_key_len, DeweyId, DocId};
use gks_index::fasthash::FxHasher;
use proptest::prelude::*;

fn arb_id() -> impl Strategy<Value = DeweyId> {
    (0u32..4, proptest::collection::vec(0u32..8, 0..6))
        .prop_map(|(doc, steps)| DeweyId::new(DocId(doc), steps))
}

/// Ids for the blocked-run codec: documents from a small pool (so runs pack
/// many postings per document and masks overlap) plus a few at the top of
/// the u32 range, and steps spanning the full varint width at depths well
/// past anything the tree builder emits.
fn arb_deep_id() -> impl Strategy<Value = DeweyId> {
    let doc = (0u32..16).prop_map(|d| if d < 12 { d } else { u32::MAX - (d - 12) });
    (doc, proptest::collection::vec(0u32..u32::MAX, 0..24))
        .prop_map(|(doc, steps)| DeweyId::new(DocId(doc), steps))
}

proptest! {
    /// Ancestor iff strict prefix, and prefix-order sorts ancestors first.
    #[test]
    fn ancestor_implies_order(a in arb_id(), b in arb_id()) {
        if a.is_ancestor_of(&b) {
            prop_assert!(a < b);
            prop_assert!(a.depth() < b.depth());
            prop_assert!(a.subtree_upper_bound() > b);
        }
    }

    /// The common prefix is the lowest common ancestor: it is an
    /// ancestor-or-self of both, and no deeper id is.
    #[test]
    fn common_prefix_is_lowest(a in arb_id(), b in arb_id()) {
        match a.common_prefix(&b) {
            None => prop_assert_ne!(a.doc(), b.doc()),
            Some(p) => {
                prop_assert!(p.is_ancestor_or_self(&a));
                prop_assert!(p.is_ancestor_or_self(&b));
                // Any strictly deeper ancestor-or-self of a is not one of b
                // (unless a == b == p handles equality).
                if p != a && p != b {
                    let deeper = a.ancestor_at_depth(p.depth() + 1);
                    prop_assert!(!deeper.is_ancestor_or_self(&b));
                }
            }
        }
    }

    /// Subtree interval: x in [id, ub) iff id ⪯a x... the forward direction:
    /// descendants always land inside, non-descendants outside.
    #[test]
    fn subtree_interval_contains_exactly_descendants(a in arb_id(), b in arb_id()) {
        let ub = a.subtree_upper_bound();
        let inside = a <= b && b < ub;
        prop_assert_eq!(inside, a.is_ancestor_or_self(&b));
    }

    /// Display/parse round trip.
    #[test]
    fn display_parse_round_trip(a in arb_id()) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<DeweyId>().unwrap(), a);
    }

    /// Standalone codec round trip.
    #[test]
    fn codec_id_round_trip(a in arb_id()) {
        let mut buf = bytes::BytesMut::new();
        codec::encode_id(&a, &mut buf);
        let mut slice = buf.freeze();
        prop_assert_eq!(codec::decode_id(&mut slice).unwrap(), a);
    }

    /// Sorted-run codec round trip over arbitrary sorted, deduped runs.
    #[test]
    fn codec_run_round_trip(mut ids in proptest::collection::vec(arb_id(), 0..40)) {
        ids.sort();
        ids.dedup();
        let mut buf = bytes::BytesMut::new();
        codec::encode_sorted_run(&ids, &mut buf);
        let mut slice = buf.freeze();
        prop_assert_eq!(codec::decode_sorted_run(&mut slice).unwrap(), ids);
    }

    /// Parent/child are inverses.
    #[test]
    fn parent_child_inverse(a in arb_id(), ord in 0u32..16) {
        prop_assert_eq!(a.child(ord).parent().unwrap(), a);
    }

    /// Blocked-run codec round trip, over runs long enough to span several
    /// blocks and ids at extreme depth and step values (full-width varints).
    /// Beyond the round trip itself, the skip table must cohere with the
    /// blocks it indexes: each entry names its block's first id, last
    /// document, and posting count. The length-1 case covers single-posting
    /// terms, whose skip entry is reconstructed from the block leader.
    #[test]
    fn codec_blocked_run_round_trip(mut ids in proptest::collection::vec(arb_deep_id(), 0..300)) {
        ids.sort();
        ids.dedup();
        let mut buf = bytes::BytesMut::new();
        codec::encode_blocked_run(&ids, &mut buf);
        let frozen = buf.freeze();
        let mut slice = frozen.as_ref();
        let reader = codec::BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        prop_assert!(slice.is_empty(), "parse must consume the run exactly");
        prop_assert_eq!(reader.total(), ids.len());
        prop_assert_eq!(reader.decode_all().unwrap(), ids.clone());
        prop_assert_eq!(reader.skip_entries().len(), ids.len().div_ceil(codec::BLOCK_SIZE));
        for (i, entry) in reader.skip_entries().iter().enumerate() {
            let block = reader.decode_block(i).unwrap();
            prop_assert_eq!(&entry.first, block.first().unwrap());
            prop_assert_eq!(entry.last_doc, block.last().unwrap().doc());
            prop_assert_eq!(entry.count, block.len());
        }
    }

    /// Masked block decode equals decode-then-filter, and reports exactly
    /// the number of postings it dropped — the law `postings_masked`
    /// relies on to keep tombstoned v3 search byte-identical to eager v2.
    #[test]
    fn codec_blocked_masked_equals_filter(
        mut ids in proptest::collection::vec(arb_deep_id(), 0..260),
        mut dead in proptest::collection::vec(0u32..12, 0..8),
    ) {
        ids.sort();
        ids.dedup();
        dead.sort();
        dead.dedup();
        let mut buf = bytes::BytesMut::new();
        codec::encode_blocked_run(&ids, &mut buf);
        let frozen = buf.freeze();
        let mut slice = frozen.as_ref();
        let reader = codec::BlockedRunReader::parse(&mut slice, ids.len()).unwrap();
        let expected: Vec<DeweyId> = ids
            .iter()
            .filter(|id| dead.binary_search(&id.doc().0).is_err())
            .cloned()
            .collect();
        let (masked, dropped) = reader.decode_masked(&dead).unwrap();
        prop_assert_eq!(dropped, (ids.len() - expected.len()) as u64);
        prop_assert_eq!(masked, expected);
    }

    /// The contiguous key is the whole representation: ordering, hashing,
    /// ancestry and prefixes computed on the id agree with the same
    /// computation on `key()` slices, and with the `(doc, steps)` view.
    #[test]
    fn key_laws(
        a in arb_deep_id(),
        other in arb_deep_id(),
        cut in 0usize..24,
        suffix in proptest::collection::vec(0u32..4, 0..4),
        depth in 0usize..24,
    ) {
        // A related id sharing a random prefix of `a`'s key exercises deep
        // common prefixes and ancestry, which independent ids rarely hit.
        let mut related = a.key()[..(cut % a.key().len()) + 1].to_vec();
        related.extend_from_slice(&suffix);
        let related = DeweyId::from_key(&related);
        for b in [&other, &related, &a] {
            // Order: id order == key order == (doc, steps) order.
            prop_assert_eq!(a.cmp(b), a.key().cmp(b.key()));
            prop_assert_eq!(a.cmp(b), (a.doc(), a.steps()).cmp(&(b.doc(), b.steps())));

            // Ancestry is the key-prefix test.
            prop_assert_eq!(a.is_ancestor_or_self(b), b.key().starts_with(a.key()));
            prop_assert_eq!(
                a.is_ancestor_of(b),
                b.key().starts_with(a.key()) && a.key().len() < b.key().len()
            );

            // Common prefixes are key slices.
            let shared = common_key_len(a.key(), b.key());
            prop_assert_eq!(a.common_prefix_len(b), shared.checked_sub(1));
            let lca = a.common_prefix(b);
            let lca_key = lca.as_ref().map(DeweyId::key);
            prop_assert_eq!(lca_key, (shared > 0).then(|| &a.key()[..shared]));
        }
        prop_assert_eq!(a.key()[0], a.doc().0);
        prop_assert_eq!(&a.key()[1..], a.steps());
        prop_assert_eq!(&DeweyId::from_key(a.key()), &a);
        let d = depth.min(a.depth());
        let anc = a.ancestor_at_depth(d);
        prop_assert_eq!(anc.key(), &a.key()[..d + 1]);

        // Hash: an id and its borrowed key hash alike under the index hasher.
        let fx = BuildHasherDefault::<FxHasher>::default();
        prop_assert_eq!(fx.hash_one(&a), fx.hash_one(a.key()));
        prop_assert_eq!(fx.hash_one(&related), fx.hash_one(related.key()));
    }
}
