//! Property tests of the index builder's structural invariants over random
//! documents.

use std::collections::BTreeMap;

use gks_datagen::Dataset;
use gks_dewey::{DeweyId, DocId};
use gks_index::{Corpus, GksIndex, IndexOptions, NodeMeta, NodeTable};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Tree {
    Leaf(String),
    Node {
        label: String,
        attrs: Vec<(String, String)>,
        children: Vec<Tree>,
    },
}

fn arb_word() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["alpha", "beta", "gamma", "delta"]).prop_map(str::to_string)
}

fn arb_label() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["item", "name", "grp", "rec"]).prop_map(str::to_string)
}

fn arb_tree() -> impl Strategy<Value = Tree> {
    let leaf = arb_word().prop_map(Tree::Leaf);
    leaf.prop_recursive(4, 48, 4, |inner| {
        (
            arb_label(),
            prop::collection::vec((prop::sample::select(vec!["k1", "k2"]), arb_word()), 0..2),
            prop::collection::vec(inner, 0..4),
        )
            .prop_map(|(label, attrs, children)| Tree::Node {
                label,
                attrs: attrs.into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
                children,
            })
    })
}

fn to_xml(tree: &Tree, out: &mut String) {
    match tree {
        Tree::Leaf(w) => {
            out.push_str("<w>");
            out.push_str(w);
            out.push_str("</w>");
        }
        Tree::Node { label, attrs, children } => {
            out.push('<');
            out.push_str(label);
            for (k, v) in attrs {
                out.push_str(&format!(" {k}=\"{v}\""));
            }
            out.push('>');
            for c in children {
                to_xml(c, out);
            }
            out.push_str("</");
            out.push_str(label);
            out.push('>');
        }
    }
}

fn build(tree: &Tree) -> GksIndex {
    let mut xml = String::from("<root>");
    to_xml(tree, &mut xml);
    xml.push_str("</root>");
    let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
    GksIndex::build(&corpus, IndexOptions::default()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Posting lists are sorted, deduplicated, and every posting's node is
    /// in the node table.
    #[test]
    fn postings_are_sorted_and_anchored(tree in arb_tree()) {
        let ix = build(&tree);
        for (term, list) in ix.inverted().iter() {
            prop_assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "{term} postings unsorted/duplicated"
            );
            for id in list {
                prop_assert!(
                    ix.node_table().get(id).is_some(),
                    "{term} posting {id} not in node table"
                );
            }
        }
    }

    /// The census counts every node exactly once, and the per-label census
    /// sums to the same total.
    #[test]
    fn census_is_a_partition(tree in arb_tree()) {
        let ix = build(&tree);
        let s = ix.stats();
        prop_assert_eq!(s.census.total(), s.total_nodes);
        prop_assert_eq!(s.total_nodes as usize, ix.node_table().len());
        let per_label: u64 = s.per_label.values().map(|c| c.total()).sum();
        prop_assert_eq!(per_label, s.total_nodes);
    }

    /// Every node's ancestors are present; child counts are ≥ 1; flags make
    /// sense (text-only nodes are AN or RN, never EN).
    #[test]
    fn node_table_is_closed_and_flagged(tree in arb_tree()) {
        let ix = build(&tree);
        for (dewey, meta) in ix.node_table().iter() {
            prop_assert!(meta.child_count >= 1, "{dewey} child_count 0");
            for anc in dewey.ancestors() {
                prop_assert!(ix.node_table().get(&anc).is_some(), "{dewey} missing ancestor");
            }
            if meta.flags.is_text_only() {
                prop_assert!(!meta.flags.is_entity(), "{dewey} text-only entity");
                prop_assert!(
                    meta.flags.is_attribute() ^ meta.flags.is_repeating(),
                    "{dewey} text-only must be exactly AN or RN"
                );
            }
        }
    }

    /// Attribute-store entries only hang off entity-flagged nodes, with
    /// non-empty values and valid label paths.
    #[test]
    fn attr_store_is_consistent(tree in arb_tree()) {
        let ix = build(&tree);
        let label_count = ix.node_table().labels().len() as u32;
        for (entity, entries) in ix.attr_store().iter() {
            let meta = ix.node_table().get(entity).expect("entity recorded");
            prop_assert!(meta.flags.is_entity(), "{entity} has attrs but is not EN");
            for e in entries {
                prop_assert!(!e.path.is_empty());
                prop_assert!(e.path.iter().all(|&l| l < label_count));
                prop_assert!(!e.value.is_empty());
            }
        }
    }

    /// Persistence round trip preserves the whole index.
    #[test]
    fn persistence_round_trip(tree in arb_tree()) {
        let ix = build(&tree);
        let loaded = GksIndex::from_bytes(ix.to_bytes()).unwrap();
        prop_assert_eq!(loaded.node_table().len(), ix.node_table().len());
        prop_assert_eq!(loaded.stats().census, ix.stats().census);
        for (term, list) in ix.inverted().iter() {
            prop_assert_eq!(loaded.postings(term), list);
        }
    }

    /// Sequential and parallel builds agree on a multi-document corpus.
    #[test]
    fn parallel_build_agrees(trees in prop::collection::vec(arb_tree(), 2..5)) {
        let docs: Vec<(String, String)> = trees
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut xml = String::from("<root>");
                to_xml(t, &mut xml);
                xml.push_str("</root>");
                (format!("d{i}"), xml)
            })
            .collect();
        let corpus = Corpus::from_named_strs(docs).unwrap();
        let seq = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let par = GksIndex::build_parallel(&corpus, IndexOptions::default(), 3).unwrap();
        prop_assert_eq!(seq.stats().census, par.stats().census);
        prop_assert_eq!(seq.node_table().len(), par.node_table().len());
        for (term, list) in seq.inverted().iter() {
            prop_assert_eq!(par.postings(term), list, "term {}", term);
        }
    }

    /// The root of every document is recorded with DocId i.
    #[test]
    fn roots_are_recorded(trees in prop::collection::vec(arb_tree(), 1..4)) {
        let docs: Vec<(String, String)> = trees
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let mut xml = String::from("<root>");
                to_xml(t, &mut xml);
                xml.push_str("</root>");
                (format!("d{i}"), xml)
            })
            .collect();
        let n = docs.len();
        let corpus = Corpus::from_named_strs(docs).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        for i in 0..n {
            let root = DeweyId::root(DocId(i as u32));
            prop_assert!(ix.node_table().get(&root).is_some(), "missing root {i}");
        }
    }

    /// The positional node table answers exactly like a `BTreeMap` keyed by
    /// Dewey id, built from its own `iter()`, for every recorded node and
    /// for absent keys around each one; sequential build, parallel build
    /// and a v3 reload iterate identical rows.
    #[test]
    fn node_table_matches_a_sorted_map(docs in arb_datagen_docs()) {
        let corpus = Corpus::from_named_strs(docs).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let table = ix.node_table();
        let reference: BTreeMap<DeweyId, NodeMeta> =
            table.iter().map(|(id, meta)| (id, *meta)).collect();
        prop_assert_eq!(reference.len(), table.len());
        let mut element_children: BTreeMap<&[u32], u32> = BTreeMap::new();
        for id in reference.keys() {
            if let Some(parent) = id.key().len().checked_sub(1).filter(|&len| len > 0) {
                *element_children.entry(&id.key()[..parent]).or_default() += 1;
            }
        }
        let agrees = |key: &[u32]| -> Result<(), TestCaseError> {
            let expected = reference.get(key);
            prop_assert_eq!(table.get_key(key), expected, "get_key {:?}", key);
            prop_assert_eq!(table.get(&DeweyId::from_key(key)), expected, "get {:?}", key);
            let lea = (1..=key.len())
                .rev()
                .find(|&len| reference.get(&key[..len]).is_some_and(|m| m.flags.is_entity()))
                .map(|len| len - 1);
            prop_assert_eq!(table.lowest_entity_depth(key), lea, "entity depth {:?}", key);
            Ok(())
        };
        let docs = ix.doc_names().len() as u32;
        agrees(&[docs])?;
        agrees(&[docs, 0])?;
        agrees(&[u32::MAX, 0, 0])?;
        for id in reference.keys() {
            let key = id.key();
            agrees(key)?;
            // One past the last child (below a leaf that is ordinal 0),
            // and a miss mid-path with steps after it.
            let past = element_children.get(key).copied().unwrap_or(0);
            let mut absent = key.to_vec();
            absent.push(past);
            agrees(&absent)?;
            absent.extend([0, 1]);
            agrees(&absent)?;
            if key.len() > 2 {
                let mut detour = key.to_vec();
                detour[1] = element_children.get(&key[..1]).copied().unwrap_or(0);
                agrees(&detour)?;
            }
        }

        let rows = |t: &NodeTable| -> Vec<(DeweyId, u32, u8, String)> {
            t.iter()
                .map(|(id, m)| (id, m.child_count, m.flags.bits(), t.labels().name(m.label).into()))
                .collect()
        };
        let par = GksIndex::build_parallel(&corpus, IndexOptions::default(), 3).unwrap();
        prop_assert_eq!(rows(par.node_table()), rows(table));
        let dir = std::env::temp_dir().join(format!("gks-index-props-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.gksix");
        ix.save(&path).unwrap();
        let loaded = GksIndex::load(&path).unwrap();
        prop_assert_eq!(rows(loaded.node_table()), rows(table));
    }
}

/// One to four small documents drawn from the synthetic paper datasets.
fn arb_datagen_docs() -> impl Strategy<Value = Vec<(String, String)>> {
    prop::collection::vec(
        (prop::sample::select(Dataset::all().to_vec()), 1usize..4, 0u64..1 << 20),
        1..5,
    )
    .prop_map(|picks| {
        picks
            .into_iter()
            .enumerate()
            .map(|(i, (dataset, scale, seed))| (format!("d{i}"), dataset.generate(scale, seed)))
            .collect()
    })
}
