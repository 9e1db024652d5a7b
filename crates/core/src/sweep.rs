//! The statistics sweep: one pass over `SL` computing, for every candidate
//! node, its exact matched-keyword set, its potential-flow rank (§5), and —
//! for entity nodes — whether it has an *independent witness* (Def 2.2.1,
//! Lemmas 4–5).
//!
//! The sweep maintains a stack of "active" candidate nodes (exactly the
//! candidates whose subtree contains the current `SL` entry — candidates are
//! sorted, so this is the classic Dewey ancestor stack). Each entry updates
//! every active candidate:
//!
//! * the keyword bit joins the candidate's mask;
//! * if the entry is the shallowest occurrence of its keyword seen so far in
//!   the candidate's subtree, it becomes a *terminal point* and contributes
//!   the potential-flow path product `Π 1/children(v)` along the path from
//!   the candidate down to the entry's parent (ties at the same depth all
//!   contribute — "each of its occurrences is considered a terminal point");
//! * the entry's lowest entity ancestor-or-self is marked witnessed: a
//!   keyword occurrence is an independent witness for exactly the nearest
//!   enclosing entity node.
//!
//! The final rank is `P|e × Σ_k (terminal path products of k)` with
//! `P|e = |matched keywords|`, reproducing the paper's Example 5 numbers.
//!
//! Everything an entry needs from the node table lives on its root path, and
//! consecutive `SL` entries are pre-order neighbours that share most of that
//! path. The sweep therefore keeps three per-depth arrays for the current
//! entry — the node-table index of each path node, the reciprocal
//! child-count products and the depth of the lowest entity ancestor-or-self
//! — and refreshes them only below the key prefix the entry shares with the
//! previous one. Each new path step is one child-by-ordinal read from its
//! parent's node index (no hashing, no key compare), and nothing is
//! allocated per entry.

use gks_dewey::{common_key_len, DeweyId};
use gks_index::GksIndex;

use crate::merge::MergedList;

/// Per-candidate results of the sweep, in the order of the candidate nodes.
#[derive(Debug, Clone)]
pub struct NodeStats {
    /// Bit `i` set iff query keyword `i` occurs in the subtree.
    pub mask: u64,
    /// Potential-flow rank (§5).
    pub rank: f64,
    /// Whether some keyword occurrence has this node as its nearest
    /// enclosing entity (only meaningful for entity nodes).
    pub witnessed: bool,
}

impl NodeStats {
    /// Number of distinct query keywords in the subtree (`P|e`).
    pub fn keyword_count(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// Runs the sweep. `nodes` must be sorted and deduplicated; `n_keywords` is
/// `|Q|`. Returns stats in the same order as `nodes`.
pub fn sweep(
    index: &GksIndex,
    sl: &MergedList<'_>,
    nodes: &[DeweyId],
    n_keywords: usize,
) -> Vec<NodeStats> {
    sweep_counted(index, sl, nodes, n_keywords).0
}

/// [`sweep`] plus the advance count for the cost ledger: the sum over `SL`
/// entries of the active candidate stack size — each unit is one
/// candidate-update step (mask join + terminal check), the dominant term of
/// the §4.2 sweep cost. The stack only ever holds ancestors of the current
/// entry, so the count is a per-document quantity and sums exactly across
/// shards of a document-partitioned corpus.
///
/// Allocation depends on the candidate set and the tree depth only, never
/// on `|SL|`.
pub fn sweep_counted(
    index: &GksIndex,
    sl: &MergedList<'_>,
    nodes: &[DeweyId],
    n_keywords: usize,
) -> (Vec<NodeStats>, u64) {
    debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "nodes sorted+deduped");
    let table = index.node_table();
    let n_nodes = nodes.len();
    let mut mask = vec![0u64; n_nodes];
    // Terminal tracking, flattened [node][keyword].
    let mut min_depth = vec![u32::MAX; n_nodes * n_keywords];
    let mut prod_sum = vec![0f64; n_nodes * n_keywords];
    let mut witnessed = vec![false; n_nodes];

    // Active candidates: exactly the nodes that are ancestors-or-self of the
    // current entry, shallowest first.
    let mut stack: Vec<usize> = Vec::new();
    let mut next_node = 0usize;
    let mut advances = 0u64;

    // Root-path state of the previous entry, whose key is `path`: at[t] is
    // the node index of the prefix of depth t (None once a step is absent);
    // prods[t] = Π_{u<t} 1/children(prefix of depth u), so the product from
    // a candidate at depth a down to the entry's parent is
    // prods[dE]/prods[a]; lea[t] is the depth of the lowest entity
    // ancestor-or-self of the prefix of depth t.
    let mut path: Vec<u32> = Vec::new();
    let mut at: Vec<Option<u32>> = Vec::new();
    let mut prods: Vec<f64> = vec![1.0];
    let mut lea: Vec<Option<usize>> = Vec::new();

    for (entry, kw) in sl.iter() {
        let kw = usize::from(kw);
        let key = entry.key();
        // Activate candidates up to the current position.
        while next_node < n_nodes && nodes[next_node].key() <= key {
            while let Some(&top) = stack.last() {
                if nodes[top].is_ancestor_or_self(&nodes[next_node]) {
                    break;
                }
                stack.pop();
            }
            stack.push(next_node);
            next_node += 1;
        }
        // Keep only the candidates whose subtree contains the entry.
        while let Some(&top) = stack.last() {
            if nodes[top].is_ancestor_or_self(entry) {
                break;
            }
            stack.pop();
        }

        // Refresh the path arrays below the prefix shared with the previous
        // entry: prefixes of depth < keep are unchanged.
        let keep = common_key_len(&path, key);
        path.truncate(keep);
        path.extend_from_slice(&key[keep..]);
        at.truncate(keep);
        lea.truncate(keep);
        prods.truncate(keep + 1);
        for t in keep..key.len() {
            let node = match t {
                0 => table.root(key[0]),
                _ => at[t - 1].and_then(|parent| table.child(parent, key[t])),
            };
            at.push(node);
            let meta = node.map(|n| table.meta_at(n));
            let inherited = t.checked_sub(1).and_then(|parent| lea[parent]);
            lea.push(if meta.is_some_and(|m| m.flags.is_entity()) {
                Some(t)
            } else {
                inherited
            });
            let children = meta.map_or(1, |m| m.child_count).max(1);
            prods.push(prods[t] / children as f64);
        }

        let d_entry = entry.depth();
        advances += stack.len() as u64;
        for &idx in &stack {
            mask[idx] |= 1 << kw;
            let d_node = nodes[idx].depth();
            let p = prods[d_entry] / prods[d_node];
            let slot = idx * n_keywords + kw;
            let depth = d_entry as u32;
            match depth.cmp(&min_depth[slot]) {
                std::cmp::Ordering::Less => {
                    min_depth[slot] = depth;
                    prod_sum[slot] = p;
                }
                std::cmp::Ordering::Equal => prod_sum[slot] += p,
                std::cmp::Ordering::Greater => {}
            }
        }

        // Witness marking: this occurrence independently witnesses its
        // nearest enclosing entity node. That entity is an ancestor-or-self
        // of the entry, so if it is a candidate at all it is on the stack.
        if let Some(entity_depth) = lea[d_entry] {
            for &idx in stack.iter().rev() {
                match nodes[idx].depth().cmp(&entity_depth) {
                    std::cmp::Ordering::Greater => continue,
                    std::cmp::Ordering::Equal => witnessed[idx] = true,
                    std::cmp::Ordering::Less => {}
                }
                break;
            }
        }
    }

    let stats = (0..n_nodes)
        .map(|i| {
            let sum: f64 = prod_sum[i * n_keywords..(i + 1) * n_keywords].iter().sum();
            let p = mask[i].count_ones() as f64;
            NodeStats { mask: mask[i], rank: p * sum, witnessed: witnessed[i] }
        })
        .collect();
    (stats, advances)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_posting_lists;
    use gks_dewey::DocId;
    use gks_index::{Corpus, GksIndex, IndexOptions};

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    /// The Figure 1 tree as reconstructed in DESIGN.md: leaves are `<v>`
    /// elements holding one keyword each.
    fn fig1_index() -> GksIndex {
        let xml = "<r>\
            <x1><v>ka</v><v>kb</v><v>kc</v><v>kf</v>\
                <x2><v>ka</v><v>kb</v><v>kc</v></x2></x1>\
            <x3><v>ka</v><v>kb</v><x5><v>kd</v><v>kf</v></x5></x3>\
            <x4><v>kc</v><v>kd</v></x4>\
        </r>";
        let corpus = Corpus::from_named_strs([("fig1", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    fn sl_for<'a>(ix: &'a GksIndex, kws: &[&str]) -> MergedList<'a> {
        merge_posting_lists(kws.iter().map(|k| ix.postings(k)))
    }

    #[test]
    fn example5_ranks() {
        // Q3 = {a, b, c, d}: the paper's Example 5 computes rank(x2) = 3,
        // rank(x3) = 2.5, rank(x4) = 2.
        let ix = fig1_index();
        let sl = sl_for(&ix, &["ka", "kb", "kc", "kd"]);
        let x2 = d(&[0, 4]);
        let x3 = d(&[1]);
        let x4 = d(&[2]);
        let nodes = [x2, x3, x4];
        let stats = sweep(&ix, &sl, &nodes, 4);

        let s2 = &stats[0];
        assert_eq!(s2.keyword_count(), 3); // a, b, c
        assert!((s2.rank - 3.0).abs() < 1e-9, "rank(x2) = {}", s2.rank);

        let s3 = &stats[1];
        assert_eq!(s3.keyword_count(), 3); // a, b, d
        assert!((s3.rank - 2.5).abs() < 1e-9, "rank(x3) = {}", s3.rank);

        let s4 = &stats[2];
        assert_eq!(s4.keyword_count(), 2); // c, d
        assert!((s4.rank - 2.0).abs() < 1e-9, "rank(x4) = {}", s4.rank);
    }

    #[test]
    fn masks_are_exact() {
        let ix = fig1_index();
        let sl = sl_for(&ix, &["ka", "kd"]);
        let stats = sweep(&ix, &sl, &[d(&[]), d(&[0, 4]), d(&[1, 2])], 2);
        assert_eq!(stats[0].mask, 0b11); // root sees both
        assert_eq!(stats[1].mask, 0b01); // x2 has a only
        assert_eq!(stats[2].mask, 0b10); // x5 has d only
    }

    #[test]
    fn highest_occurrence_is_the_terminal() {
        // For x1 and keyword 'ka': occurrences at depth 2 (direct v child) and
        // depth 3 (inside x2). Only the depth-2 one is a terminal.
        let ix = fig1_index();
        let sl = sl_for(&ix, &["ka"]);
        let x1 = d(&[0]);
        let stats = sweep(&ix, &sl, &[x1], 1);
        // x1 has 5 children; the direct <v>ka</v> receives 1/5 of potential 1.
        assert!((stats[0].rank - 0.2).abs() < 1e-9, "rank = {}", stats[0].rank);
    }

    #[test]
    fn duplicate_terminals_at_same_depth_all_count() {
        let xml = "<r><v>ka</v><v>ka</v><v>kb</v></r>";
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let sl = sl_for(&ix, &["ka", "kb"]);
        let stats = sweep(&ix, &sl, &[d(&[])], 2);
        // P = 2; terminals: two 'a' at 1/3 each, one 'b' at 1/3 → rank 2.
        assert!((stats[0].rank - 2.0).abs() < 1e-9, "rank = {}", stats[0].rank);
    }

    #[test]
    fn witness_marks_nearest_entity_only() {
        // Courses with students: each Course is an entity; the Area above
        // them gets no witness from keywords that live inside courses.
        let xml = r#"<Area><Name>DB</Name><Courses>
            <Course><Name>Mining</Name><Students>
                <Student>Karen</Student><Student>Mike</Student></Students></Course>
            <Course><Name>AI</Name><Students>
                <Student>Karen</Student><Student>John</Student></Students></Course>
        </Courses></Area>"#;
        let corpus = Corpus::from_named_strs([("w", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let sl = sl_for(&ix, &["karen", "mike"]);
        let area = d(&[]);
        let course0 = d(&[1, 0]);
        let stats = sweep(&ix, &sl, &[area, course0], 2);
        assert!(!stats[0].witnessed, "Area's keywords all live inside courses");
        assert!(stats[1].witnessed, "Course 0 directly contains karen & mike");
        // Both masks are full nonetheless.
        assert_eq!(stats[0].mask, 0b11);
        assert_eq!(stats[1].mask, 0b11);
    }

    #[test]
    fn advance_count_sums_active_stack_sizes() {
        let ix = fig1_index();
        let sl = sl_for(&ix, &["ka", "kd"]);
        // Candidates root, x2, x5: every entry updates the root; entries
        // inside x2 / x5 update two candidates.
        let nodes = [d(&[]), d(&[0, 4]), d(&[1, 2])];
        let (stats, advances) = sweep_counted(&ix, &sl, &nodes, 2);
        assert_eq!(stats.len(), 3);
        let mut expected = 0u64;
        for (entry, _) in sl.iter() {
            expected += nodes.iter().filter(|n| n.is_ancestor_or_self(entry)).count() as u64;
        }
        assert_eq!(advances, expected);
        assert!(advances > sl.len() as u64, "nested candidates multi-count");
        // The counting wrapper must not perturb the statistics.
        let plain = sweep(&ix, &sl, &nodes, 2);
        assert_eq!(plain.len(), stats.len());
        for (a, b) in plain.iter().zip(&stats) {
            assert_eq!(a.mask, b.mask);
            assert_eq!(a.rank, b.rank);
        }
    }

    #[test]
    fn empty_inputs() {
        let ix = fig1_index();
        let empty = MergedList::default();
        assert!(sweep(&ix, &empty, &[], 1).is_empty());
        let stats = sweep(&ix, &empty, &[d(&[])], 1);
        assert_eq!(stats[0].mask, 0);
        assert_eq!(stats[0].rank, 0.0);
    }
}
