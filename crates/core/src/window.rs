//! Candidate generation: sliding window over `SL` → Longest Common Prefix
//! list (paper §4.1, Figures 4–5).
//!
//! A block of `s` entries of the sorted merged list containing `s` *unique*
//! keywords has, as the Dewey id of its lowest common ancestor, the longest
//! common prefix of the block — and by Lemma 6 that is the common prefix of
//! just the first and last entry. The two-pointer sweep below ("while
//! !sU(l, r, s) shift r; if sU(l, r, s) shift l, r") enumerates every minimal
//! such block and collects the LCP of each.
//!
//! Candidates that land on an attribute node are promoted to their parent,
//! implementing Def 2.1.1's "the parent node of an attribute node is
//! considered the lowest ancestor for keyword(s) in its value".

use gks_dewey::{common_key_len, DeweyId};
use gks_index::GksIndex;

use crate::merge::MergedList;

/// Enumerates LCP candidates for blocks of `s` unique keywords, with
/// attribute-node promotion, returning them sorted and deduplicated.
///
/// Prefixes and promotion work on Dewey key slices; an id is allocated only
/// when a candidate differs from the one just emitted.
pub fn lcp_candidates(
    index: &GksIndex,
    sl: &MergedList<'_>,
    s: usize,
    n_keywords: usize,
) -> Vec<DeweyId> {
    assert!(s >= 1, "threshold must be ≥ 1");
    let mut counts = vec![0u32; n_keywords];
    let mut unique = 0usize;
    let mut out: Vec<DeweyId> = Vec::new();
    let mut r = 0usize;

    for l in 0..sl.len() {
        // Extend the right edge until the window holds s unique keywords.
        while unique < s && r < sl.len() {
            let kw = usize::from(sl.keyword(r));
            if counts[kw] == 0 {
                unique += 1;
            }
            counts[kw] += 1;
            r += 1;
        }
        if unique < s {
            break; // no block starting at or after l can reach s uniques
        }
        // Lemma 6: the LCP of the sorted block is the common prefix of its
        // first and last entries. A cross-document block has no common
        // ancestor (no shared key element) and yields no candidate.
        let first = sl.id(l).key();
        let shared = common_key_len(first, sl.id(r - 1).key());
        if shared > 0 {
            let candidate = &first[..promoted_len(index, first, shared)];
            if out.last().map(DeweyId::key) != Some(candidate) {
                out.push(DeweyId::from_key(candidate));
            }
        }
        // Slide the left edge.
        let kw = usize::from(sl.keyword(l));
        counts[kw] -= 1;
        if counts[kw] == 0 {
            unique -= 1;
        }
    }

    out.sort_unstable();
    out.dedup();
    out
}

/// Promotes an attribute-node candidate `&key[..len]` to its parent
/// (Def 2.1.1), returning the promoted key length. Keywords matching inside
/// one attribute value have the attribute's parent as their lowest
/// meaningful ancestor. One downward walk finds the deepest prefix that is
/// not an attribute node; an unrecorded candidate is kept as it is.
fn promoted_len(index: &GksIndex, key: &[u32], len: usize) -> usize {
    let table = index.node_table();
    let mut walked = 0;
    let mut kept = 1;
    for node in table.walk(&key[..len]) {
        walked += 1;
        if !table.meta_at(node).flags.is_attribute() {
            kept = walked;
        }
    }
    if walked < len {
        len
    } else {
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::merge_posting_lists;
    use gks_dewey::DocId;
    use gks_index::{Corpus, IndexOptions};

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn fig2a_index() -> GksIndex {
        let xml = r#"<Dept><Dept_Name>CS</Dept_Name><Area><Name>Databases</Name><Courses>
            <Course><Name>Data Mining</Name><Students>
                <Student>Karen</Student><Student>Mike</Student></Students></Course>
            <Course><Name>Algorithms</Name><Students>
                <Student>Karen</Student><Student>John</Student></Students></Course>
        </Courses></Area></Dept>"#;
        let corpus = Corpus::from_named_strs([("f", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    #[test]
    fn window_finds_common_ancestors() {
        let ix = fig2a_index();
        // karen (2 postings) + mike (1 posting).
        let sl = merge_posting_lists([ix.postings("karen"), ix.postings("mike")]);
        let cands = lcp_candidates(&ix, &sl, 2, 2);
        // Blocks: (karen@c0, mike@c0) → Students of course 0;
        // (mike@c0, karen@c1) → Courses.
        assert!(cands.contains(&d(&[1, 1, 0, 1])), "Students of Data Mining");
        assert!(cands.contains(&d(&[1, 1])), "Courses spans the two courses");
    }

    #[test]
    fn s_equal_one_yields_each_posting_node() {
        let ix = fig2a_index();
        let karen = ix.postings("karen");
        let sl = merge_posting_lists([karen]);
        let cands = lcp_candidates(&ix, &sl, 1, 1);
        // Student text nodes are repeating (not attribute) nodes, so no
        // promotion happens and each posting is its own candidate.
        assert_eq!(cands, karen);
    }

    #[test]
    fn attribute_candidates_promoted_to_parent() {
        let ix = fig2a_index();
        // "data" and "mining" both live in the <Name> attribute node of the
        // first course; their 2-block LCP is the Name node itself, which must
        // be promoted to the Course (Def 2.1.1: ancestor of 'Databases' is
        // the Area, not the Name).
        // "mining" stems to "mine".
        let sl = merge_posting_lists([ix.postings("data"), ix.postings("mine")]);
        let cands = lcp_candidates(&ix, &sl, 2, 2);
        assert_eq!(cands, vec![d(&[1, 1, 0])], "promoted to the Course node");
    }

    #[test]
    fn unreachable_threshold_gives_no_candidates() {
        let ix = fig2a_index();
        let sl = merge_posting_lists([ix.postings("karen"), &[]]);
        assert!(lcp_candidates(&ix, &sl, 2, 2).is_empty());
    }

    #[test]
    fn duplicate_keyword_occurrences_do_not_fake_uniqueness() {
        let ix = fig2a_index();
        // Two karen postings with s=2 over a single keyword can never form a
        // valid block of 2 *unique* keywords.
        let sl = merge_posting_lists([ix.postings("karen")]);
        assert!(lcp_candidates(&ix, &sl, 2, 1).is_empty());
    }
}
