//! Stack-based SLCA over the merged posting list — the third classical
//! algorithm family (single sequential pass, Dewey stack), cross-checked
//! against [`crate::slca`]'s CA-map and indexed-lookup implementations.
//!
//! The merged list is consumed in document order while a stack maintains the
//! current root-to-node chain of *interesting* nodes (entries and LCAs of
//! adjacent entries). Each frame accumulates the keyword mask of its
//! subtree; when a frame is popped with a full mask and no SLCA emitted
//! below it, it is the deepest full node of its region — an SLCA. The
//! `emitted` flag propagates upward to suppress ancestors.

use gks_core::merge::merge_posting_lists;
use gks_dewey::DeweyId;

struct Frame {
    dewey: DeweyId,
    mask: u64,
    emitted_below: bool,
}

/// Computes the SLCA set from per-keyword posting lists via the stack
/// algorithm. Same contract as [`crate::slca::slca_ca_map`].
pub fn slca_stack(lists: &[Vec<DeweyId>]) -> Vec<DeweyId> {
    let n = lists.len();
    if n == 0 || n > 64 || lists.iter().any(Vec::is_empty) {
        return Vec::new();
    }
    let full: u64 = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    let sl = merge_posting_lists(lists);

    let mut stack: Vec<Frame> = Vec::new();
    let mut out: Vec<DeweyId> = Vec::new();

    // Folds the top frame away, emitting if it is a deepest full node, and
    // carries its state toward `towards` (the next entry's Dewey id, or None
    // at the end of input).
    fn pop_and_fold(
        stack: &mut Vec<Frame>,
        towards: Option<&DeweyId>,
        full: u64,
        out: &mut Vec<DeweyId>,
    ) {
        let mut f = stack.pop().expect("pop on non-empty stack");
        if f.mask == full && !f.emitted_below {
            out.push(f.dewey.clone());
            f.emitted_below = true;
        }
        let lca = towards.and_then(|t| f.dewey.common_prefix(t));
        match (stack.last_mut(), lca) {
            (Some(top), Some(l)) if top.dewey == l => {
                top.mask |= f.mask;
                top.emitted_below |= f.emitted_below;
            }
            (Some(top), Some(l)) if top.dewey.is_ancestor_of(&l) => {
                // A fresh branching point strictly between top and f.
                stack.push(Frame { dewey: l, mask: f.mask, emitted_below: f.emitted_below });
            }
            (Some(top), Some(_)) => {
                // top is deeper than the branching point; it will be popped
                // next — let the state ride along.
                top.mask |= f.mask;
                top.emitted_below |= f.emitted_below;
            }
            (Some(top), None) => {
                // End of input (or cross-document): fold the chain upward.
                top.mask |= f.mask;
                top.emitted_below |= f.emitted_below;
            }
            (None, Some(l)) => {
                stack.push(Frame { dewey: l, mask: f.mask, emitted_below: f.emitted_below });
            }
            (None, None) => {}
        }
    }

    for (dewey, kw) in sl.iter() {
        // Unwind frames that do not contain the new entry.
        while let Some(top) = stack.last() {
            if top.dewey.is_ancestor_or_self(dewey) {
                break;
            }
            // Cross-document entries share no ancestor: flush completely.
            let towards = if top.dewey.doc() == dewey.doc() {
                Some(dewey)
            } else {
                None
            };
            pop_and_fold(&mut stack, towards, full, &mut out);
        }
        match stack.last_mut() {
            Some(top) if top.dewey == *dewey => top.mask |= 1 << kw,
            _ => stack.push(Frame { dewey: dewey.clone(), mask: 1 << kw, emitted_below: false }),
        }
    }
    while !stack.is_empty() {
        pop_and_fold(&mut stack, None, full, &mut out);
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slca::slca_ca_map;
    use gks_dewey::DocId;

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn both(lists: &[Vec<DeweyId>]) -> Vec<DeweyId> {
        let a = slca_ca_map(lists);
        let b = slca_stack(lists);
        assert_eq!(a, b, "stack SLCA must agree with the CA map");
        a
    }

    #[test]
    fn agrees_on_basic_cases() {
        assert_eq!(both(&[vec![d(&[0, 0]), d(&[1, 0])], vec![d(&[0, 1])]]), vec![d(&[0])]);
        assert_eq!(both(&[vec![d(&[0, 1]), d(&[0, 2, 0])], vec![d(&[0, 2, 1])]]), vec![d(&[0, 2])]);
        assert_eq!(
            both(&[vec![d(&[0, 0]), d(&[5, 0])], vec![d(&[0, 1]), d(&[5, 1])]]),
            vec![d(&[0]), d(&[5])]
        );
    }

    #[test]
    fn nested_full_regions_keep_only_the_deepest() {
        // Root, [0] and [0,0] all contain both keywords; only [0,0] and the
        // second region [1] are SLCAs.
        let lists = vec![
            vec![d(&[0, 0, 0]), d(&[0, 1]), d(&[1, 0])],
            vec![d(&[0, 0, 1]), d(&[0, 2]), d(&[1, 1])],
        ];
        assert_eq!(both(&lists), vec![d(&[0, 0]), d(&[1])]);
    }

    #[test]
    fn cross_document_regions() {
        let lists = vec![
            vec![DeweyId::new(DocId(0), vec![0]), DeweyId::new(DocId(1), vec![0])],
            vec![DeweyId::new(DocId(0), vec![1]), DeweyId::new(DocId(1), vec![1])],
        ];
        assert_eq!(both(&lists), vec![DeweyId::root(DocId(0)), DeweyId::root(DocId(1))]);
    }

    #[test]
    fn and_semantics_and_single_list() {
        assert!(both(&[vec![d(&[0])], vec![]]).is_empty());
        assert_eq!(both(&[vec![d(&[0]), d(&[0, 1]), d(&[2])]]), vec![d(&[0, 1]), d(&[2])]);
    }

    #[test]
    fn same_node_all_keywords() {
        assert_eq!(both(&[vec![d(&[0, 3])], vec![d(&[0, 3])]]), vec![d(&[0, 3])]);
    }
}
