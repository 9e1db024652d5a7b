//! K-way merge of posting lists into the merged list `SL` (paper §4.1).
//!
//! "For the query keywords ki ∈ Q, we first merge their respective inverted
//! index lists such that in the merged list, keywords follow their arrival
//! order in the XML document" — i.e. `SL` is sorted by Dewey id (document
//! order), each entry tagged with the keyword it came from. The merge is the
//! classic heap-based k-way merge, O(|SL|·log n).

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gks_dewey::DeweyId;

/// One entry of the merged list: a node and the query keyword (by index)
/// found at it.
pub type SlEntry<'a> = (&'a DeweyId, u8);

/// The merged list `SL`. It keeps the per-keyword posting lists as they
/// came from the index — borrowed slices, or owned lists for masked and
/// phrase keywords — and records the document-order interleaving as
/// positions into them, so no posting is copied.
#[derive(Debug, Clone, Default)]
pub struct MergedList<'a> {
    lists: Vec<Cow<'a, [DeweyId]>>,
    /// `(keyword, position in that keyword's list)`, in document order.
    order: Vec<(u8, u32)>,
}

impl MergedList<'_> {
    /// Number of entries (`|SL|`).
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no keyword has a posting.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The `i`-th entry in document order. Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> SlEntry<'_> {
        let (kw, pos) = self.order[i];
        (&self.lists[usize::from(kw)][pos as usize], kw)
    }

    /// The node of the `i`-th entry.
    #[inline]
    pub fn id(&self, i: usize) -> &DeweyId {
        self.get(i).0
    }

    /// The keyword index of the `i`-th entry.
    #[inline]
    pub fn keyword(&self, i: usize) -> u8 {
        self.order[i].0
    }

    /// The entries in document order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SlEntry<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// [`merge_posting_lists`] plus the heap-operation count for the cost
/// ledger: every input entry is pushed and popped exactly once, so the
/// count is `2 × Σ|list|` — a deterministic function of the inputs, equal
/// to the actual number of `BinaryHeap` operations performed.
pub fn merge_posting_lists_counted<'a, L>(
    lists: impl IntoIterator<Item = L>,
) -> (MergedList<'a>, u64)
where
    L: Into<Cow<'a, [DeweyId]>>,
{
    let sl = merge_posting_lists(lists);
    let heap_ops = 2 * sl.len() as u64;
    (sl, heap_ops)
}

/// Merges the per-keyword lists (each already document-ordered) into `SL`.
/// List `k` is keyword `k`; equal nodes from several lists appear once per
/// list, lower keyword index first.
pub fn merge_posting_lists<'a, L>(lists: impl IntoIterator<Item = L>) -> MergedList<'a>
where
    L: Into<Cow<'a, [DeweyId]>>,
{
    let lists: Vec<Cow<'a, [DeweyId]>> = lists.into_iter().map(Into::into).collect();
    let total: usize = lists.iter().map(|l| l.len()).sum();
    let mut order = Vec::with_capacity(total);
    // Min-heap of each list's next (id, keyword, position).
    let mut heap: BinaryHeap<Reverse<(&DeweyId, u8, u32)>> = BinaryHeap::with_capacity(lists.len());
    for (k, list) in lists.iter().enumerate() {
        if let Some(first) = list.first() {
            heap.push(Reverse((first, k as u8, 0)));
        }
    }
    while let Some(Reverse((_, k, pos))) = heap.pop() {
        order.push((k, pos));
        let next = pos + 1;
        if let Some(id) = lists[usize::from(k)].get(next as usize) {
            heap.push(Reverse((id, k, next)));
        }
    }
    MergedList { lists, order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    fn entries(sl: &MergedList<'_>) -> Vec<(DeweyId, u8)> {
        sl.iter().map(|(id, kw)| (id.clone(), kw)).collect()
    }

    #[test]
    fn merge_interleaves_in_document_order() {
        let a = vec![d(&[0, 0]), d(&[2])];
        let b = vec![d(&[0, 1]), d(&[1]), d(&[3])];
        let sl = merge_posting_lists([a, b]);
        assert_eq!(
            entries(&sl),
            vec![(d(&[0, 0]), 0), (d(&[0, 1]), 1), (d(&[1]), 1), (d(&[2]), 0), (d(&[3]), 1),]
        );
        assert_eq!(sl.len(), 5);
        assert_eq!(sl.get(2), (&d(&[1]), 1));
        assert_eq!(sl.id(3), &d(&[2]));
        assert_eq!(sl.keyword(4), 1);
    }

    #[test]
    fn borrowed_lists_are_not_copied() {
        let a = vec![d(&[0, 0]), d(&[2])];
        let b = vec![d(&[1])];
        let sl = merge_posting_lists([a.as_slice(), b.as_slice()]);
        assert!(std::ptr::eq(sl.id(0), &a[0]), "SL points into the input list");
        assert!(std::ptr::eq(sl.id(1), &b[0]));
    }

    #[test]
    fn same_node_for_two_keywords_keeps_both_entries() {
        // An element-name keyword and a text keyword can hit the same node.
        let a = vec![d(&[1])];
        let b = vec![d(&[1])];
        let sl = merge_posting_lists([a, b]);
        assert_eq!(entries(&sl), vec![(d(&[1]), 0), (d(&[1]), 1)]);
    }

    #[test]
    fn counted_merge_reports_two_ops_per_entry() {
        let a = vec![d(&[0, 0]), d(&[2])];
        let b = vec![d(&[0, 1]), d(&[1]), d(&[3])];
        let plain = merge_posting_lists([a.clone(), b.clone()]);
        let (sl, heap_ops) = merge_posting_lists_counted([a, b]);
        assert_eq!(entries(&sl), entries(&plain), "counting wrapper changes nothing");
        assert_eq!(heap_ops, 10, "5 entries × (push + pop)");
        assert_eq!(merge_posting_lists_counted(Vec::<Vec<DeweyId>>::new()).1, 0);
    }

    #[test]
    fn empty_lists_are_fine() {
        assert!(merge_posting_lists(Vec::<Vec<DeweyId>>::new()).is_empty());
        assert!(merge_posting_lists([vec![], vec![]]).is_empty());
        let sl = merge_posting_lists([vec![], vec![d(&[0])]]);
        assert_eq!(entries(&sl), vec![(d(&[0]), 1)]);
    }
}
