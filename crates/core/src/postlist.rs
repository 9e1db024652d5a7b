//! Per-keyword posting lists.
//!
//! A plain keyword's posting list comes straight from the inverted index. A
//! phrase keyword (`"Peter Buneman"`) matches the nodes that contain *all* of
//! its terms, i.e. the intersection of the terms' lists — an adequate phrase
//! model at text-node granularity, since author names, course titles, etc.
//! each live in one text node.

use std::borrow::Cow;

use gks_dewey::DeweyId;
use gks_index::GksIndex;

use crate::cost::CostLedger;
use crate::query::Keyword;

/// The document-ordered list of nodes matching `keyword`, empty if any term
/// is absent from the corpus. A single-term keyword borrows the index's
/// posting slice; a phrase owns its intersection.
pub fn keyword_postings<'a>(index: &'a GksIndex, keyword: &Keyword) -> Cow<'a, [DeweyId]> {
    match keyword.terms() {
        [] => Cow::Borrowed(&[]),
        [term] => Cow::Borrowed(index.postings(term)),
        terms => {
            // Intersect starting from the shortest list.
            let mut lists: Vec<&[DeweyId]> = terms.iter().map(|t| index.postings(t)).collect();
            lists.sort_by_key(|l| l.len());
            let mut acc: Vec<DeweyId> = lists[0].to_vec();
            for list in &lists[1..] {
                if acc.is_empty() {
                    break;
                }
                acc = intersect(&acc, list);
            }
            Cow::Owned(acc)
        }
    }
}

/// [`keyword_postings`] with tombstoned documents masked out and cost
/// accounting folded into `ledger`. Any posting whose document id appears
/// in `dead` (a sorted list of local doc ids) is dropped; an empty mask
/// takes the unfiltered path and borrows, so unmasked search pays nothing.
///
/// `postings_scanned` grows by the raw posting entries fetched (every
/// term's list for a phrase), `tombstone_masked` by the entries the mask
/// dropped, and `per_keyword` gains one lane holding the surviving list
/// length. All three are deterministic functions of the index and the
/// keyword, so the counts obey the same shard-sum and mask-equivalence laws
/// as the answers. Scan counts come from the term dictionary
/// ([`GksIndex::posting_count`]), which a format-v3 index answers without
/// decoding any posting block.
///
/// A masked single-term keyword goes through [`GksIndex::postings_masked`],
/// which on a format-v3 index can skip fully-tombstoned blocks without
/// decoding them; phrases intersect raw lists first and mask the (smaller)
/// intersection, preserving the ledger algebra of the eager path.
pub fn keyword_postings_counted<'a>(
    index: &'a GksIndex,
    dead: &[u32],
    keyword: &Keyword,
    ledger: &mut CostLedger,
) -> Cow<'a, [DeweyId]> {
    ledger.postings_scanned +=
        keyword.terms().iter().map(|t| index.posting_count(t) as u64).sum::<u64>();
    let (list, masked) = if dead.is_empty() {
        (keyword_postings(index, keyword), 0)
    } else if let [term] = keyword.terms() {
        let (list, masked) = index.postings_masked(term, dead);
        (Cow::Owned(list), masked)
    } else {
        let raw = keyword_postings(index, keyword);
        let list: Vec<DeweyId> = raw
            .iter()
            .filter(|id| dead.binary_search(&id.doc().0).is_err())
            .cloned()
            .collect();
        let masked = (raw.len() - list.len()) as u64;
        (Cow::Owned(list), masked)
    };
    ledger.tombstone_masked += masked;
    ledger.per_keyword.push(list.len() as u64);
    list
}

/// Intersection of two sorted lists: binary-search each element of the
/// shorter list in the not-yet-consumed tail of the longer one.
fn intersect(short: &[DeweyId], long: &[DeweyId]) -> Vec<DeweyId> {
    let mut out = Vec::with_capacity(short.len().min(long.len()));
    let mut lo = 0usize;
    for id in short {
        match long[lo..].binary_search(id) {
            Ok(pos) => {
                out.push(id.clone());
                lo += pos + 1;
            }
            Err(pos) => lo += pos,
        }
        if lo >= long.len() {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_dewey::DocId;
    use gks_index::{Corpus, IndexOptions};

    fn d(steps: &[u32]) -> DeweyId {
        DeweyId::new(DocId(0), steps.to_vec())
    }

    #[test]
    fn intersect_basics() {
        let a = vec![d(&[0]), d(&[1]), d(&[3]), d(&[7])];
        let b = vec![d(&[1]), d(&[2]), d(&[3]), d(&[9])];
        assert_eq!(intersect(&a, &b), vec![d(&[1]), d(&[3])]);
        assert_eq!(intersect(&a, &[]), vec![]);
        assert_eq!(intersect(&[], &b), vec![]);
        assert_eq!(intersect(&a, &a), a);
    }

    #[test]
    fn intersect_large_gallop() {
        let long: Vec<DeweyId> = (0..1000).map(|i| d(&[i])).collect();
        let short = vec![d(&[0]), d(&[500]), d(&[999]), d(&[2000])];
        assert_eq!(intersect(&short, &long), vec![d(&[0]), d(&[500]), d(&[999])]);
    }

    #[test]
    fn phrase_postings_require_cooccurrence() {
        let xml = r#"<dblp>
            <article><author>Peter Buneman</author></article>
            <article><author>Peter Chen</author></article>
            <article><author>Mary Buneman</author></article>
        </dblp>"#;
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse(r#""Peter Buneman""#).unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        let postings = keyword_postings(&ix, kw);
        assert!(matches!(postings, Cow::Owned(_)), "a phrase owns its intersection");
        // Only the first article's author node has both terms.
        assert_eq!(postings.len(), 1);
        assert_eq!(postings[0], d(&[0, 0]));
    }

    #[test]
    fn absent_term_kills_phrase() {
        let xml = "<r><a>Peter</a></r>";
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse(r#""Peter Nosuch""#).unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        assert!(keyword_postings(&ix, kw).is_empty());
    }

    #[test]
    fn counted_postings_track_scans_and_mask_drops() {
        let xml = "<r><a>ka</a><a>ka</a><a>kb</a></r>";
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse("ka").unwrap();
        let kw = &q.normalized(ix.analyzer())[0];
        let mut ledger = crate::cost::CostLedger::default();
        let list = keyword_postings_counted(&ix, &[], kw, &mut ledger);
        assert_eq!(list, keyword_postings(&ix, kw));
        assert!(matches!(list, Cow::Borrowed(_)), "an unmasked term borrows the index");
        assert_eq!(ledger.postings_scanned, 2);
        assert_eq!(ledger.tombstone_masked, 0);
        assert_eq!(ledger.per_keyword, vec![2]);
        // Masking the whole document drops every entry — and counts it.
        let mut masked = crate::cost::CostLedger::default();
        let none = keyword_postings_counted(&ix, &[0], kw, &mut masked);
        assert!(none.is_empty());
        assert_eq!(masked.postings_scanned, 2);
        assert_eq!(masked.tombstone_masked, 2);
        assert_eq!(masked.per_keyword, vec![0]);
    }

    #[test]
    fn empty_keyword_has_no_postings() {
        let xml = "<r><a>x</a></r>";
        let corpus = Corpus::from_named_strs([("d", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = crate::query::Query::parse("the").unwrap(); // stop word
        let kw = &q.normalized(ix.analyzer())[0];
        assert!(keyword_postings(&ix, kw).is_empty());
    }
}
