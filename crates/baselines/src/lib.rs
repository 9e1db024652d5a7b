//! LCA-family baselines for GKS.
//!
//! The paper positions GKS against the classical AND-semantics algorithms
//! (§3, Table 1, Table 7) and against the naive way of achieving GKS
//! semantics with them (Lemma 3). This crate implements:
//!
//! * [`slca`] — Smallest LCA (Xu & Papakonstantinou 2005): the deepest nodes
//!   containing *all* query keywords; two algorithms — a CA-map scan and the
//!   Indexed Lookup Eager method — cross-checked against each other;
//! * [`elca`] — Exclusive LCA (XRank): nodes containing all keywords after
//!   excluding occurrences inside descendants that themselves contain all
//!   keywords;
//! * [`naive`] — the Lemma 3 strawman: GKS semantics via one SLCA query per
//!   keyword subset of size ≥ s (exponentially many sub-queries);
//! * [`oracle`] — a DOM-based ground-truth: exact matched-keyword sets for
//!   every node of a document, used by integration and property tests;
//! * [`xrank`] / [`tfidf`] — the §3 ranking baselines (XRank's ElemRank with
//!   proximity decay; XSEarch's TF-IDF), used by the ranking ablation.

// Not an engine library crate: unwrap/expect on deterministic, known-good
// data is acceptable here. The hard panic-free rule is scoped to the
// engine crates and enforced by `cargo xtask lint` (see docs/ANALYSIS.md).
#![allow(clippy::unwrap_used, clippy::expect_used)]

pub mod elca;
pub mod naive;
pub mod oracle;
pub mod slca;
pub mod slca_stack;
pub mod tfidf;
pub mod xrank;

use gks_core::postlist::keyword_postings;
use gks_core::query::Query;
use gks_dewey::DeweyId;
use gks_index::GksIndex;

/// Resolves a query to per-keyword posting lists using the same
/// normalization as GKS search, so baselines and GKS see identical inputs.
pub fn query_posting_lists(index: &GksIndex, query: &Query) -> Vec<Vec<DeweyId>> {
    query
        .normalized(index.analyzer())
        .iter()
        .map(|k| keyword_postings(index, k).into_owned())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::{Corpus, IndexOptions};

    #[test]
    fn posting_lists_match_core_normalization() {
        let xml = "<r><a>Databases</a><b>databases</b></r>";
        let corpus = Corpus::from_named_strs([("t", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let q = Query::parse("Databases").unwrap();
        let lists = query_posting_lists(&ix, &q);
        assert_eq!(lists.len(), 1);
        assert_eq!(lists[0].len(), 2, "case and stemming normalized");
    }
}
