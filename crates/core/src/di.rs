//! Deeper Analytical Insights (paper §2.3, §6.2).
//!
//! For the LCE nodes in a response `RQ(s)`, GKS assembles the weighted
//! keyword set `Sw_Q`: every attribute value of every LCE node, weighted by
//! the sum of the ranks of the LCE nodes that carry it. "Each attribute node
//! is assigned a weight equal to the rank of its LCE node" — rank-weighting
//! (rather than raw popularity) is what makes `<journal: SIGMOD Record>`
//! beat `<booktitle: ICPP>` in the paper's Example 2 discussion. The top-m
//! weighted keywords, each with the element path that gives it its
//! *semantics* (`<ip: year: 2001>`), are the DI.
//!
//! DI can be applied recursively: the top-m insight values are fed back as a
//! query, producing `R^r_Q(s)` and deeper insights (§2.3 steps i–iii).

use gks_dewey::DeweyId;
use gks_index::attrstore::AttrSource;
use gks_index::fasthash::FastMap;
use gks_index::GksIndex;

use crate::error::QueryError;
use crate::query::{Keyword, Query};
use crate::search::{search, Hit, HitKind, Response, SearchOptions};

/// Options for DI extraction.
#[derive(Debug, Clone)]
pub struct DiOptions {
    /// How many top-weighted insights to return (`m`; "m is tunable").
    pub top_m: usize,
    /// Include repeating text nodes (author lists etc.) as insight sources,
    /// as the paper's DBLP examples do. When `false`, only true attribute
    /// nodes contribute.
    pub include_repeating_text: bool,
    /// Consider at most this many top-ranked LCE hits (caps DI cost on huge
    /// responses; `usize::MAX` = all).
    pub max_hits: usize,
}

impl Default for DiOptions {
    fn default() -> Self {
        DiOptions { top_m: 5, include_repeating_text: true, max_hits: usize::MAX }
    }
}

/// One discovered insight: a data keyword plus its schema semantics.
#[derive(Debug, Clone)]
pub struct Insight {
    /// The attribute value, as written in the data (e.g. `SIGMOD Record`).
    pub value: String,
    /// Element names from the LCE node down to the value (e.g.
    /// `["inproceedings", "journal"]`) — the keyword's semantics.
    pub path: Vec<String>,
    /// Aggregated weight: sum of the ranks of the LCE hits carrying this
    /// value under this path.
    pub weight: f64,
    /// In how many LCE hits the value occurred.
    pub support: usize,
}

impl Insight {
    /// The paper's display form: `<entity: path: value>`.
    pub fn display(&self) -> String {
        let mut out = String::from("<");
        for p in &self.path {
            out.push_str(p);
            out.push_str(": ");
        }
        out.push_str(&self.value);
        out.push('>');
        out
    }
}

/// Incremental DI aggregation — the body of [`discover_di`], factored so a
/// sharded gather (see [`crate::shard`]) can feed hits resolved against
/// several shard indexes while preserving the exact aggregation, first-seen
/// raw-value choice, and ordering of the unsharded path.
#[derive(Debug)]
pub struct DiAccumulator {
    /// Normalized query terms, to exclude query keywords from Sw_Q ("if a
    /// keyword in the attribute node is part of the user query Q, it is not
    /// included").
    query_terms: std::collections::HashSet<String>,
    /// Aggregation key: (path labels, normalized value).
    agg: FastMap<(Vec<String>, String), Insight>,
    top_m: usize,
    include_repeating_text: bool,
    max_hits: usize,
    observed: usize,
    attrs_evaluated: u64,
}

impl DiAccumulator {
    /// Starts an accumulation for `response`'s query under `options`.
    pub fn new(response: &Response, options: &DiOptions) -> DiAccumulator {
        DiAccumulator {
            query_terms: response
                .keywords()
                .iter()
                .flat_map(|k| k.terms().iter().cloned())
                .collect(),
            agg: FastMap::default(),
            top_m: options.top_m,
            include_repeating_text: options.include_repeating_text,
            max_hits: options.max_hits,
            observed: 0,
            attrs_evaluated: 0,
        }
    }

    /// How many attribute-store entries [`observe`](Self::observe) has
    /// inspected so far — the DI term of the request's
    /// [`CostLedger`](crate::CostLedger). Counted per entry *considered*
    /// (before the repeating-text and query-restating filters), so the
    /// number reflects work done, not insights kept.
    pub fn attrs_evaluated(&self) -> u64 {
        self.attrs_evaluated
    }

    /// Feeds one hit, resolved against `index` via `node` — the hit's id in
    /// `index`'s own document numbering (shard-local for sharded search,
    /// `hit.node` itself otherwise). Hits must arrive in response rank
    /// order; every call counts toward `max_hits`, matching the unsharded
    /// pipeline where non-LCE hits consume budget without contributing.
    pub fn observe(&mut self, index: &GksIndex, hit: &Hit, node: &DeweyId) {
        if self.observed >= self.max_hits {
            return;
        }
        self.observed += 1;
        if hit.kind != HitKind::Lce {
            return;
        }
        let analyzer = index.analyzer();
        let entity_label = index.node_table().label_name(node).unwrap_or("?").to_string();
        for entry in index.attr_store().entries(node) {
            self.attrs_evaluated += 1;
            if entry.source == AttrSource::RepeatingText && !self.include_repeating_text {
                continue;
            }
            // Skip values that restate the query.
            let value_terms = analyzer.analyze(&entry.value);
            if value_terms.is_empty()
                || value_terms.iter().any(|t| self.query_terms.contains(t.as_str()))
            {
                continue;
            }
            let mut path: Vec<String> = Vec::with_capacity(entry.path.len() + 1);
            path.push(entity_label.clone());
            path.extend(
                entry.path.iter().map(|&l| index.node_table().labels().name(l).to_string()),
            );
            let norm_value = value_terms.join(" ");
            let key = (path.clone(), norm_value);
            let insight = self.agg.entry(key).or_insert_with(|| Insight {
                value: entry.value.clone(),
                path,
                weight: 0.0,
                support: 0,
            });
            insight.weight += hit.rank;
            insight.support += 1;
        }
    }

    /// Finishes the accumulation: sorts by (weight desc, support desc,
    /// value asc, path asc) and truncates to the top-m. The path breaks ties
    /// between equal values found under different paths, so the order never
    /// depends on the aggregation map's iteration order.
    pub fn finish(self) -> Vec<Insight> {
        let mut insights: Vec<Insight> = self.agg.into_values().collect();
        insights.sort_by(|a, b| {
            b.weight
                .partial_cmp(&a.weight)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| b.support.cmp(&a.support))
                .then_with(|| a.value.cmp(&b.value))
                .then_with(|| a.path.cmp(&b.path))
        });
        insights.truncate(self.top_m);
        insights
    }
}

/// Extracts DI from a response's LCE hits.
pub fn discover_di(index: &GksIndex, response: &Response, options: &DiOptions) -> Vec<Insight> {
    discover_di_counted(index, response, options).0
}

/// [`discover_di`] plus the number of attribute entries evaluated — the
/// `di_attrs` term of the request's [`CostLedger`](crate::CostLedger).
pub fn discover_di_counted(
    index: &GksIndex,
    response: &Response,
    options: &DiOptions,
) -> (Vec<Insight>, u64) {
    let _di_span = gks_trace::span(gks_trace::SpanKind::Di);
    let mut acc = DiAccumulator::new(response, options);
    for hit in response.hits() {
        acc.observe(index, hit, &hit.node);
    }
    let attrs = acc.attrs_evaluated();
    gks_trace::annotate("di_attrs", attrs);
    (acc.finish(), attrs)
}

/// One round of recursive DI.
#[derive(Debug, Clone)]
pub struct DiRound {
    /// The query this round searched (round 0 = the user query).
    pub query: Query,
    /// The response it produced.
    pub response: Response,
    /// The insights extracted from it.
    pub insights: Vec<Insight>,
}

/// Recursive DI (§2.3): run the query, extract DI, feed the top-m insight
/// values back as the next query, `rounds` times. Stops early when a round
/// yields no insights.
pub fn recursive_di(
    index: &GksIndex,
    query: &Query,
    search_options: SearchOptions,
    di_options: &DiOptions,
    rounds: usize,
) -> Result<Vec<DiRound>, QueryError> {
    let mut out = Vec::new();
    let mut current = query.clone();
    for _ in 0..=rounds {
        let response = search(index, &current, search_options)?;
        let insights = discover_di(index, &response, di_options);
        let next_keywords: Vec<String> = insights.iter().map(|i| i.value.clone()).collect();
        out.push(DiRound { query: current.clone(), response, insights });
        if next_keywords.is_empty() || out.len() > rounds {
            break;
        }
        current = Query::from_keywords(next_keywords)?;
    }
    Ok(out)
}

/// Convenience: the raw spellings of keywords matched nowhere, used by
/// refinement messages.
pub fn missing_keywords(response: &Response) -> Vec<&Keyword> {
    response
        .missing_keyword_indices()
        .iter()
        .map(|&i| &response.keywords()[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gks_index::{Corpus, IndexOptions};

    fn dblp_index() -> GksIndex {
        // Mirrors the Example 2 situation: three authors co-publish in
        // SIGMOD Record 2001; a fourth (Banerjee) publishes a lot in ICPP,
        // alone.
        let mut xml = String::from("<dblp>");
        for i in 0..3 {
            xml.push_str(&format!(
                "<inproceedings><title>Joint {i}</title>\
                 <author>Peter Buneman</author><author>Wenfei Fan</author>\
                 <author>Scott Weinstein</author>\
                 <journal>SIGMOD Record</journal><year>2001</year></inproceedings>"
            ));
        }
        for i in 0..6 {
            xml.push_str(&format!(
                "<inproceedings><title>Solo {i}</title>\
                 <author>Prithviraj Banerjee</author><author>Filler Person</author>\
                 <booktitle>ICPP</booktitle><year>1999</year></inproceedings>"
            ));
        }
        xml.push_str("</dblp>");
        let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
        GksIndex::build(&corpus, IndexOptions::default()).unwrap()
    }

    fn example2_response(ix: &GksIndex) -> Response {
        let q =
            Query::parse(r#""Peter Buneman" "Wenfei Fan" "Scott Weinstein" "Prithviraj Banerjee""#)
                .unwrap();
        search(ix, &q, SearchOptions::with_s(1)).unwrap()
    }

    #[test]
    fn rank_weighting_prefers_sigmod_over_icpp() {
        // ICPP is the most *popular* attribute (6 articles) but SIGMOD
        // Record is relevant to three query authors at once — rank-weighted
        // DI must put SIGMOD Record above ICPP (paper §6.2's central
        // example).
        let ix = dblp_index();
        let r = example2_response(&ix);
        let di = discover_di(&ix, &r, &DiOptions { top_m: 10, ..Default::default() });
        let pos = |needle: &str| {
            di.iter()
                .position(|i| i.value.contains(needle))
                .unwrap_or_else(|| panic!("{needle} not in DI: {di:?}"))
        };
        assert!(pos("SIGMOD") < pos("ICPP"), "{di:#?}");
    }

    #[test]
    fn di_excludes_query_keywords() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let di = discover_di(&ix, &r, &DiOptions { top_m: 50, ..Default::default() });
        assert!(di.iter().all(|i| !i.value.contains("Buneman")));
        assert!(di.iter().all(|i| !i.value.contains("Banerjee")));
    }

    #[test]
    fn di_paths_expose_semantics() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let di = discover_di(&ix, &r, &DiOptions { top_m: 20, ..Default::default() });
        let year = di.iter().find(|i| i.value == "2001").expect("year insight");
        assert_eq!(year.path, vec!["inproceedings", "year"]);
        assert_eq!(year.display(), "<inproceedings: year: 2001>");
    }

    #[test]
    fn repeating_text_sources_can_be_excluded() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let opts = DiOptions { top_m: 50, include_repeating_text: false, ..Default::default() };
        let di = discover_di(&ix, &r, &opts);
        // Co-author names come from repeating <author> nodes.
        assert!(di.iter().all(|i| i.path.last().map(String::as_str) != Some("author")));
        // Attribute-node insights (journal, year, title) remain.
        assert!(di.iter().any(|i| i.value == "2001"));
    }

    #[test]
    fn recursive_di_runs_multiple_rounds() {
        let ix = dblp_index();
        let q = Query::parse(r#""Peter Buneman""#).unwrap();
        let rounds = recursive_di(
            &ix,
            &q,
            SearchOptions::with_s(1),
            &DiOptions { top_m: 2, ..Default::default() },
            2,
        )
        .unwrap();
        assert!(rounds.len() >= 2, "initial round plus at least one recursion");
        assert_eq!(rounds[0].query, q);
        // The second round queries the first round's insight values.
        let first_values: Vec<&str> = rounds[0].insights.iter().map(|i| i.value.as_str()).collect();
        for kw in rounds[1].query.keywords() {
            assert!(first_values.contains(&kw.raw()));
        }
    }

    #[test]
    fn di_counts_attribute_entries_evaluated() {
        let ix = dblp_index();
        let r = example2_response(&ix);
        let (di, attrs) = discover_di_counted(&ix, &r, &DiOptions::default());
        assert!(!di.is_empty());
        // Every LCE hit carries at least title/journal-or-booktitle/year
        // attribute entries, and evaluation counts filtered entries too, so
        // the count strictly exceeds the kept-insight count.
        assert!(attrs as usize >= di.len(), "{attrs} evaluated vs {} kept", di.len());
        assert!(attrs > 0);
        let q = Query::parse("zzznothing").unwrap();
        let empty = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        assert_eq!(discover_di_counted(&ix, &empty, &DiOptions::default()).1, 0);
    }

    #[test]
    fn equal_insights_under_different_paths_order_by_path() {
        // "Ann Lee" is an author of one article and one inproceedings of the
        // same shape: same weight, same support, same value — only the path
        // tells the two insights apart, and it must decide their order.
        let mut xml = String::from("<dblp>");
        for kind in ["inproceedings", "article"] {
            for (i, author) in ["Ann Lee", "Bo Chu"].iter().enumerate() {
                xml.push_str(&format!(
                    "<{kind}><title>Graphs {kind} {i}</title>\
                     <author>{author}</author><author>Cy Dee</author></{kind}>"
                ));
            }
        }
        xml.push_str("</dblp>");
        let corpus = Corpus::from_named_strs([("dblp", xml)]).unwrap();
        let ix = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
        let r = search(&ix, &Query::parse("graphs").unwrap(), SearchOptions::with_s(1)).unwrap();
        let di = discover_di(&ix, &r, &DiOptions { top_m: 100, ..Default::default() });
        let ann: Vec<&Insight> = di.iter().filter(|i| i.value == "Ann Lee").collect();
        assert_eq!(ann.len(), 2, "{di:?}");
        assert_eq!((ann[0].weight, ann[0].support), (ann[1].weight, ann[1].support));
        assert!(ann[0].path < ann[1].path, "{:?} before {:?}", ann[0].path, ann[1].path);
    }

    #[test]
    fn empty_response_yields_no_di() {
        let ix = dblp_index();
        let q = Query::parse("zzz").unwrap();
        let r = search(&ix, &q, SearchOptions::with_s(1)).unwrap();
        assert!(discover_di(&ix, &r, &DiOptions::default()).is_empty());
    }
}
