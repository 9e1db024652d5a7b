//! The three workloads: seeded corpora, request sequences and write
//! schedules. Everything here is a pure function of the workload seed; the
//! server only ever sees the files and requests generated from it.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gks_core::query::Query;
use gks_index::GksIndex;
use gks_server::http::percent_encode;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Distinct queries over a mixed DBLP/NASA/TreeBank index: every request
    /// misses the result cache, so the time goes to the engine.
    EngineMiss,
    /// A Zipf-skewed pool of queries that fits in the result cache: the
    /// engine is bypassed, the time goes to HTTP, cache and transport.
    CacheHot,
    /// Distinct queries over a live two-shard manifest while a fixed write
    /// schedule commits deltas and compacts.
    ShardChurn,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::EngineMiss, Workload::CacheHot, Workload::ShardChurn];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name as used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EngineMiss => "engine-miss",
            Workload::CacheHot => "cache-hot",
            Workload::ShardChurn => "shard-churn",
        }
    }

    /// The fixed load shape of this workload.
    pub fn shape(self) -> Shape {
        match self {
            Workload::EngineMiss => Shape {
                ladder: &[80.0, 160.0, 400.0],
                ref_share: 0.7,
                p99_limit_ms: 250.0,
                replay: 240,
            },
            Workload::CacheHot => Shape {
                ladder: &[4000.0, 8000.0, 80000.0],
                ref_share: 0.6,
                p99_limit_ms: 20.0,
                replay: 3000,
            },
            Workload::ShardChurn => Shape {
                ladder: &[200.0, 320.0, 800.0],
                ref_share: 0.8,
                p99_limit_ms: 250.0,
                replay: 240,
            },
        }
    }
}

/// How a workload is driven: a fixed rate ladder whose first rung is the
/// reference rate, a latency limit, and the traced replay's length.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Open-loop rates in requests per second, ascending; `ladder[0]` is the
    /// reference rate at which `p50_ms`/`p99_ms` are taken.
    pub ladder: &'static [f64],
    /// Share of the timed phase spent at the reference rate; the rest is
    /// split evenly over the higher rungs.
    pub ref_share: f64,
    /// A rung passes only if its p99 (timed from when each request was
    /// due) stays within this limit.
    pub p99_limit_ms: f64,
    /// Requests the traced replay takes from the front of the sequence.
    pub replay: usize,
}

/// A small deterministic generator (SplitMix64) for query sampling.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x0005_eed0_f9b5)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// A uniformly chosen element.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() - 1)]
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `/suggest` (search plus DI and refinement) instead of `/search`.
    pub suggest: bool,
    /// Raw keywords, in query order.
    pub keywords: Vec<String>,
    /// The `s` parameter: `1`, `half` or `all`.
    pub s: &'static str,
}

impl Request {
    /// The request target: path plus query string.
    pub fn target(&self) -> String {
        let path = if self.suggest { "/suggest" } else { "/search" };
        format!("{path}?q={}&s={}", percent_encode(&self.keywords.join(" ")), self.s)
    }

    /// The raw `q` value.
    pub fn q(&self) -> String {
        self.keywords.join(" ")
    }
}

/// The generated corpus of one run.
#[derive(Debug)]
pub struct CorpusFiles {
    /// The XML files, in document order.
    pub files: Vec<PathBuf>,
    /// Total XML bytes.
    pub xml_bytes: u64,
}

fn write_file(path: &Path, text: &str) -> io::Result<()> {
    fs::write(path, text)
}

/// Writes the mixed corpus of `engine-miss` and `cache-hot`: a DBLP-like,
/// a NASA-like and a TreeBank-like document (Dewey depths of about 2, 5
/// and 31) under `dir`.
pub fn write_mixed_corpus(dir: &Path, seed: u64) -> io::Result<CorpusFiles> {
    use gks_datagen::{dblp, nasa, treebank};
    fs::create_dir_all(dir)?;
    let docs = [
        (
            "dblp.xml",
            dblp::generate(&dblp::Config { articles: 8000, ..Default::default() }, seed).xml,
        ),
        ("nasa.xml", nasa::generate(&nasa::Config { datasets: 300 }, seed ^ 1).xml),
        (
            "treebank.xml",
            treebank::generate(&treebank::Config { sentences: 300, max_depth: 30 }, seed ^ 2).xml,
        ),
    ];
    let mut files = Vec::new();
    let mut xml_bytes = 0u64;
    for (name, xml) in docs {
        let path = dir.join(name);
        write_file(&path, &xml)?;
        xml_bytes += xml.len() as u64;
        files.push(path);
    }
    Ok(CorpusFiles { files, xml_bytes })
}

/// Documents in the `shard-churn` corpus directory.
pub const CHURN_DOCS: usize = 48;

/// One small `shard-churn` document: a DBLP-like bibliography, or every
/// fourth one a NASA-like record set, so shards mix shapes.
pub fn churn_doc(seed: u64, slot: usize, version: u64) -> String {
    use gks_datagen::{dblp, nasa};
    let s = seed
        .wrapping_mul(1_000_003)
        .wrapping_add(slot as u64 * 7919 + version * 104_729);
    if slot % 4 == 3 {
        nasa::generate(&nasa::Config { datasets: 12 }, s).xml
    } else {
        dblp::generate(&dblp::Config { articles: 90, ..Default::default() }, s).xml
    }
}

/// Name of corpus slot `slot` inside the churn directory.
pub fn churn_name(slot: usize) -> String {
    format!("doc-{slot:03}.xml")
}

/// Writes the initial `shard-churn` corpus directory.
pub fn write_churn_corpus(dir: &Path, seed: u64) -> io::Result<CorpusFiles> {
    fs::create_dir_all(dir)?;
    let mut files = Vec::new();
    let mut xml_bytes = 0u64;
    for slot in 0..CHURN_DOCS {
        let xml = churn_doc(seed, slot, 0);
        let path = dir.join(churn_name(slot));
        write_file(&path, &xml)?;
        xml_bytes += xml.len() as u64;
        files.push(path);
    }
    Ok(CorpusFiles { files, xml_bytes })
}

/// One scripted change to the churn corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Write {
    /// Rewrite an existing slot with a new version of its content.
    Rewrite(usize),
    /// Add a slot beyond the initial corpus.
    Add(usize),
    /// Delete a slot.
    Delete(usize),
}

/// The writes of `shard-churn` batch `b` (any `b`; a run commits one batch
/// per reference segment, replacements included): five rewrites of base
/// documents, two added documents, and one delete — of the base document
/// `CHURN_DOCS - 1` for the first batch, else of a document the previous
/// batch added. Eight documents change in every commit. The slots are
/// fixed; only their content depends on the seed.
pub fn churn_batch(b: usize) -> Vec<Write> {
    let rewrites = (0..5).map(|k| Write::Rewrite((b * 5 + k) % (CHURN_DOCS - 1)));
    let delete = if b == 0 {
        CHURN_DOCS - 1
    } else {
        CHURN_DOCS + 2 * (b - 1)
    };
    rewrites
        .chain([
            Write::Add(CHURN_DOCS + 2 * b),
            Write::Add(CHURN_DOCS + 2 * b + 1),
            Write::Delete(delete),
        ])
        .collect()
}

/// When, in seconds from the start of a reference segment, its batch is
/// committed and the index compacted. Segments are 4.8 s at the default
/// length, so commits sit at least 3.7 s apart and every compaction
/// follows its commit by 0.8 s: far from the delta planner's 2 s mtime
/// slack on either side, so every commit hashes the same number of files.
pub const CHURN_COMMIT_AT: f64 = 0.3;
/// See [`CHURN_COMMIT_AT`].
pub const CHURN_COMPACT_AT: f64 = 1.1;

/// Applies one write to the churn directory, returning the XML bytes
/// written (0 for a delete).
pub fn apply_write(dir: &Path, seed: u64, write: &Write, version: u64) -> io::Result<u64> {
    match *write {
        Write::Rewrite(slot) | Write::Add(slot) => {
            let xml = churn_doc(seed, slot, version);
            write_file(&dir.join(churn_name(slot)), &xml)?;
            Ok(xml.len() as u64)
        }
        Write::Delete(slot) => {
            fs::remove_file(dir.join(churn_name(slot)))?;
            Ok(0)
        }
    }
}

/// Searchable words grouped by how many postings their term has.
#[derive(Debug, Default)]
pub struct Vocabulary {
    /// The tail of the ranking: tens to hundreds of postings.
    pub rare: Vec<String>,
    /// The middle: hundreds to a few thousand postings.
    pub common: Vec<String>,
    /// The head: thousands of postings and more.
    pub frequent: Vec<String>,
}

/// The distinct lowercase words of the text content of `xml` (markup
/// skipped).
fn text_words(xml: &str, out: &mut BTreeSet<String>) {
    let mut in_tag = false;
    let mut word = String::new();
    let mut flush = |word: &mut String| {
        if word.len() >= 3 {
            out.insert(std::mem::take(word));
        }
        word.clear();
    };
    for c in xml.chars() {
        match c {
            '<' => {
                flush(&mut word);
                in_tag = true;
            }
            '>' => in_tag = false,
            _ if in_tag => {}
            c if c.is_ascii_alphabetic() => word.push(c.to_ascii_lowercase()),
            _ => flush(&mut word),
        }
    }
    flush(&mut word);
}

/// Buckets the words of `files` by the posting count of their analyzed
/// term in `index` (read from the term dictionary, so nothing is decoded):
/// the `sizes[0]` words with the most postings are `frequent`, the next
/// `sizes[1]` are `common`, the next `sizes[2]` are `rare`. Ranking rather
/// than fixed thresholds keeps the query cost distribution alike across
/// seeds. Words whose analyzed form is not a single indexed term are
/// skipped; words sharing a term keep only the first spelling.
pub fn vocabulary(
    files: &[PathBuf],
    index: &GksIndex,
    sizes: [usize; 3],
) -> io::Result<Vocabulary> {
    let mut words = BTreeSet::new();
    for f in files {
        text_words(&fs::read_to_string(f)?, &mut words);
    }
    let mut seen_terms = HashSet::new();
    let mut ranked: Vec<(usize, String)> = Vec::new();
    for w in words {
        let Ok(query) = Query::parse(&w) else {
            continue;
        };
        let keywords = query.normalized(index.analyzer());
        let [keyword] = keywords.as_slice() else {
            continue;
        };
        let [term] = keyword.terms() else { continue };
        if !seen_terms.insert(term.clone()) {
            continue;
        }
        let count = index.posting_count(term);
        if count > 0 {
            ranked.push((count, w));
        }
    }
    // Most postings first; ties in word order, so the ranking is a pure
    // function of the corpus.
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut it = ranked.into_iter().map(|(_, w)| w);
    let frequent = it.by_ref().take(sizes[0]).collect();
    let common = it.by_ref().take(sizes[1]).collect();
    let rare: Vec<String> = it.take(sizes[2]).collect();
    if rare.is_empty() {
        return Err(io::Error::other("corpus too small for the query vocabulary"));
    }
    Ok(Vocabulary { rare, common, frequent })
}

const THRESHOLDS: [&str; 3] = ["1", "half", "all"];

fn draw_keyword(rng: &mut Rng, vocab: &Vocabulary, weights: [f64; 3]) -> String {
    let pools = [&vocab.rare, &vocab.common, &vocab.frequent];
    let u = rng.unit();
    let mut b = if u < weights[0] {
        0
    } else if u < weights[0] + weights[1] {
        1
    } else {
        2
    };
    // `vocabulary` guarantees some pool is non-empty.
    while pools[b].is_empty() {
        b = (b + 1) % pools.len();
    }
    rng.pick(pools[b]).clone()
}

fn draw_request(
    rng: &mut Rng,
    vocab: &Vocabulary,
    n: (usize, usize),
    weights: [f64; 3],
    suggest_every: u64,
) -> Request {
    let n = rng.range(n.0, n.1);
    let mut keywords: Vec<String> = Vec::with_capacity(n);
    while keywords.len() < n {
        let k = draw_keyword(rng, vocab, weights);
        if !keywords.contains(&k) {
            keywords.push(k);
        }
    }
    Request {
        suggest: suggest_every > 0 && rng.next_u64().is_multiple_of(suggest_every),
        keywords,
        s: THRESHOLDS[rng.range(0, THRESHOLDS.len() - 1)],
    }
}

/// `count` pairwise-distinct requests (distinct `/search` or `/suggest`
/// target, hence distinct result-cache keys): n ∈ 2..=8 keywords drawn
/// from the three posting-count buckets, s ∈ {1, half, all}, every fourth
/// request on average a `/suggest`.
pub fn distinct_requests(seed: u64, vocab: &Vocabulary, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0xd15_71c7);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let r = draw_request(&mut rng, vocab, (2, 8), [0.5, 0.4, 0.1], 4);
        if seen.insert(r.target()) {
            out.push(r);
        }
    }
    out
}

/// The `cache-hot` query pool: `size` distinct short requests.
pub fn hot_pool(seed: u64, vocab: &Vocabulary, size: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ 0x407_9001);
    let mut seen = HashSet::with_capacity(size);
    let mut out = Vec::with_capacity(size);
    while out.len() < size {
        let r = draw_request(&mut rng, vocab, (1, 4), [0.6, 0.35, 0.05], 0);
        if seen.insert(r.target()) {
            out.push(r);
        }
    }
    out
}

/// Zipf(s = 1) draws of `count` pool ranks.
pub fn zipf_ranks(seed: u64, pool: usize, count: usize) -> Vec<usize> {
    let mut cumulative = Vec::with_capacity(pool);
    let mut total = 0.0;
    for rank in 0..pool {
        total += 1.0 / (rank + 1) as f64;
        cumulative.push(total);
    }
    let mut rng = Rng::new(seed ^ 0x21bf);
    (0..count)
        .map(|_| {
            let target = rng.unit() * total;
            cumulative.partition_point(|&c| c <= target).min(pool - 1)
        })
        .collect()
}

/// Indices of a seeded sample of `k` out of `n` items, ascending.
pub fn sample_indices(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x05a4_d91e);
    let mut picked = BTreeMap::new();
    while picked.len() < k.min(n) {
        picked.insert(rng.range(0, n - 1), ());
    }
    picked.into_keys().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_words_skip_markup() {
        let mut out = BTreeSet::new();
        text_words(
            "<article key=\"x\"><title>Keyword Search</title><ab>of XML</ab></article>",
            &mut out,
        );
        let got: Vec<&str> = out.iter().map(String::as_str).collect();
        assert_eq!(got, vec!["keyword", "search", "xml"]);
    }

    #[test]
    fn zipf_prefers_low_ranks_and_repeats() {
        let a = zipf_ranks(3, 100, 2000);
        assert_eq!(a, zipf_ranks(3, 100, 2000));
        let top = a.iter().filter(|&&r| r == 0).count();
        let tail = a.iter().filter(|&&r| r == 99).count();
        assert!(top > 5 * tail.max(1));
    }

    #[test]
    fn churn_batches_change_eight_live_documents() {
        let mut live: BTreeSet<usize> = (0..CHURN_DOCS).collect();
        for b in 0..20 {
            let batch = churn_batch(b);
            assert_eq!(batch.len(), 8);
            for w in batch {
                match w {
                    Write::Rewrite(slot) => {
                        assert!(live.contains(&slot), "batch {b} rewrites {slot}")
                    }
                    Write::Add(slot) => assert!(live.insert(slot), "batch {b} re-adds {slot}"),
                    Write::Delete(slot) => assert!(live.remove(&slot), "batch {b} deletes {slot}"),
                }
            }
        }
    }
}
