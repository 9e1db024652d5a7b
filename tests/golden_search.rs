//! Byte-identity of search output against a recorded golden file.
//!
//! `tests/data/golden_search.jsonl` holds one line per (query, `s`) pair:
//! the query text, the threshold spelling, the `wire` explain body of the
//! search (hits, ranks, paths and the cost ledger) and, for every fourth
//! query, the `/suggest` body (Deeper-Insight discovery plus refinement).
//! The corpus is a fixed seeded mix of small DBLP-, NASA- and
//! TreeBank-shaped documents. The test re-runs every recorded query against
//! an in-memory build and against the same index saved as format v3 and
//! reopened, and asserts each line is reproduced byte for byte.
//!
//! The oracle, v2↔v3 and sharded proptests compare the engine with itself;
//! this file pins the engine to a recorded answer, so a change to ranks,
//! hits or work counts shows up here even when every path drifts together.
//!
//! To re-record (only from a commit whose output is known to be right):
//! `GKS_BLESS_GOLDEN=1 cargo test --test golden_search`.

use std::collections::{BTreeSet, HashSet};
use std::fs;
use std::path::PathBuf;

use gks::prelude::*;
use gks_core::di::discover_di_counted;
use gks_core::json::Json;
use gks_core::wire;
use gks_datagen::{dblp, nasa, treebank};
use gks_index::persist::IndexFormat;
use gks_index::GksIndex;
use rand::Rng;

const GOLDEN: &str = "tests/data/golden_search.jsonl";
const THRESHOLDS: [&str; 3] = ["1", "half", "all"];
const QUERIES: usize = 100;
const SEED: u64 = 0x601e;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN)
}

fn corpus() -> Corpus {
    Corpus::from_named_strs([
        (
            "dblp",
            dblp::generate(&dblp::Config { articles: 80, ..Default::default() }, SEED).xml,
        ),
        ("nasa", nasa::generate(&nasa::Config { datasets: 6 }, SEED ^ 1).xml),
        (
            "treebank",
            treebank::generate(&treebank::Config { sentences: 12, max_depth: 30 }, SEED ^ 2).xml,
        ),
    ])
    .unwrap()
}

/// The distinct lowercase words (≥ 3 letters) of the text content of `xml`.
fn text_words(xml: &str, out: &mut BTreeSet<String>) {
    let mut in_tag = false;
    let mut word = String::new();
    for c in xml.chars() {
        match c {
            '<' => {
                in_tag = true;
                if word.len() >= 3 {
                    out.insert(std::mem::take(&mut word));
                }
                word.clear();
            }
            '>' => in_tag = false,
            _ if in_tag => {}
            c if c.is_ascii_alphabetic() => word.push(c.to_ascii_lowercase()),
            _ => {
                if word.len() >= 3 {
                    out.insert(std::mem::take(&mut word));
                }
                word.clear();
            }
        }
    }
}

/// The recorded query set: 2–5 keywords drawn from three posting-count
/// buckets (head, middle, tail) with an occasional absent word, so the set
/// covers wide and narrow merges, every threshold and the missing-keyword
/// path. Only used when re-recording; the test itself replays the file.
fn generate_queries(corpus: &Corpus, index: &GksIndex) -> Vec<String> {
    let mut words = BTreeSet::new();
    for name in ["dblp", "nasa", "treebank"] {
        let doc = corpus.docs().iter().find(|d| d.name == name).unwrap();
        text_words(&doc.xml, &mut words);
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
        if seen_terms.insert(term.clone()) && index.posting_count(term) > 0 {
            ranked.push((index.posting_count(term), w));
        }
    }
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let third = ranked.len() / 3;
    let buckets = [&ranked[..third], &ranked[third..2 * third], &ranked[2 * third..]];

    let mut rng = gks_datagen::rng(SEED);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    while out.len() < QUERIES {
        let n = rng.gen_range(2..=5usize);
        let mut keywords: Vec<String> = Vec::new();
        while keywords.len() < n {
            let k = if rng.gen_range(0..12usize) == 0 {
                "zzyzx".to_string()
            } else {
                let bucket = buckets[rng.gen_range(0..3usize)];
                bucket[rng.gen_range(0..bucket.len())].1.clone()
            };
            if !keywords.contains(&k) {
                keywords.push(k);
            }
        }
        let q = keywords.join(" ");
        if seen.insert(q.clone()) {
            out.push(q);
        }
    }
    out
}

/// One golden line: the query, its threshold and the rendered bodies.
fn render_line(engine: &Engine, q: &str, s: &str, suggest: bool) -> String {
    let query = Query::parse(q).unwrap();
    let options = SearchOptions { s: Threshold::parse(s).unwrap(), limit: usize::MAX };
    let response = engine.search(&query, options).unwrap();
    let mut line = String::from("{\"q\":");
    wire::push_json_str(&mut line, q);
    line.push_str(",\"s\":");
    wire::push_json_str(&mut line, s);
    line.push_str(",\"search\":");
    line.push_str(&wire::search_response_json_explained(engine, &response));
    if suggest {
        let (di, _) = discover_di_counted(engine.index(), &response, &DiOptions::default());
        let refinement = engine.refine(&response, &di);
        line.push_str(",\"suggest\":");
        line.push_str(&wire::suggest_response_json(&response, &refinement, &di));
    }
    line.push('}');
    line
}

/// The same index written as format v3 and reopened through the mapped
/// reader.
fn reopened_v3(index: &GksIndex) -> GksIndex {
    let path = std::env::temp_dir().join(format!("gks-golden-{}.gksix", std::process::id()));
    index.save_as(&path, IndexFormat::V3).unwrap();
    let loaded = GksIndex::load(&path).unwrap();
    let _ = fs::remove_file(&path);
    assert_eq!(loaded.format_version(), 3);
    loaded
}

#[test]
fn search_output_matches_golden_file() {
    let corpus = corpus();
    let index = GksIndex::build(&corpus, IndexOptions::default()).unwrap();
    let engines = [
        ("v3 reopened", Engine::from_index(reopened_v3(&index))),
        ("in-memory", Engine::from_index(index)),
    ];

    if std::env::var_os("GKS_BLESS_GOLDEN").is_some() {
        let engine = &engines[1].1;
        let mut out = String::new();
        for (i, q) in generate_queries(&corpus, engine.index()).iter().enumerate() {
            for s in THRESHOLDS {
                out.push_str(&render_line(engine, q, s, i % 4 == 0));
                out.push('\n');
            }
        }
        fs::create_dir_all(golden_path().parent().unwrap()).unwrap();
        fs::write(golden_path(), out).unwrap();
    }

    let golden = fs::read_to_string(golden_path()).unwrap();
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), QUERIES * THRESHOLDS.len(), "golden file is complete");
    for (label, engine) in &engines {
        for (n, expected) in lines.iter().enumerate() {
            let parsed = Json::parse(expected).unwrap();
            let q = parsed.get("q").and_then(Json::as_str).unwrap();
            let s = parsed.get("s").and_then(Json::as_str).unwrap();
            let suggest = parsed.get("suggest").is_some();
            let actual = render_line(engine, q, s, suggest);
            assert!(
                actual == *expected,
                "{label}: golden line {} ({q:?}, s={s}) drifted\nexpected: {expected}\n  actual: {actual}",
                n + 1
            );
        }
    }
}
