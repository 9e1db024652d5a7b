//! The traced run: per-layer metrics from an in-process replay.
//!
//! The replay takes the untraced run's exact request sequence (warm-up
//! first, then the front of the timed sequence) and runs it four times,
//! each leg on a freshly opened index and an empty result cache, so
//! first-touch posting decode is charged the same way on every leg:
//!
//! 1. **handle** — `http::parse_request` then `ServeState::handle`, the
//!    server's whole request path minus the socket.
//! 2. **layers** — the same requests through the layers' public functions,
//!    called one by one from here with a span around each: cache probe,
//!    query parse, `Query::normalized`, first-touch posting fetch,
//!    `keyword_postings_counted`, `merge_posting_lists_counted`,
//!    `lcp_candidates`, LCE lookup through the `NodeTable`,
//!    `sweep_counted`, `search_masked` (whose time beyond the parts above
//!    is the assemble step), DI, the `wire` renderers and the cache insert;
//!    sharded requests scatter per-shard work over the index's
//!    `ShardExecutor` and gather with `merge_responses`. `shard-churn`
//!    interleaves its write schedule as `poll_corpus` and `compact_now`
//!    calls, spread over the replayed prefix.
//! 3. **untraced layers** — leg 2 with the span recorder off; the p50
//!    difference between legs 2 and 3 is the tracing overhead.
//! 4. **socket** — the sequence over the loopback socket to an in-process
//!    server at the reference rate (without the write schedule).
//!
//! Leg 2's responses are compared byte for byte with leg 1's.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use gks_core::cost::CostLedger;
use gks_core::di::{discover_di_counted, DiOptions};
use gks_core::engine::Engine;
use gks_core::merge::merge_posting_lists_counted;
use gks_core::postlist::keyword_postings_counted;
use gks_core::query::Query;
use gks_core::search::{search_masked, Response, SearchOptions};
use gks_core::sweep::sweep_counted;
use gks_core::window::lcp_candidates;
use gks_core::{discover_di_sharded_counted, merge_responses, wire, QueryError};
use gks_index::delta::scan_corpus_dir;
use gks_index::persist::IndexFormat;
use gks_index::shard::ShardManifest;
use gks_index::{Corpus, GksIndex, IndexOptions};
use gks_server::catalog::IndexSpec;
use gks_server::http::parse_request;
use gks_server::ServeState;

use crate::loadgen::{self, NoCheck, Rung};
use crate::run::{self, backdate, err, manifest_bytes, Args, Metric, RunOutput, WorkDir};
use crate::server::serve_config;
use crate::spans::{self, Span};
use crate::stats::{median, quantile};
use crate::workload::{self, Request, Workload};

/// The delta planner's mtime slack (`MTIME_SLACK_MS` in
/// `gks_index::delta`), used to predict which files a commit hashes.
const MTIME_SLACK_MS: u64 = 2_000;

/// Spans of set-up and of the write schedule carry these request ids.
const SETUP_ID: u64 = 0;
/// Request ids of leg `k` are `k * LEG_IDS + i + 1`.
const LEG_IDS: u64 = 1_000_000;

/// Everything the legs share.
pub struct Prepared {
    work: WorkDir,
    workload: Workload,
    seed: u64,
    /// The v3 index file over the whole corpus (the unsharded legs serve
    /// it; `shard-churn` uses it for set-up timing and its vocabulary).
    index_path: PathBuf,
    setup: SetupTimes,
    /// Warm-up requests followed by the replayed timed prefix.
    seq: Vec<Request>,
    /// Length of the warm-up part of `seq`.
    warm_len: usize,
    /// `shard-churn`: replay index → batch number (or `None` for the
    /// compaction).
    writes: BTreeMap<usize, Option<usize>>,
}

#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    xml_parse_ns: u64,
    build_ns: u64,
    persist_ns: u64,
    open_ns: u64,
    bytes_written: u64,
    bytes_mapped: u64,
}

fn timed<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let _span = spans::enter(name, id);
    let t = Instant::now();
    let out = f();
    (out, elapsed_ns(t))
}

fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Generates the corpus, times the set-up layers, and derives the request
/// sequence and write points exactly as the untraced run does.
pub fn prepare(args: &Args, replay: usize) -> Result<Prepared, String> {
    let shape = args.workload.shape();
    let work = WorkDir::new(&format!("trace-{}-{}", args.workload.name(), args.seed))
        .map_err(err("work dir"))?;
    let corpus_dir = work.join("corpus");
    let corpus = if args.workload == Workload::ShardChurn {
        workload::write_churn_corpus(&corpus_dir, args.seed)
    } else {
        workload::write_mixed_corpus(&corpus_dir, args.seed)
    }
    .map_err(err("write corpus"))?;
    backdate(&corpus.files).map_err(err("backdate"))?;

    let mut setup = SetupTimes::default();
    let texts: Vec<String> = corpus
        .files
        .iter()
        .map(fs::read_to_string)
        .collect::<Result<_, _>>()
        .map_err(err("read corpus"))?;
    let (parsed, ns) = timed("xml.parse", SETUP_ID, || {
        texts.iter().try_for_each(|t| {
            let mut reader = gks_xml::Reader::new(t);
            while reader.next_event()?.is_some() {}
            Ok::<(), gks_xml::XmlError>(())
        })
    });
    parsed.map_err(err("parse xml"))?;
    setup.xml_parse_ns = ns;
    let (index, ns) = timed("index.build", SETUP_ID, || {
        let corpus = Corpus::from_paths(&corpus.files)?;
        GksIndex::build(&corpus, IndexOptions::default())
    });
    let index = index.map_err(err("build"))?;
    setup.build_ns = ns;
    let index_path = work.join("ix.gksix");
    let (written, ns) =
        timed("index.persist", SETUP_ID, || index.save_as(&index_path, IndexFormat::V3));
    setup.bytes_written = written.map_err(err("save"))?;
    setup.persist_ns = ns;
    drop(index);
    let (opened, ns) = timed("index.open", SETUP_ID, || GksIndex::load(&index_path));
    let opened = opened.map_err(err("open"))?;
    setup.open_ns = ns;
    setup.bytes_mapped = opened.bytes_mapped();

    let vocab =
        workload::vocabulary(&corpus.files, &opened, run::BUCKETS).map_err(err("vocabulary"))?;
    let rungs = loadgen::ladder(shape.ladder, shape.ref_share, args.seconds);
    let inputs = run::inputs(args, &vocab, loadgen::capacity(&rungs));
    let warm_len = inputs.warm.len();
    let seq: Vec<Request> =
        inputs.warm.into_iter().chain(inputs.timed.into_iter().take(replay)).collect();
    let mut writes = BTreeMap::new();
    if args.workload == Workload::ShardChurn {
        // One round per reference segment, as in the untraced run: the
        // replayed prefix is cut into as many parts, and each round's commit
        // and compaction sit at the same offsets into its part.
        let seg_secs = rungs[0].secs / loadgen::SEGMENTS as f64;
        let part = (seq.len() - warm_len) as f64 / loadgen::SEGMENTS as f64;
        let at = |b: usize, secs: f64| warm_len + (part * (b as f64 + secs / seg_secs)) as usize;
        for b in 0..loadgen::SEGMENTS {
            writes.insert(at(b, workload::CHURN_COMMIT_AT), Some(b));
            writes.insert(at(b, workload::CHURN_COMPACT_AT), None);
        }
    }
    Ok(Prepared {
        work,
        workload: args.workload,
        seed: args.seed,
        index_path,
        setup,
        seq,
        warm_len,
        writes,
    })
}

/// A leg's own serving state: a freshly opened index (and, for
/// `shard-churn`, a fresh corpus directory and manifest).
struct LegState {
    state: ServeState,
    /// `shard-churn`: the leg's corpus directory and manifest.
    live: Option<(PathBuf, PathBuf)>,
}

/// The index a leg serves: the shared v3 file, or (`shard-churn`) a fresh
/// corpus directory and manifest of the leg's own, returned alongside.
fn leg_spec(prep: &Prepared, leg: &str) -> Result<(IndexSpec, Option<(PathBuf, PathBuf)>), String> {
    if prep.workload != Workload::ShardChurn {
        return Ok((IndexSpec::with_source("default", &prep.index_path), None));
    }
    let dir = prep.work.join(&format!("{leg}/corpus"));
    let files = workload::write_churn_corpus(&dir, prep.seed).map_err(err("write corpus"))?;
    backdate(&files.files).map_err(err("backdate"))?;
    let manifest = prep.work.join(&format!("{leg}/churn.manifest"));
    gks_index::delta::index_directory(&dir, &manifest, run::CHURN_SHARDS, IndexOptions::default())
        .map_err(err("index directory"))?;
    let spec = IndexSpec::with_manifest("default", &manifest).map_err(err("manifest"))?;
    Ok((spec, Some((dir, manifest))))
}

fn leg_state(prep: &Prepared, leg: &str) -> Result<LegState, String> {
    let (spec, live) = leg_spec(prep, leg)?;
    let state = ServeState::with_catalog(vec![spec], None, serve_config()).map_err(err("serve"))?;
    Ok(LegState { state, live })
}

/// What the write schedule did during one leg.
#[derive(Debug, Default, Clone)]
struct DeltaTotals {
    commit_ns: Vec<u64>,
    docs_changed: u64,
    files_hashed: u64,
    delta_bytes: u64,
    changed_xml_bytes: u64,
    compact_ns: Vec<u64>,
    compact_bytes: u64,
}

/// Files the next commit will read and hash: those the delta planner's
/// mtime fast path does not vouch for (new, or touched since shortly
/// before the last commit).
fn files_to_hash(manifest: &Path, corpus: &Path) -> Result<u64, String> {
    let m = ShardManifest::load(manifest).map_err(err("load manifest"))?;
    let scanned = scan_corpus_dir(corpus).map_err(err("scan"))?;
    Ok(scanned
        .iter()
        .filter(|s| {
            let known = m.docs.iter().find(|d| d.name == s.name);
            !known.is_some_and(|d| {
                d.mtime_ms != 0
                    && d.mtime_ms == s.mtime_ms
                    && s.mtime_ms.saturating_add(MTIME_SLACK_MS) < m.committed_ms
            })
        })
        .count() as u64)
}

/// Applies the write point at replay index `i`, if any. Written files get
/// an mtime in the past (as if written well before the commit), so the
/// number of files each commit hashes does not depend on how fast the
/// replay runs.
fn apply_write_point(
    prep: &Prepared,
    leg: &LegState,
    i: usize,
    id: u64,
    delta: &mut DeltaTotals,
) -> Result<(), String> {
    let (Some(point), Some((dir, manifest))) = (prep.writes.get(&i), &leg.live) else {
        return Ok(());
    };
    let resident = leg.state.catalog().default_index();
    match *point {
        Some(b) => {
            let past = SystemTime::now() - Duration::from_secs(30);
            for w in &workload::churn_batch(b) {
                let bytes =
                    workload::apply_write(dir, prep.seed, w, b as u64 + 1).map_err(err("write"))?;
                delta.changed_xml_bytes += bytes;
                if let workload::Write::Rewrite(slot) | workload::Write::Add(slot) = *w {
                    let path = dir.join(workload::churn_name(slot));
                    fs::File::options()
                        .write(true)
                        .open(&path)
                        .and_then(|f| f.set_modified(past))
                        .map_err(err("set mtime"))?;
                }
            }
            delta.files_hashed += files_to_hash(manifest, dir)?;
            let (stats, ns) = timed("index.delta.commit", id, || resident.poll_corpus());
            let stats = stats.map_err(err("commit"))?.ok_or("a write batch committed nothing")?;
            delta.commit_ns.push(ns);
            delta.docs_changed += (stats.added + stats.changed + stats.deleted) as u64;
            if let Some(p) = &stats.delta_path {
                delta.delta_bytes += fs::metadata(p).map(|m| m.len()).map_err(err("stat delta"))?;
            }
        }
        None => {
            let (stats, ns) = timed("index.compact", id, || resident.compact_now());
            stats.map_err(err("compact"))?;
            delta.compact_ns.push(ns);
            delta.compact_bytes = manifest_bytes(manifest)?;
        }
    }
    Ok(())
}

fn request_head(req: &Request) -> String {
    format!("GET {} HTTP/1.1\r\nHost: gks\r\n\r\n", req.target())
}

/// Leg 1: the server's request path through `ServeState::handle`.
fn handle_leg(prep: &Prepared) -> Result<(Vec<u64>, Vec<Vec<u8>>), String> {
    let leg = leg_state(prep, "handle")?;
    let mut delta = DeltaTotals::default();
    let mut handle_ns = Vec::with_capacity(prep.seq.len());
    let mut bodies = Vec::with_capacity(prep.seq.len());
    for (i, req) in prep.seq.iter().enumerate() {
        let id = LEG_IDS + i as u64 + 1;
        apply_write_point(prep, &leg, i, LEG_IDS, &mut delta)?;
        let head = request_head(req);
        let (request, _) = timed("server.http.parse", id, || parse_request(&head));
        let request = request.map_err(|e| format!("parse request: {e:?}"))?;
        let (response, ns) =
            timed("server.handle", id, || leg.state.handle(&request, Instant::now()));
        if response.status != 200 {
            return Err(format!("handle answered {} to {}", response.status, req.target()));
        }
        handle_ns.push(ns);
        bodies.push(response.body);
    }
    Ok((handle_ns, bodies))
}

/// Work and time one engine run did inside the layers leg.
#[derive(Debug, Default, Clone)]
struct CoreTimes {
    first_touch_ns: u64,
    first_touches: u64,
    warm_fetch_ns: u64,
    warm_fetches: u64,
    /// Time of the parts timed one by one (normalize … sweep).
    parts_ns: u64,
    postings_ns: u64,
    merge_ns: u64,
    window_ns: u64,
    sweep_ns: u64,
    search_ns: u64,
    candidates: u64,
}

impl CoreTimes {
    fn add(&mut self, o: &CoreTimes) {
        self.first_touch_ns += o.first_touch_ns;
        self.first_touches += o.first_touches;
        self.warm_fetch_ns += o.warm_fetch_ns;
        self.warm_fetches += o.warm_fetches;
        self.parts_ns += o.parts_ns;
        self.postings_ns += o.postings_ns;
        self.merge_ns += o.merge_ns;
        self.window_ns += o.window_ns;
        self.sweep_ns += o.sweep_ns;
        self.search_ns += o.search_ns;
        self.candidates += o.candidates;
    }

    /// `search_masked` time beyond its separately timed parts.
    fn assemble_ns(&self) -> u64 {
        self.search_ns.saturating_sub(self.parts_ns)
    }
}

/// One shard's (or the only index's) engine work, layer by layer, then the
/// real `search_masked` whose answer is used.
fn core_layers(
    index: &GksIndex,
    dead: &[u32],
    query: &Query,
    options: SearchOptions,
    id: u64,
) -> Result<(Response, CoreTimes), QueryError> {
    let mut t = CoreTimes::default();
    let (keywords, normalize_ns) =
        timed("text.normalize", id, || query.normalized(index.analyzer()));
    let n = keywords.len();
    let s = options.s.resolve(n)?;
    // First touch: the v3 index decodes a term's posting blocks on its
    // first fetch; later fetches are a dictionary lookup.
    for term in keywords.iter().flat_map(|k| k.terms()) {
        let before = index.decoded_terms();
        let (_, ns) = timed("index.postings", id, || index.postings(term).len());
        if index.decoded_terms() > before {
            t.first_touch_ns += ns;
            t.first_touches += 1;
        } else {
            t.warm_fetch_ns += ns;
            t.warm_fetches += 1;
        }
    }
    let mut cost = CostLedger::default();
    let (lists, postings_ns) = timed("core.postings", id, || {
        keywords
            .iter()
            .map(|k| keyword_postings_counted(index, dead, k, &mut cost))
            .collect::<Vec<_>>()
    });
    let ((sl, _), merge_ns) = timed("core.merge", id, || merge_posting_lists_counted(lists));
    let (candidates, window_ns) = timed("core.window", id, || lcp_candidates(index, &sl, s, n));
    let (stat_nodes, lce_ns) = timed("core.lce", id, || {
        let mut nodes = candidates.clone();
        nodes.extend(
            candidates
                .iter()
                .filter_map(|c| index.node_table().lowest_entity_ancestor_or_self(c)),
        );
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    });
    let (_, sweep_ns) = timed("core.sweep", id, || sweep_counted(index, &sl, &stat_nodes, n));
    let (response, search_ns) =
        timed("core.search", id, || search_masked(index, dead, query, options));
    t.postings_ns = postings_ns;
    t.merge_ns = merge_ns;
    t.window_ns = window_ns;
    t.sweep_ns = sweep_ns;
    t.parts_ns = normalize_ns + postings_ns + merge_ns + window_ns + lce_ns + sweep_ns;
    t.search_ns = search_ns;
    t.candidates = candidates.len() as u64;
    Ok((response?, t))
}

/// Totals of the layers leg over the timed part of the replay.
#[derive(Debug, Default, Clone)]
pub struct LayerTotals {
    core: CoreTimes,
    /// Summed `CostLedger` of every engine run (cache misses).
    pub cost: CostLedger,
    hits: u64,
    misses: u64,
    puts: u64,
    scatter_ns: u64,
    lane_wait_ns: u64,
    lanes: u64,
    gather_ns: u64,
    straggler_ns: u64,
    sharded: u64,
    /// Per request: the decomposition-only time the leg added on top of
    /// the work `handle` does (sharded: the slowest lane's).
    extra_ns: Vec<u64>,
}

/// Serves one request through the layers one by one. Returns the body.
fn serve_layers(
    leg: &LegState,
    req: &Request,
    id: u64,
    totals: &mut LayerTotals,
) -> Result<Vec<u8>, String> {
    let resident = leg.state.catalog().default_index();
    let head = request_head(req);
    let (parsed, _) = timed("server.http.parse", id, || parse_request(&head));
    parsed.map_err(|e| format!("parse request: {e:?}"))?;
    let key = req.target();
    if !resident.is_sharded() {
        let loaded = resident.snapshot();
        let (hit, _) =
            timed("server.cache.get", id, || resident.cache().get_for(&key, loaded.identity));
        if let Some(body) = hit {
            totals.hits += 1;
            return Ok(body.to_vec());
        }
        totals.misses += 1;
        let (parsed, _) = timed("core.parse", id, || crate::check::parse(req));
        let (query, options) = parsed?;
        let engine = &loaded.engine;
        let (mut response, core) =
            core_layers(engine.index(), engine.tombstones(), &query, options, id)
                .map_err(err("search"))?;
        totals.core.add(&core);
        totals.extra_ns.push(core.parts_ns);
        let body = if req.suggest {
            let ((di, attrs), _) = timed("core.di", id, || {
                discover_di_counted(engine.index(), &response, &DiOptions::default())
            });
            response.cost_mut().di_attrs = attrs;
            timed("core.wire", id, || {
                let refinement = engine.refine(&response, &di);
                wire::suggest_response_json(&response, &refinement, &di)
            })
            .0
        } else {
            timed("core.wire", id, || wire::search_response_json(engine, &response)).0
        };
        response.cost_mut().cache_probes = 1;
        response.cost_mut().result_bytes = body.len() as u64;
        totals.cost.add(response.cost());
        totals.puts += 1;
        timed("server.cache.put", id, || {
            resident.cache().put_for(key, Arc::from(body.as_bytes()), loaded.identity)
        });
        return Ok(body.into_bytes());
    }
    let set = resident.snapshot_all().ok_or("no consistent shard snapshot")?;
    let (hit, _) = timed("server.cache.get", id, || resident.cache().get_for(&key, set.identity));
    if let Some(body) = hit {
        totals.hits += 1;
        return Ok(body.to_vec());
    }
    totals.misses += 1;
    let (parsed, _) = timed("core.parse", id, || crate::check::parse(req));
    let (query, options) = parsed?;
    let scatter = spans::enter("core.executor.scatter", id);
    let parent = scatter.id();
    let t_scatter = Instant::now();
    let tasks: Vec<_> = set
        .shards
        .iter()
        .map(|loaded| {
            let engine = Arc::clone(&loaded.engine);
            let query = query.clone();
            move || {
                let lane_wait = elapsed_ns(t_scatter);
                let _task = spans::enter_under("core.shard.task", id, parent);
                let started = Instant::now();
                let out = core_layers(engine.index(), engine.tombstones(), &query, options, id);
                (lane_wait, elapsed_ns(started), out)
            }
        })
        .collect();
    let joined = resident.executor().scatter(tasks);
    let scatter_ns = elapsed_ns(t_scatter);
    drop(scatter);
    let mut answers = Vec::with_capacity(joined.len());
    let (mut fastest, mut slowest, mut max_extra) = (u64::MAX, 0u64, 0u64);
    for (i, slot) in joined.into_iter().enumerate() {
        let (wait, ns, out) = slot.map_err(err("shard task"))?;
        let (response, core) = out.map_err(err("search"))?;
        totals.core.add(&core);
        totals.lane_wait_ns += wait;
        totals.lanes += 1;
        fastest = fastest.min(ns);
        slowest = slowest.max(ns);
        max_extra = max_extra.max(core.parts_ns);
        let map = set.doc_maps.get(i).cloned().ok_or("shard without a doc map")?;
        answers.push((map, response));
    }
    totals.scatter_ns += scatter_ns;
    totals.straggler_ns += slowest.saturating_sub(fastest);
    totals.sharded += 1;
    totals.extra_ns.push(max_extra);
    let (merged, gather_ns) =
        timed("core.shard.gather", id, || merge_responses(answers, options.limit));
    let mut merged = merged.map_err(err("gather"))?;
    totals.gather_ns += gather_ns;
    let engines: Vec<&Engine> = set.shards.iter().map(|l| l.engine.as_ref()).collect();
    let body = if req.suggest {
        let indexes: Vec<&GksIndex> = engines.iter().map(|e| e.index()).collect();
        let ((di, attrs), _) = timed("core.di", id, || {
            discover_di_sharded_counted(&indexes, &merged, &DiOptions::default())
        });
        merged.response_mut().cost_mut().di_attrs = attrs;
        let first = engines.first().ok_or("no shards")?;
        timed("core.wire", id, || {
            let refinement = first.refine(merged.response(), &di);
            wire::suggest_response_json(merged.response(), &refinement, &di)
        })
        .0
    } else {
        timed("core.wire", id, || wire::search_response_json_sharded(&engines, &merged)).0
    };
    let cost = merged.response_mut().cost_mut();
    cost.cache_probes = 1;
    cost.result_bytes = body.len() as u64;
    totals.cost.add(merged.response().cost());
    totals.puts += 1;
    timed("server.cache.put", id, || {
        resident.cache().put_for(key, Arc::from(body.as_bytes()), set.identity)
    });
    Ok(body.into_bytes())
}

/// The result of a layers leg.
pub struct LayersLeg {
    /// Totals over the timed part.
    pub totals: LayerTotals,
    /// Totals over the warm-up part.
    pub warm_totals: LayerTotals,
    /// Per-request wall time, timed part.
    pub wall_ns: Vec<u64>,
    /// Every response body, in sequence order.
    pub bodies: Vec<Vec<u8>>,
    delta: DeltaTotals,
    evictions: u64,
}

/// Legs 2 and 3: the layers one by one, with or without span recording.
pub fn layers_leg(prep: &Prepared, traced: bool, leg_no: u64) -> Result<LayersLeg, String> {
    let leg = leg_state(prep, &format!("layers{leg_no}"))?;
    spans::set_enabled(traced);
    let mut totals = LayerTotals::default();
    let mut warm_totals = LayerTotals::default();
    let mut delta = DeltaTotals::default();
    let mut wall_ns = Vec::with_capacity(prep.seq.len());
    let mut bodies = Vec::with_capacity(prep.seq.len());
    for (i, req) in prep.seq.iter().enumerate() {
        let id = leg_no * LEG_IDS + i as u64 + 1;
        apply_write_point(prep, &leg, i, leg_no * LEG_IDS, &mut delta)?;
        let into = if i < prep.warm_len {
            &mut warm_totals
        } else {
            &mut totals
        };
        let t = Instant::now();
        let body = {
            let _root = spans::enter("request", id);
            serve_layers(&leg, req, id, into)?
        };
        if i >= prep.warm_len {
            wall_ns.push(elapsed_ns(t));
        }
        bodies.push(body);
    }
    spans::set_enabled(false);
    let entries = leg.state.catalog().default_index().cache().stats().entries as u64;
    let evictions = (totals.puts + warm_totals.puts).saturating_sub(entries);
    Ok(LayersLeg { totals, warm_totals, wall_ns, bodies, delta, evictions })
}

/// Leg 4: the replayed sequence over loopback at the reference rate.
struct SocketLeg {
    rtt_ms: Vec<f64>,
    own_lag_ms: Vec<f64>,
    sent: usize,
    failed: usize,
    accept_to_dispatch_p50_us: f64,
    queue_depth_max: u64,
}

fn socket_leg(prep: &Prepared) -> Result<SocketLeg, String> {
    let (spec, _) = leg_spec(prep, "socket")?;
    let server =
        gks_server::serve_catalog(vec![spec], None, serve_config()).map_err(err("serve"))?;
    let addr = server.local_addr();
    let targets: Vec<String> = prep.seq.iter().map(Request::target).collect();
    let rate = prep.workload.shape().ladder[0];
    let rung = Rung { rate, secs: targets.len() as f64 / rate };
    let mut clients = loadgen::connect(addr, run::CONNECTIONS)?;
    let stop = AtomicBool::new(false);
    let depth_max = AtomicU64::new(0);
    let report = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let d = server.state().metrics().conn_queue_depth.load(Ordering::Relaxed);
                depth_max.fetch_max(d, Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(250));
            }
        });
        let limit = prep.workload.shape().p99_limit_ms;
        let report = loadgen::run_rung(
            &mut clients,
            addr,
            &targets,
            0,
            rung,
            limit,
            Instant::now(),
            &NoCheck,
        );
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("queue sampler panicked");
        report
    });
    drop(clients);
    let metrics = gks_server::client::http_get(addr, "/metrics", Duration::from_secs(10))
        .map_err(err("metrics"))?
        .body_text();
    server.shutdown();
    let accept_to_dispatch_p50_us = metrics
        .lines()
        .find_map(|l| l.strip_prefix("gks_conn_accept_to_dispatch_micros{quantile=\"0.5\"} "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0);
    let timed: Vec<_> = report.outcomes.iter().filter(|o| o.index >= prep.warm_len).collect();
    Ok(SocketLeg {
        rtt_ms: timed.iter().map(|o| o.latency_ms - o.backlog_ms).collect(),
        own_lag_ms: timed.iter().map(|o| o.own_lag_ms).collect(),
        sent: report.outcomes.len(),
        failed: report.failures() + report.unsent,
        accept_to_dispatch_p50_us,
        queue_depth_max: depth_max.load(Ordering::Relaxed),
    })
}

fn mean_ns(values: &[u64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<u64>() as f64 / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Self time per span name over the timed requests of leg `leg_no`.
fn self_ns_by_name(all: &[Span], prep: &Prepared, leg_no: u64) -> BTreeMap<&'static str, u64> {
    let lo = leg_no * LEG_IDS + prep.warm_len as u64 + 1;
    let hi = (leg_no + 1) * LEG_IDS;
    spans::self_ns_by_name(all, |r| (lo..hi).contains(&r))
}

/// Runs the traced replay of `args` and returns the per-layer metrics.
pub fn run(args: &Args) -> Result<RunOutput, String> {
    let shape = args.workload.shape();
    spans::set_enabled(true);
    let prep = prepare(args, shape.replay);
    spans::set_enabled(false);
    let prep = prep?;
    let n = (prep.seq.len() - prep.warm_len) as f64;

    spans::set_enabled(true);
    let handled = handle_leg(&prep);
    spans::set_enabled(false);
    let (handle_ns, handle_bodies) = handled?;
    let layers = layers_leg(&prep, true, 2)?;
    let all_spans = spans::take();
    let untraced = layers_leg(&prep, false, 3)?;
    let socket = socket_leg(&prep)?;

    let mut out =
        RunOutput { attempted: prep.seq.len() as u64 + socket.sent as u64, ..RunOutput::default() };
    // Leg 2 must answer exactly as `ServeState::handle` did, leg 3 as leg 2.
    for (a, b) in handle_bodies
        .iter()
        .zip(&layers.bodies)
        .chain(layers.bodies.iter().zip(&untraced.bodies))
    {
        out.checked += 1;
        if a != b {
            out.mismatches += 1;
        }
    }
    out.failed = out.mismatches + socket.failed as u64;

    let selfs = self_ns_by_name(&all_spans, &prep, 2);
    let self_us = |name: &str| selfs.get(name).copied().unwrap_or(0) as f64 / 1e3 / n;
    let handle_timed = &handle_ns[prep.warm_len..];
    let handle_us = mean_ns(handle_timed) / 1e3;
    let handle_selfs = self_ns_by_name(&all_spans, &prep, 1);
    let http_parse_us =
        handle_selfs.get("server.http.parse").copied().unwrap_or(0) as f64 / 1e3 / n;
    let t = &layers.totals;
    let c = &t.core;
    let d = &layers.delta;
    // Reconciliation: the layers' time for the work `handle` does — the
    // request's wall time in leg 2 minus HTTP parsing and the parts timed
    // only for the breakdown — against `handle` itself.
    let layers_wall_us = mean_ns(&layers.wall_ns) / 1e3;
    let extra_us = t.extra_ns.iter().sum::<u64>() as f64 / 1e3 / n;
    let explained_us = layers_wall_us - self_us("server.http.parse") - extra_us;
    let rtt_us = crate::stats::mean(&socket.rtt_ms) * 1e3;
    let transport_us = rtt_us - handle_us - http_parse_us;
    let overhead_pct = ratio(
        median(&layers.wall_ns.iter().map(|&x| x as f64).collect::<Vec<_>>()),
        median(&untraced.wall_ns.iter().map(|&x| x as f64).collect::<Vec<_>>()),
    ) * 100.0
        - 100.0;
    let per_event_us = |ns: u64, count: u64| ratio(ns as f64, count as f64) / 1e3;
    let m = |name, value, unit| Metric { name, value, unit };
    out.metrics = vec![
        m("xml.parse_ms", prep.setup.xml_parse_ns as f64 / 1e6, "ms"),
        m("index.build_ms", prep.setup.build_ns as f64 / 1e6, "ms"),
        m("index.persist_ms", prep.setup.persist_ns as f64 / 1e6, "ms"),
        m("index.open_ms", prep.setup.open_ns as f64 / 1e6, "ms"),
        m("index.bytes_written", prep.setup.bytes_written as f64, "bytes"),
        m("index.bytes_mapped", prep.setup.bytes_mapped as f64, "bytes"),
        m(
            "index.postings.first_touch_us",
            per_event_us(c.first_touch_ns, c.first_touches),
            "us",
        ),
        m(
            "index.postings.warm_fetch_us",
            per_event_us(c.warm_fetch_ns, c.warm_fetches),
            "us",
        ),
        m("index.postings.decoded_terms", c.first_touches as f64, "count"),
        m("text.normalize_us", self_us("text.normalize"), "us"),
        m("core.parse_us", self_us("core.parse"), "us"),
        m("core.postings_us", self_us("core.postings"), "us"),
        m("core.postings_scanned", t.cost.postings_scanned as f64, "count"),
        m("core.tombstone_masked", t.cost.tombstone_masked as f64, "count"),
        m("core.merge_us", self_us("core.merge"), "us"),
        m("core.heap_ops", t.cost.heap_ops as f64, "count"),
        m("core.window_us", self_us("core.window"), "us"),
        m("core.candidates", c.candidates as f64, "count"),
        m("core.lce_us", self_us("core.lce"), "us"),
        m("core.sweep_us", self_us("core.sweep"), "us"),
        m("core.sweep_advances", t.cost.sweep_advances as f64, "count"),
        m("core.rank_candidates", t.cost.rank_candidates as f64, "count"),
        m("core.assemble_us", c.assemble_ns() as f64 / 1e3 / n, "us"),
        m("core.di_us", self_us("core.di"), "us"),
        m("core.di_attrs", t.cost.di_attrs as f64, "count"),
        m("core.wire_us", self_us("core.wire"), "us"),
        m("core.result_bytes", t.cost.result_bytes as f64, "bytes"),
        m(
            "core.ns_per_posting",
            ratio(
                (c.postings_ns + c.merge_ns + c.window_ns) as f64,
                t.cost.postings_scanned as f64,
            ),
            "ns",
        ),
        m(
            "core.ns_per_advance",
            ratio(c.sweep_ns as f64, t.cost.sweep_advances as f64),
            "ns",
        ),
        m(
            "core.executor.scatter_us",
            ratio(t.scatter_ns as f64, t.sharded as f64) / 1e3,
            "us",
        ),
        m(
            "core.executor.lane_wait_us",
            ratio(t.lane_wait_ns as f64, t.lanes as f64) / 1e3,
            "us",
        ),
        m("core.shard.gather_us", ratio(t.gather_ns as f64, t.sharded as f64) / 1e3, "us"),
        m(
            "core.shard.straggler_us",
            ratio(t.straggler_ns as f64, t.sharded as f64) / 1e3,
            "us",
        ),
        m("index.delta.commit_ms", mean_ns(&d.commit_ns) / 1e6, "ms"),
        m("index.delta.docs_changed", d.docs_changed as f64, "count"),
        m("index.delta.files_hashed", d.files_hashed as f64, "count"),
        m(
            "index.delta.bytes_written_per_changed_xml_byte",
            ratio(d.delta_bytes as f64, d.changed_xml_bytes as f64),
            "ratio",
        ),
        m("index.compact_ms", mean_ns(&d.compact_ns) / 1e6, "ms"),
        m("index.compact.bytes_rewritten", d.compact_bytes as f64, "bytes"),
        m("server.http.parse_us", self_us("server.http.parse"), "us"),
        m("server.cache.get_us", self_us("server.cache.get"), "us"),
        m("server.cache.put_us", self_us("server.cache.put"), "us"),
        m(
            "server.cache.hit_rate",
            ratio(t.hits as f64, (t.hits + t.misses) as f64),
            "ratio",
        ),
        m("server.cache.evictions", layers.evictions as f64, "count"),
        m("server.handle_us", handle_us, "us"),
        m("server.transport_us", transport_us, "us"),
        m("server.pool.accept_to_dispatch_p50_us", socket.accept_to_dispatch_p50_us, "us"),
        m("server.conn.queue_depth_max", socket.queue_depth_max as f64, "count"),
        m("loadgen.send_lag_p99_ms", quantile(&socket.own_lag_ms, 0.99), "ms"),
        m("loadgen.sent", socket.sent as f64, "count"),
        m(
            "reconcile.layers_unexplained_pct",
            ratio(handle_us - explained_us, handle_us) * 100.0,
            "%",
        ),
        m("reconcile.socket_unexplained_pct", ratio(transport_us, rtt_us) * 100.0, "%"),
        m("trace.overhead_pct", overhead_pct, "%"),
    ];
    out.valid = quantile(&socket.own_lag_ms, 0.99) < loadgen::OWN_LAG_LIMIT_MS;
    out.notes = vec![
        ("replayed", prep.seq.len().to_string()),
        ("timed_replayed", (prep.seq.len() - prep.warm_len).to_string()),
        ("socket_rtt_p50_us", format!("{:.3}", quantile(&socket.rtt_ms, 0.5) * 1e3)),
        (
            "layers_p50_us",
            format!(
                "{:.3}",
                quantile(&layers.wall_ns.iter().map(|&x| x as f64).collect::<Vec<_>>(), 0.5) / 1e3
            ),
        ),
        (
            "untraced_p50_us",
            format!(
                "{:.3}",
                quantile(&untraced.wall_ns.iter().map(|&x| x as f64).collect::<Vec<_>>(), 0.5)
                    / 1e3
            ),
        ),
        ("checked", out.checked.to_string()),
        ("mismatches", out.mismatches.to_string()),
        ("cost_totals", cost_json(&t.cost)),
    ];
    Ok(out)
}

/// The ledger totals as a JSON object.
fn cost_json(c: &CostLedger) -> String {
    let mut s = String::new();
    c.write_json(&mut s);
    s
}
