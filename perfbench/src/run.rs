//! One untraced run: generate, set up (timed), warm, drive the open-loop
//! ladder, check outputs, and collect the end-to-end metrics.

use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant, SystemTime};

use gks_core::engine::Engine;
use gks_index::persist::IndexFormat;
use gks_index::shard::ShardManifest;
use gks_index::{Corpus, GksIndex, IndexOptions};

use crate::check;
use crate::loadgen::{self, Checker, RungReport};
use crate::server::{ServerProcess, Source};
use crate::stats::{median, quantile};
use crate::workload::{self, Request, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Shards of the `shard-churn` manifest: one per core of the two-core load
/// shape the workloads are sized for.
pub const CHURN_SHARDS: usize = 2;
/// Generator connections (and threads).
pub const CONNECTIONS: usize = 2;
/// Size of the `cache-hot` query pool.
pub const HOT_POOL: usize = 300;
/// Sizes of the query vocabulary's posting-count ranks: frequent, common,
/// rare.
pub const BUCKETS: [usize; 3] = [12, 60, 120];

/// What one run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything an untraced run produced.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Requests attempted (warm-up, timed phase and post-run checks).
    pub attempted: u64,
    /// Requests that failed: transport error, non-2xx or a wrong body.
    pub failed: u64,
    /// Responses compared with a reference render.
    pub checked: u64,
    /// Compared responses that differed from their reference.
    pub mismatches: u64,
    /// Whether the generator kept its own lateness within the workload's
    /// limit (else the run measured the generator and is invalid).
    pub valid: bool,
    /// Extra facts for the run record, as `(key, JSON value)`.
    pub notes: Vec<(&'static str, String)>,
}

/// A per-run scratch directory under the working directory, removed when
/// dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench_work/<tag>-<pid>`.
    pub fn new(tag: &str) -> io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir)?;
        Ok(WorkDir(fs::canonicalize(&dir)?))
    }

    /// A path inside the directory.
    pub fn join(&self, p: &str) -> PathBuf {
        self.0.join(p)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leave the parent only if no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Sets every file's mtime well into the past, as for a corpus written long
/// before it is indexed: the delta planner's mtime fast path then skips
/// every untouched document, whatever the set-up took.
pub fn backdate(files: &[PathBuf]) -> io::Result<()> {
    let past = SystemTime::now() - Duration::from_secs(60);
    for f in files {
        fs::File::options().write(true).open(f)?.set_modified(past)?;
    }
    Ok(())
}

/// `fsync`s every file under `dir`.
fn sync_tree(dir: &Path) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            fs::File::open(&path)?.sync_all()?;
        }
    }
    Ok(())
}

/// Prefixes an error with what was being done.
pub(crate) fn err<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

/// Total size of the shard files a manifest lists.
pub fn manifest_bytes(manifest: &Path) -> Result<u64, String> {
    let m = ShardManifest::load(manifest).map_err(err("load manifest"))?;
    let dir = manifest.parent().unwrap_or(Path::new("."));
    m.shards
        .iter()
        .map(|s| {
            let p = if s.path.is_relative() {
                dir.join(&s.path)
            } else {
                s.path.clone()
            };
            fs::metadata(p).map(|m| m.len()).map_err(err("stat shard"))
        })
        .sum()
}

/// The served index: a single v3 file or a manifest.
#[derive(Debug)]
pub enum Served {
    /// A `.gksix` file.
    File(PathBuf),
    /// A v2 shard manifest.
    Manifest(PathBuf),
}

impl Served {
    fn source(&self) -> Source<'_> {
        match self {
            Served::File(p) => Source::File(p),
            Served::Manifest(p) => Source::Manifest(p),
        }
    }

    /// On-disk index bytes (every shard file).
    pub fn bytes(&self) -> Result<u64, String> {
        match self {
            Served::File(p) => fs::metadata(p).map(|m| m.len()).map_err(err("stat index")),
            Served::Manifest(p) => manifest_bytes(p),
        }
    }
}

/// Builds the index from the XML on disk, persists it and starts a server
/// on it: one set-up, timed by the caller.
pub fn build_and_serve(
    exe: &Path,
    work: &WorkDir,
    workload: Workload,
    corpus_dir: &Path,
    files: &[PathBuf],
    tag: &str,
) -> Result<(Served, ServerProcess), String> {
    let served = if workload == Workload::ShardChurn {
        let manifest = work.join(&format!("{tag}/churn.manifest"));
        fs::create_dir_all(manifest.parent().unwrap_or(Path::new("."))).map_err(err("mkdir"))?;
        gks_index::delta::index_directory(
            corpus_dir,
            &manifest,
            CHURN_SHARDS,
            IndexOptions::default(),
        )
        .map_err(err("index directory"))?;
        Served::Manifest(manifest)
    } else {
        let path = work.join(&format!("{tag}.gksix"));
        let corpus = Corpus::from_paths(files).map_err(err("read corpus"))?;
        let index = GksIndex::build(&corpus, IndexOptions::default()).map_err(err("build"))?;
        index.save_as(&path, IndexFormat::V3).map_err(err("save"))?;
        Served::File(path)
    };
    let server = ServerProcess::spawn(exe, served.source())?;
    Ok((served, server))
}

/// Checks the engine-miss sample and the cache-hot responses.
struct RunChecker {
    /// cache-hot: the reference body of every pool entry, and each timed
    /// slot's pool entry.
    hot: Option<(Vec<Vec<u8>>, Vec<usize>)>,
    /// Slots whose bodies are kept for a check after the run.
    keep: HashSet<usize>,
}

impl Checker for RunChecker {
    fn check(&self, index: usize, body: &[u8]) -> Option<bool> {
        let (refs, ranks) = self.hot.as_ref()?;
        Some(refs.get(*ranks.get(index)?)?.as_slice() == body)
    }

    fn keep(&self, index: usize) -> bool {
        self.keep.contains(&index)
    }
}

/// Commit and compaction times from the write schedule.
#[derive(Debug, Default)]
struct Maintenance {
    commit_ms: Vec<f64>,
    compact_s: Vec<f64>,
    /// The reference segment each sample ran beside (`shard-churn`).
    segment: Vec<usize>,
}

impl Maintenance {
    /// Keeps only the samples taken beside the segments in `kept`.
    fn beside(self, kept: &[usize]) -> Maintenance {
        let keep: Vec<bool> = self.segment.iter().map(|n| kept.contains(n)).collect();
        let pick =
            |v: Vec<f64>| v.into_iter().zip(&keep).filter(|(_, k)| **k).map(|(x, _)| x).collect();
        Maintenance {
            commit_ms: pick(self.commit_ms),
            compact_s: pick(self.compact_s),
            segment: kept.to_vec(),
        }
    }
}

/// Drives the churn write schedule against a server: each batch is
/// written to the corpus and committed through the server's
/// `poll_corpus`; each compaction runs `compact_now`.
struct Maintainer<'a> {
    server: &'a mut ServerProcess,
    corpus_dir: PathBuf,
    seed: u64,
    batches: usize,
    compact_next: bool,
    done: Maintenance,
    error: Option<String>,
}

impl<'a> Maintainer<'a> {
    fn new(server: &'a mut ServerProcess, corpus_dir: &Path, seed: u64) -> Self {
        Maintainer {
            server,
            corpus_dir: corpus_dir.to_path_buf(),
            seed,
            batches: 0,
            compact_next: false,
            done: Maintenance::default(),
            error: None,
        }
    }

    fn commit(&mut self) -> Result<(), String> {
        let writes = workload::churn_batch(self.batches);
        self.batches += 1;
        let version = self.batches as u64;
        for w in &writes {
            workload::apply_write(&self.corpus_dir, self.seed, w, version).map_err(err("write"))?;
        }
        let reply = self.server.command("poll")?;
        let micros: f64 = reply.first().and_then(|m| m.parse().ok()).ok_or("bad poll reply")?;
        let changed: usize = reply.get(1).and_then(|m| m.parse().ok()).unwrap_or(0);
        if changed != writes.len() {
            return Err(format!(
                "commit {version} changed {changed} documents, wrote {}",
                writes.len()
            ));
        }
        self.done.commit_ms.push(micros / 1e3);
        Ok(())
    }

    fn compact(&mut self) -> Result<(), String> {
        let reply = self.server.command("compact")?;
        let micros: f64 = reply.first().and_then(|m| m.parse().ok()).ok_or("bad compact reply")?;
        self.done.compact_s.push(micros / 1e6);
        Ok(())
    }

    /// The next step of an idle probe: commits and compactions alternate.
    fn step(&mut self) -> Result<(), String> {
        self.compact_next = !self.compact_next;
        if self.compact_next {
            self.commit()
        } else {
            self.compact()
        }
    }

    /// One round beside reference segment `n`, which started at `start`: a
    /// commit at [`workload::CHURN_COMMIT_AT`], a compaction at
    /// [`workload::CHURN_COMPACT_AT`].
    fn round(&mut self, n: usize, start: Instant) -> Result<(), String> {
        self.done.segment.push(n);
        let sleep_until = |secs: f64| {
            let due = start + Duration::from_secs_f64(secs);
            if let Some(d) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(d);
            }
        };
        sleep_until(workload::CHURN_COMMIT_AT);
        self.commit()?;
        sleep_until(workload::CHURN_COMPACT_AT);
        self.compact()
    }

    fn record(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            self.error.get_or_insert(e);
        }
    }

    fn finish(self) -> Result<Maintenance, String> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.done),
        }
    }
}

/// The generated inputs of a run.
pub struct Inputs {
    /// Warm-up requests (outside timing).
    pub warm: Vec<Request>,
    /// The timed request sequence, in slot order.
    pub timed: Vec<Request>,
    /// cache-hot: the pool and each timed slot's pool rank.
    pub hot: Option<(Vec<Request>, Vec<usize>)>,
}

/// Generates a run's requests from its seed and the served vocabulary.
pub fn inputs(args: &Args, vocab: &workload::Vocabulary, timed_len: usize) -> Inputs {
    let shape = args.workload.shape();
    if args.workload == Workload::CacheHot {
        let pool = workload::hot_pool(args.seed, vocab, HOT_POOL);
        let ranks = workload::zipf_ranks(args.seed, HOT_POOL, timed_len);
        let timed = ranks.iter().map(|&r| pool[r].clone()).collect();
        Inputs { warm: pool.clone(), timed, hot: Some((pool, ranks)) }
    } else {
        let warm_len = shape.ladder[0] as usize;
        let mut all = workload::distinct_requests(args.seed, vocab, warm_len + timed_len);
        let timed = all.split_off(warm_len);
        Inputs { warm: all, timed, hot: None }
    }
}

/// The engine the run's queries and reference renders are computed on,
/// before any write: the served file itself, or a rebuild of the churn
/// corpus.
pub fn reference_engine(served: &Served, corpus_dir: &Path) -> Result<Engine, String> {
    match served {
        Served::File(p) => Ok(Engine::from_index(GksIndex::load(p).map_err(err("load"))?)),
        Served::Manifest(_) => check::rebuild(corpus_dir),
    }
}

/// Runs one untraced measurement of `args` and returns its metrics.
pub fn run(exe: &Path, args: &Args) -> Result<RunOutput, String> {
    let shape = args.workload.shape();
    let work = WorkDir::new(&format!("{}-{}", args.workload.name(), args.seed))
        .map_err(err("work dir"))?;
    let corpus_dir = work.join("corpus");
    let corpus = if args.workload == Workload::ShardChurn {
        workload::write_churn_corpus(&corpus_dir, args.seed)
    } else {
        workload::write_mixed_corpus(&corpus_dir, args.seed)
    }
    .map_err(err("write corpus"))?;
    backdate(&corpus.files).map_err(err("backdate"))?;

    // Set-up, several times: XML on disk → build → persist → open → bind.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<(Served, ServerProcess)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((served, server)) = live.take() {
            server.quit()?;
            if let Served::File(p) = served {
                let _ = fs::remove_file(p);
            }
        }
        let t = Instant::now();
        live = Some(build_and_serve(
            exe,
            &work,
            args.workload,
            &corpus_dir,
            &corpus.files,
            &format!("rep{rep}"),
        )?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (served, mut server) = live.ok_or("no set-up ran")?;
    let index_bytes = served.bytes()?;
    // Flush what set-up wrote, so its writeback does not land in the timed
    // phase.
    sync_tree(&work.0).map_err(err("sync"))?;

    let reference = reference_engine(&served, &corpus_dir)?;
    let vocab = workload::vocabulary(&corpus.files, reference.index(), BUCKETS)
        .map_err(err("vocabulary"))?;
    let rungs = loadgen::ladder(shape.ladder, shape.ref_share, args.seconds);
    let inputs = inputs(args, &vocab, loadgen::capacity(&rungs));
    let targets: Vec<String> = inputs.timed.iter().map(Request::target).collect();

    let mut out = RunOutput::default();
    let mut clients = loadgen::connect(server.addr, CONNECTIONS)?;

    // Warm-up, outside timing. cache-hot warms its cache with every pool
    // entry once and checks each distinct response.
    let mut checker = RunChecker { hot: None, keep: HashSet::new() };
    if let Some((pool, ranks)) = &inputs.hot {
        let refs: Vec<Vec<u8>> = pool
            .iter()
            .map(|r| check::reference(&reference, r).map(String::into_bytes))
            .collect::<Result<_, _>>()?;
        for (req, expected) in pool.iter().zip(&refs) {
            out.attempted += 1;
            out.checked += 1;
            match clients[0].get(&req.target()) {
                Ok(r) if r.status == 200 && r.body == *expected => {}
                Ok(r) if r.status == 200 => {
                    out.mismatches += 1;
                    out.failed += 1;
                }
                _ => out.failed += 1,
            }
        }
        checker.hot = Some((refs, ranks.clone()));
    } else {
        let warm_targets: Vec<String> = inputs.warm.iter().map(Request::target).collect();
        let warm = loadgen::Rung { rate: shape.ladder[0], secs: 1.0 };
        let r = loadgen::run_rung(
            &mut clients,
            server.addr,
            &warm_targets,
            0,
            warm,
            shape.p99_limit_ms,
            Instant::now(),
            &loadgen::NoCheck,
        );
        out.attempted += r.outcomes.len() as u64;
        out.failed += r.failures() as u64;
    }
    if args.workload == Workload::EngineMiss {
        checker.keep = workload::sample_indices(args.seed, targets.len(), 64).into_iter().collect();
    }

    // The workloads without a live index measure commits and compactions
    // on an idle probe server of their own: the churn corpus and write
    // schedule, one event in each pause between ladder steps, so the
    // samples spread over the run like shard-churn's.
    let mut probe = match args.workload {
        Workload::ShardChurn => None,
        _ => {
            let dir = work.join("probe-corpus");
            let files =
                workload::write_churn_corpus(&dir, args.seed).map_err(err("write corpus"))?;
            backdate(&files.files).map_err(err("backdate"))?;
            Some((
                dir.clone(),
                build_and_serve(exe, &work, Workload::ShardChurn, &dir, &files.files, "probe")?.1,
            ))
        }
    };

    // The timed phase. shard-churn commits and compacts beside every
    // reference segment; the other workloads run their probe's steps in
    // the pauses between segments and rungs.
    let phase_start = Instant::now();
    let addr = server.addr;
    let churn = args.workload == Workload::ShardChurn;
    let maintainer = std::sync::Mutex::new(match probe.as_mut() {
        Some((dir, s)) => Maintainer::new(s, dir, args.seed),
        None => Maintainer::new(&mut server, &corpus_dir, args.seed),
    });
    let during = |n: usize| {
        if churn {
            let start = Instant::now();
            let mut m = maintainer.lock().expect("maintainer poisoned");
            let result = m.round(n, start);
            m.record(result);
        }
    };
    let mut between = || {
        if !churn {
            let mut m = maintainer.lock().expect("maintainer poisoned");
            if m.batches < loadgen::SEGMENTS || m.compact_next {
                let result = m.step();
                m.record(result);
            }
        }
    };
    let ladder = loadgen::run_ladder(
        &mut clients,
        addr,
        &targets,
        &rungs,
        shape.p99_limit_ms,
        phase_start,
        &checker,
        loadgen::Hooks { during: &during, between: &mut between },
    );
    let mut maintainer = maintainer.into_inner().expect("maintainer poisoned");
    while !churn && (maintainer.batches < loadgen::SEGMENTS || maintainer.compact_next) {
        let result = maintainer.step();
        maintainer.record(result);
    }
    // Commit and compaction samples beside a discarded segment go with it.
    let maintenance = maintainer.finish().map(|m| if churn { m.beside(&ladder.kept) } else { m });
    let maintenance = maintenance?;
    if let Some((_, p)) = probe {
        p.quit()?;
    }
    for r in ladder.all() {
        out.attempted += r.outcomes.len() as u64;
        out.failed += r.failures() as u64;
        if checker.hot.is_some() {
            out.checked += r.outcomes.len() as u64;
            out.mismatches += r.failures() as u64;
        }
    }

    // Post-run checks, outside timing.
    match args.workload {
        Workload::EngineMiss => {
            for o in ladder.all().flat_map(|r| &r.outcomes) {
                let Some(body) = &o.body else { continue };
                let expected = check::reference(&reference, &inputs.timed[o.index])?;
                out.checked += 1;
                if body != expected.as_bytes() {
                    out.mismatches += 1;
                    out.failed += 1;
                }
            }
        }
        Workload::ShardChurn => {
            // The final state, after every commit and the compaction, must
            // answer exactly as a full rebuild of the final corpus.
            let rebuilt = check::rebuild(&corpus_dir)?;
            for i in workload::sample_indices(args.seed, inputs.timed.len(), 48) {
                let req = &inputs.timed[i];
                let expected = check::reference(&rebuilt, req)?;
                out.attempted += 1;
                out.checked += 1;
                match clients[0].get(&req.target()) {
                    Ok(r) if r.status == 200 && r.body == expected.as_bytes() => {}
                    Ok(r) if r.status == 200 => {
                        out.mismatches += 1;
                        out.failed += 1;
                    }
                    _ => out.failed += 1,
                }
            }
        }
        Workload::CacheHot => {}
    }
    drop(clients);
    let rss = server.peak_rss_bytes().ok_or("cannot read the server's peak RSS")?;
    server.quit()?;

    let reference = ladder.reference_report();
    let lat = reference.latencies();
    let backlog: Vec<f64> = reference.outcomes.iter().map(|o| o.backlog_ms).collect();
    let own_lag_p99 = loadgen::own_lag_p99(&reference);
    out.valid = own_lag_p99 < loadgen::OWN_LAG_LIMIT_MS;
    let m = |name, value, unit| Metric { name, value, unit };
    out.metrics = vec![
        m("setup_s", median(&setup_s), "s"),
        m("p50_ms", quantile(&lat, 0.5), "ms"),
        m("p99_ms", quantile(&lat, 0.99), "ms"),
        m("max_ok_qps", ladder.max_ok_qps(shape.p99_limit_ms), "q/s"),
        m(
            "index_bytes_per_xml_byte",
            index_bytes as f64 / corpus.xml_bytes as f64,
            "ratio",
        ),
        m("server_rss_mb", rss as f64 / 1e6, "MB"),
        m("commit_ms", median(&maintenance.commit_ms), "ms"),
        m("compact_s", median(&maintenance.compact_s), "s"),
    ];
    let error_rate = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    out.notes = vec![
        ("error_rate", format!("{error_rate}")),
        ("p99_samples", lat.len().to_string()),
        (
            "p99_samples_beyond",
            (lat.len() - (lat.len() as f64 * 0.99).ceil() as usize).to_string(),
        ),
        ("own_lag_p99_ms", format!("{own_lag_p99:.4}")),
        ("backlog_p99_ms", format!("{:.4}", quantile(&backlog, 0.99))),
        ("setup_samples_s", json_array(&setup_s)),
        ("commit_samples_ms", json_array(&maintenance.commit_ms)),
        ("compact_samples_s", json_array(&maintenance.compact_s)),
        ("checked", out.checked.to_string()),
        ("mismatches", out.mismatches.to_string()),
        ("discarded_segments", ladder.discarded.len().to_string()),
        ("reference_steal_ticks", reference.steal.to_string()),
        (
            "segments",
            ladder_json(ladder.reference.iter().chain(&ladder.discarded), shape.p99_limit_ms),
        ),
        (
            "ladder",
            ladder_json(std::iter::once(&reference).chain(&ladder.rungs), shape.p99_limit_ms),
        ),
    ];
    Ok(out)
}

fn json_array(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    format!("[{}]", items.join(","))
}

fn ladder_json<'a>(reports: impl Iterator<Item = &'a RungReport>, limit_ms: f64) -> String {
    let items: Vec<String> = reports
        .map(|r| {
            format!(
                "{{\"rate\":{},\"secs\":{:.3},\"steal\":{},\"sent\":{},\"unsent\":{},\"achieved\":{:.3},\"p50_ms\":{:.4},\"p99_ms\":{:.4},\"passes\":{},\"cooldown\":{}}}",
                r.rung.rate,
                r.rung.secs,
                r.steal,
                r.outcomes.len(),
                r.unsent,
                r.achieved_rate(),
                quantile(&r.latencies(), 0.5),
                quantile(&r.latencies(), 0.99),
                r.passes(limit_ms),
                r.cooldown
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}
