//! Run records and compare mode.
//!
//! Every run prints one `{"perfbench_record":{…}}` line before its result
//! line: the workload and seed, the git revision, a machine fingerprint,
//! the generator's lateness and validity, and every metric. Compare mode
//! reads two files of such lines (two result sets) and prints one row per
//! workload × end-to-end metric with both sides' median and quartiles and
//! a verdict.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use gks_core::json::Json;
use gks_core::wire::push_json_str;

use crate::stats::{median, quartiles, relative_spread};

/// Where and on what a run ran.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// Cores available.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this machine and checkout.
    pub fn read() -> Fingerprint {
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into());
        Fingerprint { git_rev, nproc: crate::server::nproc(), cpu, kernel }
    }
}

/// Formats a metric value with every digit it has.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Renders the record line of one run.
pub fn record_line(
    workload: &str,
    seed: u64,
    trace: bool,
    fp: &Fingerprint,
    valid: bool,
    metrics: &[(String, f64, String)],
    notes: &[(&str, String)],
) -> String {
    let mut out = String::from("{\"perfbench_record\":{\"workload\":");
    push_json_str(&mut out, workload);
    let _ = write!(out, ",\"seed\":{seed},\"trace\":{trace},\"git_rev\":");
    push_json_str(&mut out, &fp.git_rev);
    let _ = write!(out, ",\"machine\":{{\"nproc\":{},\"cpu\":", fp.nproc);
    push_json_str(&mut out, &fp.cpu);
    out.push_str(",\"kernel\":");
    push_json_str(&mut out, &fp.kernel);
    let _ = write!(out, "}},\"valid\":{valid},\"metrics\":{{");
    for (i, (name, value, _)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, name);
        let _ = write!(out, ":{}", number(*value));
    }
    out.push('}');
    for (key, value) in notes {
        out.push(',');
        push_json_str(&mut out, key);
        let _ = write!(out, ":{value}");
    }
    out.push_str("}}");
    out
}

/// Renders the result line the benchmark contract asks for.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, name);
        let _ = write!(out, ":{{\"value\":{},\"unit\":", number(*value));
        push_json_str(&mut out, unit);
        out.push('}');
    }
    out.push_str("}}");
    out
}

/// One end-to-end metric's definition from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// Reads the end-to-end metric definitions of a `BENCHMARK.json`.
pub fn metric_defs(benchmark_json: &str) -> Result<Vec<MetricDef>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = doc.get("end_to_end").and_then(Json::as_array).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(MetricDef {
                name: m.get("name").and_then(Json::as_str).ok_or("metric without name")?.into(),
                unit: m.get("unit").and_then(Json::as_str).unwrap_or("").into(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// The metric names `BENCHMARK.json` declares for a run: `per_layer` for a
/// traced run, `end_to_end` otherwise.
pub fn declared_metrics(benchmark_json: &str, traced: bool) -> Result<Vec<String>, String> {
    let doc = Json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let key = if traced { "per_layer" } else { "end_to_end" };
    let list = doc.get(key).and_then(Json::as_array).ok_or_else(|| format!("no {key} list"))?;
    list.iter()
        .map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("a {key} metric has no name"))
}

/// A run's values, read back from its record line.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Every valid, untraced run record in `text` (other lines are skipped).
pub fn parse_records(text: &str) -> Vec<RunRecord> {
    text.lines()
        .filter(|l| l.starts_with("{\"perfbench_record\""))
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|j| {
            let r = j.get("perfbench_record")?;
            if r.get("valid") != Some(&Json::Bool(true))
                || r.get("trace") != Some(&Json::Bool(false))
            {
                return None;
            }
            let metrics = r
                .get("metrics")?
                .as_object()?
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                .collect();
            Some(RunRecord {
                workload: r.get("workload")?.as_str()?.to_string(),
                seed: r.get("seed")?.as_u64()?,
                metrics,
            })
        })
        .collect()
}

/// The verdict on one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the pairs and the medians
    /// differ by more than the baseline's own spread.
    Better,
    /// The change's median is worse than the baseline's by more than the
    /// bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// A side's run-to-run spread is wider than the bound, and the runs do
    /// not separate completely.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` (the change) against `a` (the baseline). Values are paired
/// in order (callers pair by seed).
pub fn verdict(a: &[f64], b: &[f64], def: &MetricDef) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    // Orient so that "gain" is positive.
    let gain = |base: f64, x: f64| {
        if def.lower_is_better {
            base - x
        } else {
            x - base
        }
    };
    let (ma, mb) = (median(a), median(b));
    let all_better = b.iter().all(|&y| a.iter().all(|&x| gain(x, y) > 0.0));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| gain(x, y) < 0.0));
    if relative_spread(a) > def.bound || relative_spread(b) > def.bound {
        return if all_better {
            Verdict::Better
        } else if all_worse {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|&(&x, &y)| gain(x, y) > 0.0).count();
    let (q1, q3) = quartiles(a);
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(ma, mb) > q3 - q1 {
        Verdict::Better
    } else if -gain(ma, mb) > def.bound * ma.abs() {
        Verdict::Worse
    } else {
        Verdict::Unchanged
    }
}

/// Compare mode: one row per workload × end-to-end metric.
pub fn compare(a_text: &str, b_text: &str, defs: &[MetricDef]) -> String {
    let (a, b) = (parse_records(a_text), parse_records(b_text));
    let mut workloads: Vec<&str> = a.iter().chain(&b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let mut out = format!(
        "{:<12} {:<34} {:>5} {:>30} {:>30}  {}\n",
        "workload", "metric", "runs", "A median [q1, q3]", "B median [q1, q3]", "verdict"
    );
    for w in workloads {
        let runs_a: Vec<&RunRecord> = a.iter().filter(|r| r.workload == w).collect();
        let runs_b: Vec<&RunRecord> = b.iter().filter(|r| r.workload == w).collect();
        // Pair by seed where both sides ran it; otherwise in file order.
        let mut seeds: Vec<u64> = runs_a
            .iter()
            .map(|r| r.seed)
            .filter(|s| runs_b.iter().any(|r| r.seed == *s))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        for def in defs {
            let values = |runs: &[&RunRecord]| -> Vec<f64> {
                if seeds.is_empty() {
                    runs.iter().filter_map(|r| r.metrics.get(&def.name).copied()).collect()
                } else {
                    seeds
                        .iter()
                        .filter_map(|s| runs.iter().find(|r| r.seed == *s))
                        .filter_map(|r| r.metrics.get(&def.name).copied())
                        .collect()
                }
            };
            let (va, vb) = (values(&runs_a), values(&runs_b));
            let cell = |v: &[f64]| {
                if v.is_empty() {
                    "-".to_string()
                } else {
                    let (q1, q3) = quartiles(v);
                    format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
                }
            };
            let _ = writeln!(
                out,
                "{:<12} {:<34} {:>5} {:>30} {:>30}  {}",
                w,
                format!("{} ({})", def.name, def.unit),
                format!("{}/{}", va.len(), vb.len()),
                cell(&va),
                cell(&vb),
                verdict(&va, &vb, def).label()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(lower: bool, bound: f64) -> MetricDef {
        MetricDef { name: "m".into(), unit: "ms".into(), lower_is_better: lower, bound }
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let a: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * f64::from(i)).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        let same: Vec<f64> = a.iter().rev().copied().collect();
        assert_eq!(verdict(&a, &faster, &def(true, 0.1)), Verdict::Better);
        assert_eq!(verdict(&a, &slower, &def(true, 0.1)), Verdict::Worse);
        assert_eq!(verdict(&a, &same, &def(true, 0.1)), Verdict::Unchanged);
        assert_eq!(verdict(&a, &faster, &def(false, 0.1)), Verdict::Worse);
        // Spread wider than the bound and overlapping runs: unresolved.
        let noisy: Vec<f64> = (0..10).map(|i| if i % 2 == 0 { 5.0 } else { 15.0 }).collect();
        assert_eq!(verdict(&noisy, &a, &def(true, 0.1)), Verdict::Unresolved);
    }

    #[test]
    fn records_round_trip_through_compare() {
        let fp =
            Fingerprint { git_rev: "abc".into(), nproc: 2, cpu: "cpu".into(), kernel: "k".into() };
        let metrics = vec![("m".to_string(), 1.5, "ms".to_string())];
        let line = record_line("w", 3, false, &fp, true, &metrics, &[("note", "1".into())]);
        let recs = parse_records(&line);
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].metrics["m"], 1.5);
        assert_eq!(recs[0].seed, 3);
        let invalid = record_line("w", 3, false, &fp, false, &metrics, &[]);
        assert!(parse_records(&invalid).is_empty(), "invalid runs are never averaged in");
        let table = compare(&line, &line, &[def(true, 0.1)]);
        assert!(table.contains("unchanged"), "{table}");
    }
}
