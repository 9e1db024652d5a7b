//! The `CostLedger` work counts of a replay are a function of the seed
//! alone: two replays of the same seed must produce identical totals. These
//! counts are the base of `core.ns_per_posting` and `core.ns_per_advance`.

use perfbench::run::Args;
use perfbench::traced;
use perfbench::workload::Workload;

fn totals(workload: Workload, seed: u64) -> String {
    let args = Args { workload, seed, seconds: 25.0 };
    let prep = traced::prepare(&args, 30).expect("prepare");
    let leg = traced::layers_leg(&prep, false, 3).expect("replay");
    let mut out = String::new();
    leg.warm_totals.cost.write_json(&mut out);
    leg.totals.cost.write_json(&mut out);
    out
}

#[test]
fn work_counts_repeat_for_the_same_seed() {
    for workload in Workload::ALL {
        let first = totals(workload, 11);
        assert!(first.contains("\"postings_scanned\":"), "{first}");
        assert!(!first.starts_with("{\"postings_scanned\":0,"), "{workload:?} did engine work");
        assert_eq!(first, totals(workload, 11), "{workload:?}");
    }
}
