//! The exact-counts block repeats bit for bit for a seed.
//!
//! Run with `cargo test --release`: the workloads execute real jobs.

use fila_svcbench::counts;
use fila_svcbench::workload::Workload;

/// Short runs: enough jobs to exercise every job kind of each workload
/// (300, 120 and 2 jobs).
fn seconds(workload: Workload) -> f64 {
    match workload {
        Workload::WarmMix => 0.75,
        Workload::ColdAdmission => 0.24,
        Workload::BulkStream => 4.0 / 7.0,
    }
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for workload in Workload::ALL {
        let (first, correct) = counts(workload, 5, seconds(workload));
        assert!(correct, "{workload:?}: an outcome mismatched the reference");
        assert!(
            first.admitted > 0 && first.data > 0,
            "{workload:?}: {first:?}"
        );
        let (second, _) = counts(workload, 5, seconds(workload));
        assert_eq!(
            first, second,
            "{workload:?}: counts differ between two runs of one seed"
        );
    }
}
