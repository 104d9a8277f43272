//! The device heap spends host memory only where kernels store non-zero
//! words. A warp-level BFS-Rec run on the pre-allocated pool allocates tens
//! of thousands of consolidation buffers and writes a zero count header into
//! each; on the sparse heap those buffers materialize a few dozen 64-word
//! pages in total, while every simulated fact stays that of the committed
//! golden record (`tests/golden/datapoints.txt`).
//!
//! This is deliberately the only test in this integration-test binary —
//! `sim.heap.pages` is a process-wide counter, and a lone test owns its
//! whole process, so the delta below observes nothing but this run.

use dpcons_apps::{datasets, Benchmark, BfsRec, Profile, RunConfig, Variant};
use dpcons_tune::{candidate_config, Knobs};

#[test]
fn warp_level_buffers_materialize_few_heap_pages() {
    let app = BfsRec::new(datasets::kron(Profile::Test), 0);
    let knobs = Knobs::parse("warp/pre-alloc/pbs=1024/cfg=52x256").unwrap();
    let cfg = candidate_config(&RunConfig::default(), &knobs);
    let pages = dpcons_obs::counter("sim.heap.pages");

    let before = pages.get();
    // `verify` checks the output against the CPU oracle and drops the run's
    // engine, which adds its heap's pages to the counter.
    let report = app.verify(Variant::ConsolidatedTuned, &cfg).unwrap();
    let materialized = pages.get() - before;

    // The golden record's facts for this candidate.
    assert_eq!(report.alloc_ops, 38_272);
    assert_eq!(report.total_cycles, 68_456);
    assert!(
        (1..=128).contains(&materialized),
        "{materialized} heap pages materialized for {} buffers",
        report.alloc_ops
    );
}
