//! Batched parallel timing replay: price many captured launch DAGs at once.
//!
//! Timing replay ([`Engine::replay_timing_on`]) is pure over `&[ExecRecord]`,
//! so a batch of captures can be priced on all cores with
//! [`crate::par::parallel_map`] and still yield exactly the results of a
//! serial loop. [`replay_timing_many`] is that batch entry. DAGs are grouped
//! into at most one **contiguous, record-count-balanced chunk per worker**
//! (`chunk_ranges`), so the per-job overhead amortizes over a chunk rather
//! than one tiny DAG; a single-chunk batch (one core, or too few records)
//! runs as the plain serial loop.
//!
//! No library code calls it: the sweep re-times each candidate with the
//! serial `dpcons_apps::CaptureSet::replay_on` inside its wave job, where a
//! batch would start a second pool. On 2 cores the serial loop was faster on
//! all 49 captures a test-scale sweep makes (7 apps' default candidates on
//! K40, Titan and TK1: 46.0 ms against 52.7 ms batched; GC's warp-level
//! captures, 741 records and the only ones split into chunks, 3.0 against
//! 3.8 ms). The batch is kept for the benchmark's `retime_fleet` workload:
//! on scale-M basic-dp captures it is 1.1–1.8× faster on SSSP, PageRank and
//! GC.
//!
//! Determinism contract: results come back **in submission order**, and
//! merging them in that order ([`merge_reports`]) is bit-identical to the
//! serial per-launch merge in `dpcons_apps::CaptureSet::replay_on` — the
//! ratio metrics are weighted f64 folds, so merge *order* matters. The unit
//! tests below pin the equivalence.

use std::ops::Range;

use dpcons_sim::{Engine, ExecRecord, GpuConfig, ProfileReport};

use crate::par::{parallel_map, pool_width};

/// Fewer captured records than this are not worth a second thread: one
/// record replays in a few microseconds, so a chunk below this size would
/// spend comparable time on spawn/join as on work.
const MIN_RECORDS_PER_CHUNK: usize = 256;

/// `tune.replay.batched_dags` counter: DAGs priced through the batched
/// parallel entry (cached so the per-batch cost is one atomic add).
fn batched_dags_counter() -> &'static dpcons_obs::Counter {
    static C: std::sync::OnceLock<&'static dpcons_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| dpcons_obs::counter("tune.replay.batched_dags"))
}

/// Partition `dags` into at most `max_chunks` contiguous ranges of roughly
/// equal **record count** (not DAG count — one big DAG can outweigh hundreds
/// of single-kernel ones). Returns fewer chunks when the batch is small:
/// every chunk is worth at least [`MIN_RECORDS_PER_CHUNK`] records, and an
/// empty batch yields no chunks.
fn chunk_ranges(dags: &[&[ExecRecord]], max_chunks: usize) -> Vec<Range<usize>> {
    if dags.is_empty() {
        return Vec::new();
    }
    let total: usize = dags.iter().map(|d| d.len()).sum();
    let chunks = max_chunks.clamp(1, (total / MIN_RECORDS_PER_CHUNK).max(1)).min(dags.len());
    let per_chunk = total.div_ceil(chunks).max(1);
    let mut ranges = Vec::with_capacity(chunks);
    let (mut start, mut acc) = (0usize, 0usize);
    for (i, d) in dags.iter().enumerate() {
        acc += d.len();
        if acc >= per_chunk && ranges.len() + 1 < chunks {
            ranges.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    ranges.push(start..dags.len());
    ranges
}

/// Re-time every captured DAG in `dags` on `gpu`, in parallel, returning one
/// [`ProfileReport`] per DAG in submission order. Equivalent to (and
/// bit-identical with) calling [`Engine::replay_timing_on`] in a serial loop.
///
/// Panics in a replay are resumed on the caller's thread after the batch
/// drains ([`parallel_map`]'s strict contract). Call it from outside any
/// pool job: inside one it would start a second pool.
pub fn replay_timing_many(gpu: &GpuConfig, dags: &[&[ExecRecord]]) -> Vec<ProfileReport> {
    let _span = dpcons_obs::span("tune.replay.batch");
    batched_dags_counter().add(dags.len() as u64);
    let replay_range =
        |r: Range<usize>| dags[r].iter().map(|&d| Engine::replay_timing_on(gpu, d)).collect();
    let mut ranges = chunk_ranges(dags, pool_width());
    if ranges.len() <= 1 {
        // One core or one chunk's worth of records: plain serial loop, no
        // thread machinery at all.
        return ranges.pop().map(replay_range).unwrap_or_default();
    }
    let jobs: Vec<_> = ranges.into_iter().map(|r| || replay_range(r)).collect();
    parallel_map(jobs).into_iter().flatten().collect()
}

/// Fold per-launch reports into one, in iteration order — the same
/// left-to-right [`ProfileReport::merge`] fold the live runner and
/// `CaptureSet::replay_on` perform, so a parallel batch merged this way is
/// bit-identical to its serial counterpart.
pub fn merge_reports<'a>(reports: impl IntoIterator<Item = &'a ProfileReport>) -> ProfileReport {
    let mut total = ProfileReport::default();
    for r in reports {
        total.merge(r);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_apps::{datasets, Benchmark, PageRank, Profile, RunConfig, Variant};

    fn captured() -> (dpcons_apps::AppOutcome, RunConfig) {
        // PageRank makes several host launches per run (rank + apply steps
        // per iteration), so the merge-order contract is actually exercised.
        let app = PageRank::new(datasets::citeseer(Profile::Test), 3);
        let cfg = RunConfig { capture: true, ..RunConfig::default() };
        let out = app.run(Variant::BasicDp, &cfg).expect("capture run succeeds");
        (out, cfg)
    }

    #[test]
    fn parallel_batch_matches_serial_replay_bit_for_bit() {
        let (out, cfg) = captured();
        let caps = out.captures.as_ref().expect("capture requested");
        let dags: Vec<&[ExecRecord]> = caps.launches.iter().map(|l| l.as_slice()).collect();
        assert!(dags.len() > 1, "PageRank must capture several host launches");

        let serial: Vec<ProfileReport> =
            dags.iter().map(|dag| Engine::replay_timing_on(&cfg.gpu, dag)).collect();
        let parallel = replay_timing_many(&cfg.gpu, &dags);
        assert_eq!(parallel, serial, "per-DAG reports must be identical and in order");
    }

    #[test]
    fn ordered_merge_reproduces_capture_set_replay_exactly() {
        let (out, cfg) = captured();
        let caps = out.captures.as_ref().expect("capture requested");
        let dags: Vec<&[ExecRecord]> = caps.launches.iter().map(|l| l.as_slice()).collect();

        let mut merged = merge_reports(&replay_timing_many(&cfg.gpu, &dags));
        merged.alloc_ops = caps.alloc_ops;
        merged.alloc_cycles = caps.alloc_cycles;
        // Bit-identical to the serial merge — including the f64 ratio metrics
        // — and therefore to the capture run's own report.
        assert_eq!(merged, caps.replay_on(&cfg.gpu));
        assert_eq!(merged, out.report);
    }

    #[test]
    fn empty_batch_yields_empty_results_and_default_merge() {
        let gpu = dpcons_sim::GpuConfig::k20c();
        assert!(replay_timing_many(&gpu, &[]).is_empty());
        assert_eq!(merge_reports(&[]), ProfileReport::default());
    }

    /// The chunk partition is a pure function of the record counts; pin its
    /// invariants directly (this machine's core count must not decide what
    /// the tests cover): contiguous identity coverage, the chunk-count cap,
    /// and record-count balancing around one oversized DAG.
    #[test]
    fn chunk_ranges_cover_everything_in_order_and_balance_by_records() {
        let (out, _cfg) = captured();
        let caps = out.captures.as_ref().expect("capture requested");
        let dags: Vec<&[ExecRecord]> = caps.launches.iter().map(|l| l.as_slice()).collect();
        let total: usize = dags.iter().map(|d| d.len()).sum();
        assert!(total >= 2 * MIN_RECORDS_PER_CHUNK, "fixture must be big enough to chunk");

        for max_chunks in [1usize, 2, 3, 8, 64] {
            let ranges = chunk_ranges(&dags, max_chunks);
            assert!(!ranges.is_empty());
            assert!(ranges.len() <= max_chunks, "chunk cap violated at {max_chunks}");
            assert!(ranges.len() <= dags.len());
            // Contiguous, in order, covering every index exactly once.
            assert_eq!(ranges[0].start, 0);
            assert_eq!(ranges.last().expect("nonempty").end, dags.len());
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must tile contiguously");
                assert!(!w[0].is_empty());
            }
            // Every chunk but the last (the remainder) is worth the minimum.
            for r in &ranges[..ranges.len() - 1] {
                let records: usize = dags[r.clone()].iter().map(|d| d.len()).sum();
                assert!(
                    records >= MIN_RECORDS_PER_CHUNK,
                    "chunk {r:?} holds {records} records at {max_chunks} chunks"
                );
            }
        }
        assert!(chunk_ranges(&[], 4).is_empty());
    }
}
