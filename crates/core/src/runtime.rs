//! Host-side launch support for consolidated kernels.
//!
//! The consolidation transforms change what the host must do before a launch:
//! grid-level kernels receive a pre-allocated buffer pool and a global-barrier
//! counter, and consolidated recursive kernels are launched over a *seeded*
//! work buffer, in their [`LaunchShape`] at that one item, instead of the
//! original root configuration. This module
//! encapsulates that setup so that applications (and tests) can launch any
//! transformed module uniformly.
//!
//! [`LaunchShape`]: crate::occupancy::LaunchShape

use std::collections::HashMap;

use dpcons_sim::{ArrayId, Engine, KernelId, LaunchSpec, SimError};

use crate::directive::Granularity;
use crate::transform::TransformInfo;

/// Everything allocated for a consolidated host launch.
#[derive(Debug, Clone)]
pub struct PreparedLaunch {
    pub spec: LaunchSpec,
    /// Grid-level buffer pool (also the level pool for recursion).
    pub pool: Option<ArrayId>,
    /// Global-barrier counters (one per recursion level).
    pub counter: Option<ArrayId>,
    /// Host-seeded level-0 buffer for warp/block-level recursion.
    pub seed_buf: Option<ArrayId>,
    /// The parent grid size the barrier counter must be reset to.
    counter_init: i64,
    /// Seed items re-written by [`reset_launch`].
    seed_items: Vec<i64>,
    /// Count-header offsets inside the pool ([`GridExtras::header_offsets`],
    /// minus those past the pool's end) cleared by [`reset_launch`].
    ///
    /// [`GridExtras::header_offsets`]: crate::transform::GridExtras::header_offsets
    pool_headers: Vec<usize>,
    reset_words: u64,
}

impl PreparedLaunch {
    /// Words the latest [`reset_launch`] wrote.
    pub fn reset_words(&self) -> u64 {
        self.reset_words
    }
}

/// Prepare a host launch of the consolidated entry kernel; the returned
/// state is launch-ready.
///
/// * `original_args` — the argument list of the *original* (basic-dp) host
///   launch of the annotated kernel.
/// * `original_config` — the original `(grid, block)` host configuration.
/// * `pool_words` — capacity of the grid-level pool when one is needed.
pub fn prepare_launch(
    engine: &mut Engine,
    info: &TransformInfo,
    ids: &HashMap<String, KernelId>,
    original_args: &[i64],
    original_config: (u32, u32),
    pool_words: u64,
) -> Result<PreparedLaunch, SimError> {
    let entry_id = *ids.get(&info.entry).ok_or(SimError::UnknownKernel { id: usize::MAX })?;
    let fault = |message: String| SimError::KernelFault { kernel: info.entry.clone(), message };
    let pick = |positions: &[usize]| -> Result<Vec<i64>, SimError> {
        positions
            .iter()
            .map(|&p| {
                original_args.get(p).copied().ok_or_else(|| {
                    fault(format!(
                        "host launch passes {} arguments, the consolidated entry needs argument {p}",
                        original_args.len()
                    ))
                })
            })
            .collect()
    };

    // Recursion launches over one seeded work item (the original host
    // arguments at the buffered positions), shaped as the device-side
    // launches of the same kernel are, instead of the root configuration.
    let (mut args, seed_items, (grid, block)) = if info.recursive {
        let seed_items = pick(&info.buffered_positions)?;
        (pick(&info.passthrough_positions)?, seed_items, info.shape.at(1))
    } else {
        (original_args.to_vec(), Vec::new(), original_config)
    };

    let (mut pool, mut counter, mut seed_buf) = (None, None, None);
    let mut pool_headers = Vec::new();
    if info.granularity == Granularity::Grid {
        let extras = info
            .grid_extras
            .as_ref()
            .ok_or_else(|| fault("grid-level transform carries no pool layout".into()))?;
        let p = engine.mem.alloc_array("__cons_pool", pool_words as usize);
        let c = engine.mem.alloc_array("__cons_counter", extras.levels);
        pool_headers = extras.header_offsets().filter(|&off| (off as u64) < pool_words).collect();
        args.extend([p as i64, c as i64]);
        if info.recursive {
            args.push(0); // level
        }
        pool = Some(p);
        counter = Some(c);
    } else if info.recursive {
        let b = engine.mem.alloc_array("__cons_seed", (1 + seed_items.len()).max(2));
        args.extend([b as i64, 0]); // buffer, offset
        seed_buf = Some(b);
    }

    let mut prepared = PreparedLaunch {
        spec: LaunchSpec::new(entry_id, grid, block, args),
        pool,
        counter,
        seed_buf,
        counter_init: grid as i64,
        seed_items,
        pool_headers,
        reset_words: 0,
    };
    reset_launch(engine, &mut prepared)?;
    Ok(prepared)
}

/// Reset the consolidation state before (re-)launching: zero the pool's count
/// headers, reinitialize the barrier counter, and re-seed recursion work
/// items. Must be called between host launches that reuse a `PreparedLaunch`.
///
/// Only the headers are cleared, never the pool: items are read at slots
/// below their buffer's count, and every such slot was written by the
/// insertion that raised the count, so whatever an earlier launch left behind
/// is unobservable (`crates/core/tests/transform_e2e.rs` poisons the pool to
/// pin this).
pub fn reset_launch(engine: &mut Engine, p: &mut PreparedLaunch) -> Result<(), SimError> {
    let mut words = 0;
    if let Some(pool) = p.pool {
        for &off in &p.pool_headers {
            engine.mem.write(pool, off, 0)?;
        }
        words += p.pool_headers.len();
        if !p.seed_items.is_empty() {
            words += seed(engine, pool, &p.seed_items)?;
        }
    }
    if let Some(c) = p.counter {
        engine.mem.fill(c, 0)?;
        engine.mem.write(c, 0, p.counter_init)?;
        words += engine.mem.len(c)?;
    }
    if let Some(b) = p.seed_buf {
        engine.mem.fill(b, 0)?;
        seed(engine, b, &p.seed_items)?;
        words += engine.mem.len(b)?;
    }
    p.reset_words = words as u64;
    engine.heap.reset();
    Ok(())
}

/// One seeded work item at the start of `buf`: count = 1, its values after.
/// Returns the words written.
fn seed(engine: &mut Engine, buf: ArrayId, items: &[i64]) -> Result<usize, SimError> {
    engine.mem.write(buf, 0, 1)?;
    for (j, &x) in items.iter().enumerate() {
        engine.mem.write(buf, 1 + j, x)?;
    }
    Ok(1 + items.len())
}
