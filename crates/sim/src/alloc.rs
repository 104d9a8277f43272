//! Device-side dynamic memory allocators for consolidation buffers.
//!
//! The paper's directive supports three buffer allocation mechanisms
//! (Table I / Section IV.E): the CUDA default `malloc`, the open-source
//! Halloc slab allocator, and a customized allocator over a pre-allocated
//! memory pool. All three place buffers in a single heap array in simulated
//! global memory, and none of them frees: the generated code never releases
//! a consolidation buffer, so buffers live until `reset_launch` ends the
//! host launch and [`DeviceHeap::reset`] reclaims the heap. The default
//! allocator and the pool place with a bump pointer, and Halloc rounds each
//! request up to a power-of-two size class, whose blocks it carves from a
//! bump pointer of its own in chunks. Their modeled per-operation cycle cost is what
//! produces the Figure 5 comparison.
//!
//! The heap array is *sparse* ([`GlobalMem::alloc_sparse_array`]): its full
//! capacity is addressable and bounds-checked, but host memory is spent only
//! on the 64-word pages kernels store non-zero words into, so the thousands
//! of buffers a warp- or block-level run allocates (each with one zero count
//! header) cost no host page each.

use crate::config::CostModel;
use crate::mem::{ArrayId, GlobalMem};
use crate::SimError;

/// Which allocator backs device-side `Alloc` statements for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// CUDA `malloc`: the slowest per op; placed like [`AllocKind::PreAlloc`].
    Default,
    /// Halloc-like size-class slab allocator: fast-ish per op.
    Halloc,
    /// Pre-allocated pool with an atomic bump pointer: near-free per op.
    PreAlloc,
}

impl AllocKind {
    pub fn label(self) -> &'static str {
        match self {
            AllocKind::Default => "default",
            AllocKind::Halloc => "halloc",
            AllocKind::PreAlloc => "pre-alloc",
        }
    }

    /// Cycle cost of one allocation operation under the cost model.
    pub fn op_cycles(self, c: &CostModel) -> u64 {
        match self {
            AllocKind::Default => c.alloc_default_cycles,
            AllocKind::Halloc => c.alloc_halloc_cycles,
            AllocKind::PreAlloc => c.alloc_prealloc_cycles,
        }
    }
}

/// Running statistics for a heap, surfaced in the profile report.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct HeapStats {
    pub allocs: u64,
    pub alloc_cycles: u64,
    pub peak_words_in_use: u64,
    pub failed_allocs: u64,
}

#[derive(Debug, Clone)]
enum Backend {
    /// Power-of-two size classes carved from a bump region on demand.
    Slab { classes: Vec<Vec<u64>>, bump: u64 },
    /// Monotone bump pointer.
    Bump { next: u64 },
}

/// The device heap: one large array in global memory plus allocator state.
#[derive(Debug, Clone)]
pub struct DeviceHeap {
    pub kind: AllocKind,
    pub array: ArrayId,
    capacity: u64,
    words_in_use: u64,
    backend: Backend,
    pub stats: HeapStats,
}

const SLAB_MIN_CLASS: u32 = 5; // 32 words
const SLAB_CHUNK_BLOCKS: u64 = 8;

fn size_class(words: u64) -> u32 {
    let words = words.max(1);
    let c = 64 - (words - 1).leading_zeros().min(63);
    c.max(SLAB_MIN_CLASS)
}

impl DeviceHeap {
    /// Create a heap of `capacity_words` backed by a fresh sparse
    /// global-memory array.
    pub fn new(kind: AllocKind, capacity_words: u64, mem: &mut GlobalMem) -> Self {
        let array = mem.alloc_sparse_array("__device_heap", capacity_words as usize);
        let backend = match kind {
            AllocKind::Halloc => Backend::Slab { classes: vec![Vec::new(); 40], bump: 0 },
            AllocKind::Default | AllocKind::PreAlloc => Backend::Bump { next: 0 },
        };
        DeviceHeap {
            kind,
            array,
            capacity: capacity_words,
            words_in_use: 0,
            backend,
            stats: HeapStats::default(),
        }
    }

    pub fn capacity_words(&self) -> u64 {
        self.capacity
    }

    pub fn words_in_use(&self) -> u64 {
        self.words_in_use
    }

    /// Allocate `words` words; returns the word offset within the heap array.
    pub fn alloc(&mut self, words: u64, cost: &CostModel) -> Result<u64, SimError> {
        let words = words.max(1);
        self.stats.allocs += 1;
        self.stats.alloc_cycles += self.kind.op_cycles(cost);
        let off = match &mut self.backend {
            Backend::Slab { classes, bump } => {
                let class = size_class(words);
                let block = 1u64 << class;
                if classes[class as usize].is_empty() {
                    // Carve a chunk of blocks for this class from the bump region.
                    let chunk = block * SLAB_CHUNK_BLOCKS;
                    let take = chunk.min(self.capacity.saturating_sub(*bump));
                    let nblocks = take / block;
                    for b in 0..nblocks {
                        classes[class as usize].push(*bump + b * block);
                    }
                    *bump += nblocks * block;
                }
                classes[class as usize].pop()
            }
            Backend::Bump { next } => {
                if *next + words <= self.capacity {
                    let off = *next;
                    *next += words;
                    Some(off)
                } else {
                    None
                }
            }
        };
        match off {
            Some(o) => {
                self.words_in_use += match &self.backend {
                    Backend::Slab { .. } => 1u64 << size_class(words),
                    _ => words,
                };
                self.stats.peak_words_in_use = self.stats.peak_words_in_use.max(self.words_in_use);
                Ok(o)
            }
            None => {
                self.stats.failed_allocs += 1;
                Err(SimError::HeapExhausted {
                    kind: self.kind.label(),
                    requested: words,
                    capacity: self.capacity,
                    in_use: self.words_in_use,
                })
            }
        }
    }

    /// Reclaim everything (between host launches).
    pub fn reset(&mut self) {
        self.words_in_use = 0;
        match &mut self.backend {
            Backend::Slab { classes, bump } => {
                classes.iter_mut().for_each(Vec::clear);
                *bump = 0;
            }
            Backend::Bump { next } => *next = 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap(kind: AllocKind, cap: u64) -> (DeviceHeap, GlobalMem, CostModel) {
        let mut mem = GlobalMem::new();
        let h = DeviceHeap::new(kind, cap, &mut mem);
        (h, mem, CostModel::default())
    }

    #[test]
    fn default_places_like_prealloc_and_charges_its_own_cycles() {
        let c = CostModel::default();
        let (mut d, _m, _) = heap(AllocKind::Default, 100);
        let (mut p, _m2, _) = heap(AllocKind::PreAlloc, 100);
        for words in [10, 0, 33, 40, 16] {
            assert_eq!(d.alloc(words, &c).ok(), p.alloc(words, &c).ok(), "{words} words");
        }
        assert!(d.alloc(1, &c).is_err() && p.alloc(1, &c).is_err(), "both exhausted at 100");
        assert_eq!(d.words_in_use(), p.words_in_use());
        assert_eq!(d.stats.allocs, 6);
        assert_eq!(d.stats.alloc_cycles, 6 * c.alloc_default_cycles);
    }

    #[test]
    fn halloc_size_classes_round_up() {
        let (mut h, _m, c) = heap(AllocKind::Halloc, 1 << 16);
        let a = h.alloc(33, &c).unwrap(); // class 64
        let b = h.alloc(64, &c).unwrap();
        assert_eq!(a - b, 64, "two blocks of one 64-word chunk");
        assert_eq!(h.words_in_use(), 128);
    }

    #[test]
    fn halloc_small_allocs_share_chunks() {
        let (mut h, _m, c) = heap(AllocKind::Halloc, 1 << 16);
        let offs: Vec<u64> = (0..SLAB_CHUNK_BLOCKS).map(|_| h.alloc(8, &c).unwrap()).collect();
        // All from one carved chunk of 32-word blocks.
        for w in offs.windows(2) {
            assert_eq!((w[0] as i64 - w[1] as i64).unsigned_abs(), 32);
        }
    }

    #[test]
    fn prealloc_bump_is_monotone_and_resettable() {
        let (mut h, _m, c) = heap(AllocKind::PreAlloc, 100);
        assert_eq!(h.alloc(10, &c).unwrap(), 0);
        assert_eq!(h.alloc(10, &c).unwrap(), 10);
        assert_eq!(h.alloc(10, &c).unwrap(), 20);
        h.reset();
        assert_eq!(h.alloc(10, &c).unwrap(), 0);
    }

    #[test]
    fn exhaustion_reports_context() {
        let (mut h, _m, c) = heap(AllocKind::PreAlloc, 8);
        let err = h.alloc(9, &c).unwrap_err();
        match err {
            SimError::HeapExhausted { kind, requested, capacity, .. } => {
                assert_eq!(kind, "pre-alloc");
                assert_eq!(requested, 9);
                assert_eq!(capacity, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(h.stats.failed_allocs, 1);
    }

    #[test]
    fn cost_accounting_orders_allocators() {
        let c = CostModel::default();
        let mut totals = Vec::new();
        for kind in [AllocKind::Default, AllocKind::Halloc, AllocKind::PreAlloc] {
            let (mut h, _m, _) = heap(kind, 1 << 16);
            for _ in 0..10 {
                h.alloc(32, &c).unwrap();
            }
            totals.push(h.stats.alloc_cycles);
        }
        assert!(totals[0] > totals[1] && totals[1] > totals[2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use dpcons_workloads::rng::Rng64;

    /// The slab allocator never hands out overlapping blocks.
    #[test]
    fn halloc_blocks_never_overlap() {
        let mut g = Rng64::seed_from_u64(0x5AB5);
        for case in 0..32 {
            let mut mem = GlobalMem::new();
            let mut h = DeviceHeap::new(AllocKind::Halloc, 1 << 16, &mut mem);
            let c = CostModel::default();
            let mut live: Vec<(u64, u64)> = Vec::new();
            for _ in 0..g.range_u64(1, 60) {
                let s = g.range_u64(1, 200);
                let off = h.alloc(s, &c).unwrap();
                for &(o, l) in &live {
                    assert!(off + s <= o || o + l <= off, "case {case}");
                }
                live.push((off, s));
            }
        }
    }
}
