//! Simulated GPU global memory.
//!
//! Memory is organized as named arrays of 64-bit words. Kernels address memory
//! through `(ArrayId, index)` pairs; every array also has a stable *global
//! word address* so that accesses from different arrays can be coalesced
//! against each other exactly like addresses in a flat device address space.
//!
//! An array's words are stored one of two ways, invisibly to kernels:
//! *dense* (one `Vec<i64>`, every array the host allocates) or *sparse*
//! (the device heap, [`GlobalMem::alloc_sparse_array`]). A sparse array keeps
//! its words in fixed 64-word pages, and a page exists only once a non-zero
//! word was stored into it. Reads, writes, atomics, bounds checks and global
//! addresses behave exactly as for a dense zeroed array of the same length;
//! only the host bulk operations ([`GlobalMem::slice`], [`GlobalMem::upload`],
//! [`GlobalMem::fill`]) refuse a sparse array with
//! [`SimError::SparseBulkAccess`].

use crate::SimError;

/// Handle to an array in global memory. Kernels pass these around as plain
/// `i64` scalar values (like device pointers).
pub type ArrayId = usize;

/// Words per page of a sparse array.
const PAGE_WORDS: usize = 64;

/// Zero-initialized words that hold host memory only for pages a non-zero
/// store reached.
#[derive(Debug, Clone)]
struct SparseWords {
    /// Page number → index into `pages`, grown to the highest page written;
    /// 0 (and any page past the end) is the shared zero page.
    dir: Vec<u32>,
    /// `pages[0]` is all zeros and never written; the rest are materialized
    /// pages in the order they were first written.
    pages: Vec<[i64; PAGE_WORDS]>,
}

impl SparseWords {
    fn new() -> Self {
        SparseWords { dir: Vec::new(), pages: vec![[0; PAGE_WORDS]] }
    }

    #[inline]
    fn get(&self, idx: usize) -> i64 {
        let p = self.dir.get(idx / PAGE_WORDS).copied().unwrap_or(0);
        self.pages[p as usize][idx % PAGE_WORDS]
    }

    /// Store `v`; a zero stored into a page that does not exist is already
    /// there, so it materializes nothing.
    #[inline]
    fn set(&mut self, idx: usize, v: i64) {
        let page = idx / PAGE_WORDS;
        match self.dir.get(page).copied().unwrap_or(0) {
            0 if v == 0 => {}
            0 => self.materialize(page, idx % PAGE_WORDS, v),
            p => self.pages[p as usize][idx % PAGE_WORDS] = v,
        }
    }

    /// First non-zero store into `page`: kept out of line so the store path
    /// inlined into the VM's lane loops stays small.
    #[cold]
    #[inline(never)]
    fn materialize(&mut self, page: usize, slot: usize, v: i64) {
        if page >= self.dir.len() {
            self.dir.resize(page + 1, 0);
        }
        // u32 page numbers reach 2^38 written words (2 TiB of host memory);
        // past that, page numbers would alias.
        assert!(self.pages.len() <= u32::MAX as usize, "sparse page directory is full");
        self.dir[page] = self.pages.len() as u32;
        let mut fresh = [0; PAGE_WORDS];
        fresh[slot] = v;
        self.pages.push(fresh);
    }

    fn materialized_pages(&self) -> usize {
        self.pages.len() - 1
    }
}

#[derive(Debug, Clone)]
enum Words {
    Dense(Vec<i64>),
    Sparse(SparseWords),
}

#[derive(Debug, Clone)]
struct Array {
    label: String,
    base: u64,
    len: usize,
    words: Words,
}

impl Array {
    #[inline]
    fn get(&self, idx: usize) -> i64 {
        match &self.words {
            Words::Dense(d) => d[idx],
            Words::Sparse(s) => s.get(idx),
        }
    }

    #[inline]
    fn set(&mut self, idx: usize, v: i64) {
        match &mut self.words {
            Words::Dense(d) => d[idx] = v,
            Words::Sparse(s) => s.set(idx, v),
        }
    }

    /// The dense contents, or the typed refusal of host operation `op` on a
    /// sparse array.
    fn dense(&self, op: &'static str) -> Result<&Vec<i64>, SimError> {
        match &self.words {
            Words::Dense(d) => Ok(d),
            Words::Sparse(_) => Err(SimError::SparseBulkAccess { array: self.label.clone(), op }),
        }
    }

    fn dense_mut(&mut self, op: &'static str) -> Result<&mut Vec<i64>, SimError> {
        match &mut self.words {
            Words::Dense(d) => Ok(d),
            Words::Sparse(_) => Err(SimError::SparseBulkAccess { array: self.label.clone(), op }),
        }
    }
}

/// Flat simulated global memory: a collection of arrays with stable global
/// addressing and bounds-checked access.
#[derive(Debug, Default, Clone)]
pub struct GlobalMem {
    arrays: Vec<Array>,
    next_base: u64,
}

impl GlobalMem {
    pub fn new() -> Self {
        GlobalMem { arrays: Vec::new(), next_base: 0 }
    }

    /// Allocate a zero-initialized dense array of `len` words.
    ///
    /// `vec![0; len]` takes zeroed pages straight from the OS, so a page is
    /// faulted in (and counts towards RSS) only when it is first touched —
    /// but a touch is any store, a zero included, and every touched host
    /// page costs 4 KiB. That suits the host's arrays and the 4 M-word
    /// consolidation pool, whose stores are dense; the device heap, where
    /// thousands of small buffers each store one zero header, is
    /// [`Self::alloc_sparse_array`].
    pub fn alloc_array(&mut self, label: &str, len: usize) -> ArrayId {
        self.alloc_array_init(label, vec![0; len])
    }

    /// Allocate an array with the given initial contents.
    pub fn alloc_array_init(&mut self, label: &str, data: Vec<i64>) -> ArrayId {
        let len = data.len();
        self.push_array(label, len, Words::Dense(data))
    }

    /// Allocate a zero-initialized *sparse* array of `len` words: host
    /// memory is spent on 64-word pages only where a non-zero word is
    /// stored. Addresses, bounds and every device-side access are those of
    /// [`Self::alloc_array`] of the same length; host bulk operations return
    /// [`SimError::SparseBulkAccess`].
    pub fn alloc_sparse_array(&mut self, label: &str, len: usize) -> ArrayId {
        self.push_array(label, len, Words::Sparse(SparseWords::new()))
    }

    fn push_array(&mut self, label: &str, len: usize, words: Words) -> ArrayId {
        let id = self.arrays.len();
        let base = self.next_base;
        // Pad bases to a segment boundary so distinct arrays never share a
        // coalescing segment.
        self.next_base = base + (len as u64).div_ceil(32).max(1) * 32;
        self.arrays.push(Array { label: label.to_string(), base, len, words });
        id
    }

    pub fn len(&self, id: ArrayId) -> Result<usize, SimError> {
        Ok(self.array(id)?.len)
    }

    pub fn is_empty(&self, id: ArrayId) -> Result<bool, SimError> {
        Ok(self.len(id)? == 0)
    }

    pub fn label(&self, id: ArrayId) -> Result<&str, SimError> {
        Ok(&self.array(id)?.label)
    }

    /// Pages a sparse array has materialized so far; `None` for a dense
    /// array or a bad handle.
    pub fn sparse_pages(&self, id: ArrayId) -> Option<usize> {
        match &self.arrays.get(id)?.words {
            Words::Sparse(s) => Some(s.materialized_pages()),
            Words::Dense(_) => None,
        }
    }

    fn array(&self, id: ArrayId) -> Result<&Array, SimError> {
        self.arrays.get(id).ok_or(SimError::BadHandle { handle: id as i64 })
    }

    fn array_mut(&mut self, id: ArrayId) -> Result<&mut Array, SimError> {
        self.arrays.get_mut(id).ok_or(SimError::BadHandle { handle: id as i64 })
    }

    /// Validate that an i64 scalar is a live array handle (device pointer).
    pub fn handle_from_value(&self, v: i64) -> Result<ArrayId, SimError> {
        let id = usize::try_from(v).map_err(|_| SimError::BadHandle { handle: v })?;
        if id >= self.arrays.len() {
            return Err(SimError::BadHandle { handle: v });
        }
        Ok(id)
    }

    /// Global word address of `(id, idx)`; used for coalescing.
    pub fn global_addr(&self, id: ArrayId, idx: usize) -> Result<u64, SimError> {
        let a = self.array(id)?;
        self.check_idx(a, id, idx)?;
        Ok(a.base + idx as u64)
    }

    fn check_idx(&self, a: &Array, id: ArrayId, idx: usize) -> Result<(), SimError> {
        if idx >= a.len {
            return Err(SimError::OutOfBounds {
                array: a.label.clone(),
                handle: id as i64,
                index: idx as i64,
                len: a.len,
            });
        }
        Ok(())
    }

    pub fn read(&self, id: ArrayId, idx: usize) -> Result<i64, SimError> {
        let a = self.array(id)?;
        self.check_idx(a, id, idx)?;
        Ok(a.get(idx))
    }

    pub fn write(&mut self, id: ArrayId, idx: usize, v: i64) -> Result<(), SimError> {
        let a = self.array(id)?;
        self.check_idx(a, id, idx)?;
        self.arrays[id].set(idx, v);
        Ok(())
    }

    /// Atomic fetch-add; returns the old value. The simulator executes blocks
    /// deterministically so atomicity is about program semantics, not races.
    pub fn atomic_add(&mut self, id: ArrayId, idx: usize, v: i64) -> Result<i64, SimError> {
        let old = self.read(id, idx)?;
        self.write(id, idx, old.wrapping_add(v))?;
        Ok(old)
    }

    /// Atomic fetch-min; returns the old value.
    pub fn atomic_min(&mut self, id: ArrayId, idx: usize, v: i64) -> Result<i64, SimError> {
        let old = self.read(id, idx)?;
        if v < old {
            self.write(id, idx, v)?;
        }
        Ok(old)
    }

    /// Atomic fetch-max; returns the old value.
    pub fn atomic_max(&mut self, id: ArrayId, idx: usize, v: i64) -> Result<i64, SimError> {
        let old = self.read(id, idx)?;
        if v > old {
            self.write(id, idx, v)?;
        }
        Ok(old)
    }

    /// Atomic compare-and-swap; returns the old value.
    pub fn atomic_cas(
        &mut self,
        id: ArrayId,
        idx: usize,
        expected: i64,
        desired: i64,
    ) -> Result<i64, SimError> {
        let old = self.read(id, idx)?;
        if old == expected {
            self.write(id, idx, desired)?;
        }
        Ok(old)
    }

    /// Atomic exchange; returns the old value.
    pub fn atomic_exch(&mut self, id: ArrayId, idx: usize, v: i64) -> Result<i64, SimError> {
        let old = self.read(id, idx)?;
        self.write(id, idx, v)?;
        Ok(old)
    }

    /// Base global address and length of one array in a single lookup: the
    /// warp-uniform-handle fast path resolves these once per access group
    /// instead of re-deriving them per lane.
    #[inline]
    pub fn base_len(&self, id: ArrayId) -> Result<(u64, usize), SimError> {
        let a = self.array(id)?;
        Ok((a.base, a.len))
    }

    /// Direct read of a location already validated through
    /// [`Self::global_addr`]: the bytecode VM resolves every lane's
    /// `(array, index)` pair once while accounting coalescing cost and
    /// reuses the pair here, skipping a second handle/bounds `Result`
    /// round-trip per lane. Panics on an unvalidated pair — callers uphold
    /// validation by construction.
    #[inline]
    pub fn read_validated(&self, id: ArrayId, idx: usize) -> i64 {
        self.arrays[id].get(idx)
    }

    /// Direct write counterpart of [`Self::read_validated`].
    #[inline]
    pub fn write_validated(&mut self, id: ArrayId, idx: usize, v: i64) {
        self.arrays[id].set(idx, v);
    }

    /// Borrow a dense array's contents (host-side readback).
    pub fn slice(&self, id: ArrayId) -> Result<&[i64], SimError> {
        Ok(self.array(id)?.dense("slice")?)
    }

    /// Overwrite a dense array's contents (host-side upload). Length must
    /// match.
    pub fn upload(&mut self, id: ArrayId, data: &[i64]) -> Result<(), SimError> {
        let a = self.array_mut(id)?;
        if a.len != data.len() {
            return Err(SimError::UploadSizeMismatch {
                array: a.label.clone(),
                expected: a.len,
                got: data.len(),
            });
        }
        a.dense_mut("upload")?.copy_from_slice(data);
        Ok(())
    }

    /// Set every word of a dense array to `v`.
    pub fn fill(&mut self, id: ArrayId, v: i64) -> Result<(), SimError> {
        self.array_mut(id)?.dense_mut("fill")?.fill(v);
        Ok(())
    }
}

/// Count the DRAM transactions needed to service one warp-wide access group:
/// the number of distinct coalescing segments touched by the addresses
/// (128-byte segments on Kepler-class devices).
pub fn coalesced_transactions(addrs: &mut Vec<u64>, segment_words: u64) -> u64 {
    if addrs.is_empty() {
        return 0;
    }
    let seg = segment_words.max(1);
    if seg.is_power_of_two() {
        // Segment sizes are powers of two on every real device; a shift
        // avoids one hardware division per lane per access group.
        let sh = seg.trailing_zeros();
        for a in addrs.iter_mut() {
            *a >>= sh;
        }
    } else {
        for a in addrs.iter_mut() {
            *a /= seg;
        }
    }
    // Fast path: a fully-coalesced access (every lane in one segment) is the
    // common case for tid-indexed loops and skips the sort entirely.
    if addrs.iter().all(|&a| a == addrs[0]) {
        addrs.truncate(1);
        return 1;
    }
    // Strided tid-indexed groups arrive already sorted: dedup in one pass.
    if addrs.windows(2).all(|w| w[0] <= w[1]) {
        addrs.dedup();
        return addrs.len() as u64;
    }
    addrs.sort_unstable();
    addrs.dedup();
    addrs.len() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write_roundtrip() {
        let mut m = GlobalMem::new();
        let a = m.alloc_array("a", 8);
        assert_eq!(m.read(a, 3).unwrap(), 0);
        m.write(a, 3, 42).unwrap();
        assert_eq!(m.read(a, 3).unwrap(), 42);
        assert_eq!(m.len(a).unwrap(), 8);
    }

    #[test]
    fn out_of_bounds_is_reported_with_context() {
        let mut m = GlobalMem::new();
        let a = m.alloc_array("dist", 4);
        let err = m.read(a, 4).unwrap_err();
        match err {
            SimError::OutOfBounds { array, index, len, .. } => {
                assert_eq!(array, "dist");
                assert_eq!(index, 4);
                assert_eq!(len, 4);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn bad_handle_rejected() {
        let m = GlobalMem::new();
        assert!(m.handle_from_value(-1).is_err());
        assert!(m.handle_from_value(0).is_err());
    }

    #[test]
    fn arrays_have_disjoint_segment_aligned_bases() {
        let mut m = GlobalMem::new();
        let a = m.alloc_array("a", 5);
        let b = m.alloc_array("b", 70);
        let c = m.alloc_array("c", 1);
        let ab = m.global_addr(a, 0).unwrap();
        let bb = m.global_addr(b, 0).unwrap();
        let cb = m.global_addr(c, 0).unwrap();
        assert!(ab < bb && bb < cb);
        assert_eq!(bb % 32, 0);
        assert_eq!(cb % 32, 0);
        assert!(bb >= ab + 5);
        assert!(cb >= bb + 70);
    }

    #[test]
    fn atomic_ops_return_old_values() {
        let mut m = GlobalMem::new();
        let a = m.alloc_array("a", 2);
        m.write(a, 0, 10).unwrap();
        assert_eq!(m.atomic_add(a, 0, 5).unwrap(), 10);
        assert_eq!(m.read(a, 0).unwrap(), 15);
        assert_eq!(m.atomic_min(a, 0, 7).unwrap(), 15);
        assert_eq!(m.read(a, 0).unwrap(), 7);
        assert_eq!(m.atomic_min(a, 0, 100).unwrap(), 7);
        assert_eq!(m.read(a, 0).unwrap(), 7);
        assert_eq!(m.atomic_max(a, 0, 9).unwrap(), 7);
        assert_eq!(m.read(a, 0).unwrap(), 9);
        assert_eq!(m.atomic_cas(a, 0, 9, 1).unwrap(), 9);
        assert_eq!(m.read(a, 0).unwrap(), 1);
        assert_eq!(m.atomic_cas(a, 0, 9, 2).unwrap(), 1);
        assert_eq!(m.read(a, 0).unwrap(), 1);
        assert_eq!(m.atomic_exch(a, 0, 3).unwrap(), 1);
        assert_eq!(m.read(a, 0).unwrap(), 3);
    }

    #[test]
    fn upload_checks_length() {
        let mut m = GlobalMem::new();
        let a = m.alloc_array("a", 3);
        assert!(m.upload(a, &[1, 2]).is_err());
        m.upload(a, &[1, 2, 3]).unwrap();
        assert_eq!(m.slice(a).unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn sparse_words_round_trip_and_unwritten_words_read_zero() {
        let mut m = GlobalMem::new();
        let h = m.alloc_sparse_array("__device_heap", 1 << 20);
        assert_eq!(m.read(h, 12_345).unwrap(), 0);
        m.write(h, 12_345, -7).unwrap();
        m.write(h, (1 << 20) - 1, 9).unwrap();
        assert_eq!(m.read(h, 12_345).unwrap(), -7);
        assert_eq!(m.read_validated(h, (1 << 20) - 1), 9);
        // Neighbours in a materialized page and words of pages never
        // written both read 0.
        assert_eq!(m.read(h, 12_344).unwrap(), 0);
        assert_eq!(m.read(h, 0).unwrap(), 0);
        assert_eq!(m.atomic_add(h, 12_345, 10).unwrap(), -7);
        assert_eq!(m.read(h, 12_345).unwrap(), 3);
        assert_eq!(m.sparse_pages(h), Some(2));
    }

    #[test]
    fn zero_store_into_a_missing_page_materializes_nothing() {
        let mut m = GlobalMem::new();
        let h = m.alloc_sparse_array("__device_heap", 1 << 20);
        for i in (0..1 << 20).step_by(1000) {
            m.write(h, i, 0).unwrap();
            m.write_validated(h, i + 1, 0);
        }
        assert_eq!(m.atomic_exch(h, 77, 0).unwrap(), 0);
        assert_eq!(m.sparse_pages(h), Some(0));
        // A zero into an existing page overwrites like any store.
        m.write(h, 64, 5).unwrap();
        m.write(h, 64, 0).unwrap();
        assert_eq!(m.read(h, 64).unwrap(), 0);
        assert_eq!(m.sparse_pages(h), Some(1));
    }

    #[test]
    fn sparse_addresses_and_bounds_match_a_dense_array() {
        let len = 1000;
        let mut dense = GlobalMem::new();
        let mut sparse = GlobalMem::new();
        let (d, s) = (dense.alloc_array("a", 5), sparse.alloc_array("a", 5));
        let (dh, sh) = (
            dense.alloc_array("__device_heap", len),
            sparse.alloc_sparse_array("__device_heap", len),
        );
        let (dn, sn) = (dense.alloc_array("b", 3), sparse.alloc_array("b", 3));
        assert_eq!((d, dh, dn), (s, sh, sn));
        assert_eq!(dense.base_len(dh).unwrap(), sparse.base_len(sh).unwrap());
        assert_eq!(dense.global_addr(dh, 999).unwrap(), sparse.global_addr(sh, 999).unwrap());
        assert_eq!(dense.global_addr(dn, 0).unwrap(), sparse.global_addr(sn, 0).unwrap());
        assert_eq!(dense.len(dh).unwrap(), sparse.len(sh).unwrap());
        assert_eq!(dense.sparse_pages(dh), None);

        let err = sparse.read(sh, len).unwrap_err();
        assert_eq!(err, dense.read(dh, len).unwrap_err());
        assert_eq!(
            err,
            SimError::OutOfBounds {
                array: "__device_heap".into(),
                handle: sh as i64,
                index: len as i64,
                len,
            }
        );
        assert_eq!(sparse.write(sh, len, 1).unwrap_err(), err);
        assert_eq!(sparse.global_addr(sh, len).unwrap_err(), err);
    }

    #[test]
    fn host_bulk_operations_on_a_sparse_array_are_typed_errors() {
        let mut m = GlobalMem::new();
        let h = m.alloc_sparse_array("__device_heap", 64);
        let refused = |op| SimError::SparseBulkAccess { array: "__device_heap".to_string(), op };
        assert_eq!(m.slice(h).unwrap_err(), refused("slice"));
        assert_eq!(m.upload(h, &[1; 64]).unwrap_err(), refused("upload"));
        assert_eq!(m.fill(h, 0).unwrap_err(), refused("fill"));
        // Nothing was written by the refused operations.
        assert_eq!(m.read(h, 0).unwrap(), 0);
        assert_eq!(m.sparse_pages(h), Some(0));
    }

    #[test]
    fn coalescing_counts_distinct_segments() {
        // 16-word segments: addresses 0..16 are one segment.
        let mut addrs: Vec<u64> = (0..16).collect();
        assert_eq!(coalesced_transactions(&mut addrs, 16), 1);
        // Fully scattered: one transaction per lane.
        let mut addrs: Vec<u64> = (0..32).map(|i| i * 1000).collect();
        assert_eq!(coalesced_transactions(&mut addrs, 16), 32);
        // Two segments.
        let mut addrs = vec![0, 1, 2, 17];
        assert_eq!(coalesced_transactions(&mut addrs, 16), 2);
        // Duplicates collapse.
        let mut addrs = vec![5, 5, 5, 5];
        assert_eq!(coalesced_transactions(&mut addrs, 16), 1);
        let mut empty: Vec<u64> = vec![];
        assert_eq!(coalesced_transactions(&mut empty, 16), 0);
    }
}
