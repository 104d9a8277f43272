//! Simulated GPU global memory.
//!
//! Memory is organized as named arrays of 64-bit words. Kernels address memory
//! through `(ArrayId, index)` pairs; every array also has a stable *global
//! word address* so that accesses from different arrays can be coalesced
//! against each other exactly like addresses in a flat device address space.

use crate::SimError;

/// Handle to an array in global memory. Kernels pass these around as plain
/// `i64` scalar values (like device pointers).
pub type ArrayId = usize;

#[derive(Debug, Clone)]
struct Array {
    label: String,
    base: u64,
    data: Vec<i64>,
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

    /// Allocate a zero-initialized array of `len` words.
    ///
    /// `vec![0; len]` takes zeroed pages straight from the OS, so a page is
    /// faulted in (and counts towards RSS) only when it is first touched.
    /// Large, sparsely used arrays — the 4 M-word consolidation pool above
    /// all — rely on this: allocating them is O(1), and a host that never
    /// fills them never pays for their size.
    pub fn alloc_array(&mut self, label: &str, len: usize) -> ArrayId {
        self.alloc_array_init(label, vec![0; len])
    }

    /// Allocate an array with the given initial contents.
    pub fn alloc_array_init(&mut self, label: &str, data: Vec<i64>) -> ArrayId {
        let id = self.arrays.len();
        let base = self.next_base;
        // Pad bases to a segment boundary so distinct arrays never share a
        // coalescing segment.
        self.next_base = base + (data.len() as u64).div_ceil(32).max(1) * 32;
        self.arrays.push(Array { label: label.to_string(), base, data });
        id
    }

    pub fn len(&self, id: ArrayId) -> Result<usize, SimError> {
        Ok(self.array(id)?.data.len())
    }

    pub fn is_empty(&self, id: ArrayId) -> Result<bool, SimError> {
        Ok(self.len(id)? == 0)
    }

    pub fn label(&self, id: ArrayId) -> Result<&str, SimError> {
        Ok(&self.array(id)?.label)
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
        if idx >= a.data.len() {
            return Err(SimError::OutOfBounds {
                array: a.label.clone(),
                handle: id as i64,
                index: idx as i64,
                len: a.data.len(),
            });
        }
        Ok(())
    }

    pub fn read(&self, id: ArrayId, idx: usize) -> Result<i64, SimError> {
        let a = self.array(id)?;
        self.check_idx(a, id, idx)?;
        Ok(a.data[idx])
    }

    pub fn write(&mut self, id: ArrayId, idx: usize, v: i64) -> Result<(), SimError> {
        let a = self.array(id)?;
        self.check_idx(a, id, idx)?;
        self.arrays[id].data[idx] = v;
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
        Ok((a.base, a.data.len()))
    }

    /// Direct read of a location already validated through
    /// [`Self::global_addr`]: the bytecode VM resolves every lane's
    /// `(array, index)` pair once while accounting coalescing cost and
    /// reuses the pair here, skipping a second handle/bounds `Result`
    /// round-trip per lane. Panics on an unvalidated pair — callers uphold
    /// validation by construction.
    #[inline]
    pub fn read_validated(&self, id: ArrayId, idx: usize) -> i64 {
        self.arrays[id].data[idx]
    }

    /// Direct write counterpart of [`Self::read_validated`].
    #[inline]
    pub fn write_validated(&mut self, id: ArrayId, idx: usize, v: i64) {
        self.arrays[id].data[idx] = v;
    }

    /// Borrow an array's contents (host-side readback).
    pub fn slice(&self, id: ArrayId) -> Result<&[i64], SimError> {
        Ok(&self.array(id)?.data)
    }

    /// Overwrite an array's contents (host-side upload). Length must match.
    pub fn upload(&mut self, id: ArrayId, data: &[i64]) -> Result<(), SimError> {
        let a = self.array_mut(id)?;
        if a.data.len() != data.len() {
            return Err(SimError::UploadSizeMismatch {
                array: a.label.clone(),
                expected: a.data.len(),
                got: data.len(),
            });
        }
        a.data.copy_from_slice(data);
        Ok(())
    }

    pub fn fill(&mut self, id: ArrayId, v: i64) -> Result<(), SimError> {
        let a = self.array_mut(id)?;
        a.data.fill(v);
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
