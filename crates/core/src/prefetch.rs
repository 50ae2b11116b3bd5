//! A safe cache-prefetch hint.
//!
//! The worker loop pops a batch of tasks and knows, before it processes the
//! first, which vertices the rest will touch.  [`prefetch_read`] lets a
//! workload ask for those cache lines early so the misses overlap with the
//! processing of earlier tasks instead of serializing behind it.

/// Hints that `slice[index]` will be read soon: asks the CPU to pull the
/// cache line holding it towards L1.
///
/// A hint only.  It reads nothing the program can observe, never faults,
/// and does nothing when `index` is out of range, on targets where std has
/// no stable prefetch, and under Miri — so it may be called with any
/// arguments and dropped without changing behaviour.
#[inline(always)]
pub fn prefetch_read<T>(slice: &[T], index: usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if let Some(slot) = slice.get(index) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: `_mm_prefetch` is available on every x86-64 CPU (SSE),
        // performs no architecturally visible access and cannot fault; the
        // address is that of a live element of `slice`.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(slot).cast::<i8>()) }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = (slice, index);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_any_index_and_changes_nothing() {
        let data: Vec<u64> = (0..100).collect();
        for index in [0, 1, 63, 99, 100, usize::MAX] {
            prefetch_read(&data, index);
        }
        prefetch_read::<u64>(&[], 0);
        prefetch_read(&[(); 4], 2);
        assert!(data.iter().copied().eq(0..100));
    }
}
