//! Per-worker scratch memory reused across tasks.
//!
//! Some task processors need a short-lived buffer whose size depends on the
//! task (k-core's h-index operator needs a counting buffer of `degree + 1`
//! slots, for example).  Allocating it per task puts `malloc`/`free` on the
//! hot path of every hub vertex; a [`Scratch`] value owned by the worker
//! thread and passed into every `process` call amortizes that to one
//! allocation per worker per high-water mark.
//!
//! Every worker of the resident worker pool owns one `Scratch` and passes
//! it to every `process` call; the value survives across *jobs*, so a
//! long-running service reaches its steady-state allocation footprint after
//! the first few jobs.

/// Reusable per-worker scratch buffers.
///
/// Buffers are grow-only: requesting a larger buffer than any previous call
/// reallocates once, and every later request reuses that capacity.
#[derive(Debug, Default)]
pub struct Scratch {
    counts_u32: Vec<u32>,
}

impl Scratch {
    /// A scratch value with no capacity reserved yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed `u32` counting buffer of exactly `len` slots.
    ///
    /// The buffer contents do not survive across calls: every call re-zeroes
    /// the requested prefix (a `memset`, not an allocation, once the
    /// high-water capacity is reached).
    pub fn counting_u32(&mut self, len: usize) -> &mut [u32] {
        self.counts_u32.clear();
        self.counts_u32.resize(len, 0);
        &mut self.counts_u32[..]
    }

    /// Capacity currently retained by the counting buffer (diagnostics).
    pub fn counting_capacity(&self) -> usize {
        self.counts_u32.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_buffer_is_zeroed_and_sized() {
        let mut scratch = Scratch::new();
        let buf = scratch.counting_u32(4);
        assert_eq!(buf, &[0, 0, 0, 0]);
        buf[2] = 7;
        // A smaller request re-zeroes; previous writes must not leak.
        let buf = scratch.counting_u32(3);
        assert_eq!(buf, &[0, 0, 0]);
        let buf = scratch.counting_u32(8);
        assert_eq!(buf, &[0u32; 8]);
    }

    #[test]
    fn capacity_is_grow_only() {
        let mut scratch = Scratch::new();
        scratch.counting_u32(100);
        let cap = scratch.counting_capacity();
        assert!(cap >= 100);
        scratch.counting_u32(10);
        assert_eq!(scratch.counting_capacity(), cap, "shrink must not happen");
    }
}
