//! Per-worker scratch memory reused across tasks.
//!
//! Some task processors need a short-lived buffer whose size depends on the
//! task (k-core's h-index operator needs a counting buffer of `degree + 1`
//! slots, for example).  Allocating it per task puts `malloc`/`free` on the
//! hot path of every hub vertex; a [`Scratch`] value owned by the worker
//! thread and passed into every `process` call amortizes that to one
//! allocation per worker per high-water mark.
//!
//! Every worker of the resident worker pool owns one `Scratch` and threads
//! it through the processing closure; the value survives across *jobs*, so
//! a long-running service reaches its steady-state allocation footprint
//! after the first few jobs.
//!
//! Besides the fixed counting buffer, `Scratch` parks arbitrary **typed
//! vectors** between uses ([`take_vec`](Scratch::take_vec) /
//! [`put_vec`](Scratch::put_vec)): the batching worker loop stores its
//! follow-up sink buffer and its batch-pop buffer here, so their capacity
//! survives across tasks — and, on a resident pool, across whole jobs —
//! without a per-job reallocation.

use std::any::Any;

/// Reusable per-worker scratch buffers.
///
/// Buffers are grow-only: requesting a larger buffer than any previous call
/// reallocates once, and every later request reuses that capacity.
#[derive(Default)]
pub struct Scratch {
    counts_u32: Vec<u32>,
    /// Parked typed buffers: each slot holds one empty `Vec<T>` (capacity
    /// retained) behind `Any`; `take_vec` hands a matching slot back out.
    vec_slots: Vec<Box<dyn Any + Send>>,
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scratch")
            .field("counting_capacity", &self.counts_u32.capacity())
            .field("parked_vecs", &self.vec_slots.len())
            .finish()
    }
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

    /// Takes a reusable empty `Vec<T>` out of the scratch arena.
    ///
    /// Returns a previously [`put_vec`](Self::put_vec)-parked vector of the
    /// same element type (empty, capacity retained) when one is available,
    /// or a fresh empty vector otherwise.  Pair every `take_vec` with a
    /// `put_vec` once the buffer is no longer needed so the capacity keeps
    /// circulating; forgetting to return one only costs the reuse, never
    /// correctness.
    pub fn take_vec<T: Send + 'static>(&mut self) -> Vec<T> {
        for i in 0..self.vec_slots.len() {
            if self.vec_slots[i].is::<Vec<T>>() {
                let slot = self.vec_slots.swap_remove(i);
                return *slot.downcast::<Vec<T>>().expect("type checked above");
            }
        }
        Vec::new()
    }

    /// Parks `vec` for a later [`take_vec`](Self::take_vec) of the same
    /// element type.  The vector is cleared (elements dropped); only its
    /// capacity is retained.
    pub fn put_vec<T: Send + 'static>(&mut self, mut vec: Vec<T>) {
        vec.clear();
        self.vec_slots.push(Box::new(vec));
    }

    /// Number of typed vectors currently parked (diagnostics).
    pub fn parked_vecs(&self) -> usize {
        self.vec_slots.len()
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

    #[test]
    fn take_put_round_trip_retains_capacity() {
        let mut scratch = Scratch::new();
        let mut v: Vec<u64> = scratch.take_vec();
        assert!(v.is_empty());
        v.reserve(128);
        let cap = v.capacity();
        v.push(7);
        scratch.put_vec(v);
        assert_eq!(scratch.parked_vecs(), 1);
        let v: Vec<u64> = scratch.take_vec();
        assert!(v.is_empty(), "parked vectors come back cleared");
        assert_eq!(v.capacity(), cap, "capacity survives the round trip");
        assert_eq!(scratch.parked_vecs(), 0);
    }

    #[test]
    fn slots_are_typed() {
        let mut scratch = Scratch::new();
        let mut a: Vec<u64> = scratch.take_vec();
        a.reserve(16);
        scratch.put_vec(a);
        // A different element type gets a fresh vector, not the u64 slot.
        let b: Vec<(u32, u32)> = scratch.take_vec();
        assert_eq!(b.capacity(), 0);
        scratch.put_vec(b);
        assert_eq!(scratch.parked_vecs(), 2);
        // The u64 slot is still there.
        let a: Vec<u64> = scratch.take_vec();
        assert!(a.capacity() >= 16);
    }

    #[test]
    fn two_buffers_of_the_same_type_coexist() {
        // The worker loop parks two task vectors (sink + pop buffer); both
        // must survive independently.
        let mut scratch = Scratch::new();
        let mut a: Vec<u64> = Vec::with_capacity(8);
        let mut b: Vec<u64> = Vec::with_capacity(32);
        a.push(1);
        b.push(2);
        scratch.put_vec(a);
        scratch.put_vec(b);
        let x: Vec<u64> = scratch.take_vec();
        let y: Vec<u64> = scratch.take_vec();
        let mut caps = [x.capacity(), y.capacity()];
        caps.sort_unstable();
        assert!(caps[0] >= 8 && caps[1] >= 32);
        let z: Vec<u64> = scratch.take_vec();
        assert_eq!(z.capacity(), 0, "only two were parked");
    }
}
