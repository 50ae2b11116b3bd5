//! A sequential 4-ary min-heap.
//!
//! Section 4 of the paper reports that sequential *d*-ary heaps with
//! `d = 4` and an attached stealing buffer consistently outperform
//! skip-list local queues, so this is the default local queue of the
//! Stealing Multi-Queue and every sub-queue of the Multi-Queue.  A wider node
//! fan-out than the binary heap trades a slightly more expensive walk down
//! (three comparisons per level) for a shallower tree and fewer cache misses
//! — exactly the trade the paper's workloads (millions of 16-byte tasks)
//! want.  The fan-out is [`ARITY`], fixed at compile time: no scheduler and
//! no figure of the paper runs another.
//!
//! The heap is deliberately *sequential*: all synchronization lives outside,
//! either in the per-queue lock of the classic Multi-Queue or in the
//! epoch-stamped stealing buffer of the SMQ.  Its elements are `Copy` (every
//! scheduler stores `Task`s or plain integers), which lets the whole kernel
//! be safe code.
//!
//! # The sift kernel
//!
//! Every scheduler in the workspace spends most of its time in `push` and
//! `pop` of this type, so the two sift loops are written the way
//! `std::collections::BinaryHeap` writes them, widened to four children:
//!
//! * **Hole.**  The element being sifted is copied out of the array into a
//!   `Hole` and each level copies one element into the vacated slot (one
//!   16-byte copy for a `Task`) instead of swapping two.  The vacated slot
//!   keeps a stale copy until it is overwritten, and the hole's `Drop`
//!   writes the sifted element back over it, so even when a comparison
//!   panics every element is in the array exactly once.  (The order may then
//!   no longer be a heap order: a logic error of the panicking `Ord`.)
//! * **Child selection.**  Which child is the smallest is close to a coin
//!   toss, so the kernel does not branch on it.  A node's four children come
//!   out of the array as one `&[T; 4]`, one bounds check, and `min_child`
//!   plays two pairs, which do not depend on each other, each adding the
//!   outcome of one comparison to the first child's index, and a final
//!   between their winners decided with `select_unpredictable`: two
//!   comparisons deep, where a left-to-right scan chains three through its
//!   running best.  The one node of a heap that may have fewer than four
//!   children scans.  Both return the leftmost of equal children.
//! * **Pop** is a bottom-up deletion.  The last element goes into a hole
//!   opened at the root (it is never written to slot 0 first), but the hole
//!   then walks down to a leaf along the smallest children *without*
//!   looking at that element, and the element is sifted up from there.  It
//!   came from the bottom and almost always belongs there, so the sift-up
//!   is short, a level of the walk costs three comparisons instead of four,
//!   and the walk has no exit for the processor to mispredict.  The array
//!   ends up as an early-exit sift-down would leave it, so the pop order is
//!   the same.
//! * **Prefetch.**  A walk that does not branch on the data leaves the
//!   processor nothing to guess, so it does not run ahead into the next
//!   level the way it would on a predicted branch.  That costs nothing
//!   while the heap sits in its owner's first-level cache, but the lines of
//!   a larger one come from further away (a Multi-Queue sub-queue's usually
//!   from another core's cache) and the misses of successive levels would
//!   queue up behind each other.  The walk therefore requests a node's
//!   sixteen grandchildren before it chooses among the children: one bounds
//!   check on the run, then one [`smq_core::prefetch_read`] per cache line
//!   at constant offsets (a no-op off x86-64), cheap enough to issue at
//!   every heap size.
//! * **Bulk load.**  `extend` appends and then either sifts the new tail up
//!   element by element or, when the tail is at least as long as the heap
//!   it joins, rebuilds the whole array bottom-up in O(n).  The rebuild
//!   sifts elements that may belong anywhere, so it uses `sift_down`, which
//!   compares against the element and stops as soon as it fits; it shares
//!   the child selection with the walk of `pop`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::hint::select_unpredictable;

use smq_core::prefetch_read;

/// The heap's fan-out: every node has up to four children, the `d = 4` of
/// the paper's implementation.
pub const ARITY: usize = 4;

/// Most bytes `descend` requests ahead per level: all sixteen grandchildren
/// of a node of 16-byte tasks, fewer of a larger element type.
const PREFETCH_BYTES: usize = 512;

/// Bytes per cache line, the stride of the prefetch.
const LINE: usize = 64;

/// A sequential 4-ary min-heap over any totally ordered `Copy` type.
///
/// Smaller elements are popped first, matching the paper's "lower key =
/// higher priority" convention (`smq_core::Task` orders by priority key).
#[derive(Debug, Clone)]
pub struct DAryHeap<T> {
    data: Vec<T>,
}

/// The position in `children`, the four children of one node, of the
/// smallest, the leftmost one among equals.
///
/// A tournament: the two pairs do not depend on each other, so four children
/// are two comparisons deep where a scan's running best chains three.  Every
/// position is a constant plus comparison outcomes, so the indexing below
/// compiles without bounds checks.
#[inline(always)]
fn min_child<T: Ord>(children: &[T; ARITY]) -> usize {
    let pair = |i: usize| i + usize::from(children[i + 1] < children[i]);
    // Which side wins is close to a coin toss.  Without the hint LLVM turns
    // this select into a branch, and it mispredicts about once per level.
    let duel = |left: usize, right: usize| {
        select_unpredictable(children[right] < children[left], right, left)
    };
    duel(pair(0), pair(2))
}

/// The position of the smallest of `children` (not empty), the leftmost one
/// among equals, by a left-to-right scan that selects instead of branching.
#[inline(always)]
fn scan<T: Ord>(children: &[T]) -> usize {
    let mut best = (0, &children[0]);
    for candidate in children.iter().enumerate().skip(1) {
        best = select_unpredictable(candidate.1 < best.1, candidate, best);
    }
    best.0
}

/// The four children `data[first..first + 4]` of one node, if it has all
/// four.
#[inline(always)]
fn all_children<T>(data: &[T], first: usize) -> Option<&[T; ARITY]> {
    data.get(first..)?.first_chunk()
}

/// The index and the value of the smallest child of the node whose first
/// child would be `data[first]`, the leftmost one among equals; `None` for a
/// leaf.
#[inline(always)]
fn smallest_child<T: Ord + Copy>(data: &[T], first: usize) -> Option<(usize, T)> {
    if let Some(children) = all_children(data, first) {
        let best = min_child(children);
        return Some((first + best, children[best]));
    }
    let children = data.get(first..).filter(|run| !run.is_empty())?;
    let best = scan(children);
    Some((first + best, children[best]))
}

/// One slot of `data`, `data[pos]`, whose element has been copied out into
/// `elt`; the slot itself holds a stale copy until something overwrites it.
/// Dropping the hole writes `elt` back, so however the hole goes away —
/// normally or because a comparison panicked — every element is in `data`
/// exactly once.
struct Hole<'a, T: Copy> {
    data: &'a mut [T],
    elt: T,
    pos: usize,
}

impl<'a, T: Copy> Hole<'a, T> {
    /// Copies `data[pos]` out of the slice.
    #[inline]
    fn new(data: &'a mut [T], pos: usize) -> Self {
        let elt = data[pos];
        Hole { data, elt, pos }
    }

    /// Copies `value`, the element at `index`, into the hole, which moves to
    /// `index`.
    #[inline(always)]
    fn fill_from(&mut self, index: usize, value: T) {
        self.data[self.pos] = value;
        self.pos = index;
    }
}

impl<T: Copy> Drop for Hole<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // `pos` is in bounds; `get_mut` keeps a panic path out of `drop`.
        if let Some(slot) = self.data.get_mut(self.pos) {
            *slot = self.elt;
        }
    }
}

/// Asks for the cache lines that hold the first `count` elements of
/// `data[start..]`, or as many of them as there are.
#[inline(always)]
fn prefetch_run<T>(data: &[T], start: usize, count: usize) {
    let Some(rest) = data.get(start..) else {
        return;
    };
    // Two calls, not one on the shorter of the two: a whole run, the usual
    // case, then has a constant length, and its loop becomes a handful of
    // prefetches with nothing to compute or branch on.
    match rest.get(..count) {
        Some(run) => prefetch_lines(run),
        None => prefetch_lines(rest),
    }
}

/// Asks for every cache line in which an element of `run` starts: one
/// element per line, then the last, which may start a line past the last
/// stride (a grandchild run of 16-byte tasks never starts on a line).
#[inline(always)]
fn prefetch_lines<T>(run: &[T]) {
    let step = (LINE / size_of::<T>().max(1)).max(1);
    let mut index = 0;
    while index < run.len() {
        prefetch_read(run, index);
        index += step;
    }
    prefetch_read(run, run.len().wrapping_sub(1));
}

/// Sifts the hole's element towards the root until its parent is no
/// greater.
#[inline]
fn sift_up<T: Ord + Copy>(mut hole: Hole<'_, T>) {
    while hole.pos > 0 {
        let parent = (hole.pos - 1) / ARITY;
        let above = hole.data[parent];
        if hole.elt >= above {
            break;
        }
        hole.fill_from(parent, above);
    }
}

/// Walks the hole from its node down to a leaf, each level moving the
/// smallest child up, and returns it there.  The hole's own element is
/// never looked at: `pop` hands in the heap's last element, which belongs
/// near the bottom, so a level costs three comparisons instead of four and
/// the walk has no exit that depends on the data.  The caller sifts the
/// element back up the few levels it overshot.
#[inline]
fn descend<T: Ord + Copy>(mut hole: Hole<'_, T>) -> Hole<'_, T> {
    let run = (ARITY * ARITY).min(PREFETCH_BYTES / size_of::<T>().max(1));
    let mut first = ARITY * hole.pos + 1;
    while let Some(children) = all_children(hole.data, first) {
        // A walk that does not branch on the data leaves the processor
        // nothing to guess, so it cannot run ahead into the next level.
        // Request the grandchildren before choosing a child, so that the
        // misses of successive levels (a Multi-Queue sub-queue's lines are
        // usually in another core's cache) overlap as they did under
        // speculation.  Wraps only past 2^62 elements, and then is a wasted
        // hint, no more.
        prefetch_run(hole.data, first.wrapping_mul(ARITY).wrapping_add(1), run);
        let best = min_child(children);
        let value = children[best];
        hole.fill_from(first + best, value);
        first = ARITY * hole.pos + 1;
    }
    // The one node that may have some but not all four children.
    if let Some((best, value)) = smallest_child(hole.data, first) {
        hole.fill_from(best, value);
    }
    hole
}

/// Sifts the hole's element towards the leaves until no child is smaller.
/// For an element that may belong anywhere (the bottom-up rebuild): unlike
/// [`descend`] it stops as soon as the element fits.
#[inline]
fn sift_down<T: Ord + Copy>(mut hole: Hole<'_, T>) {
    while let Some((best, value)) = smallest_child(hole.data, ARITY * hole.pos + 1) {
        if hole.elt <= value {
            return;
        }
        hole.fill_from(best, value);
    }
}

/// Restores the heap order of `heap.data[start..]` against the valid heap
/// before it when dropped, so that `extend` leaves a heap behind even when
/// the iterator it consumes panics.
struct RebuildOnDrop<'a, T: Ord + Copy> {
    heap: &'a mut DAryHeap<T>,
    start: usize,
}

impl<T: Ord + Copy> Drop for RebuildOnDrop<'_, T> {
    fn drop(&mut self) {
        self.heap.rebuild_tail(self.start);
    }
}

impl<T: Ord + Copy> Default for DAryHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Copy> DAryHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self { data: Vec::new() }
    }

    /// Creates an empty heap with pre-allocated capacity.
    ///
    /// # Panics
    /// Panics unless `arity == ARITY`.  The argument is a shim kept for
    /// `benchmark/src/hold.rs`, which passes `SmqConfig::heap_arity`; ROADMAP
    /// item 1(i) removes it.
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        assert_eq!(
            arity, ARITY,
            "the d-ary heap is {ARITY}-ary by construction (`arity` is a benchmark shim, ROADMAP item 1(i))"
        );
        Self {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Number of elements currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the heap holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Removes all elements, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Returns a reference to the minimum element, if any.
    #[inline]
    pub fn peek(&self) -> Option<&T> {
        self.data.first()
    }

    /// Inserts an element.
    pub fn push(&mut self, item: T) {
        let pos = self.data.len();
        self.data.push(item);
        sift_up(Hole::new(&mut self.data, pos));
    }

    /// Removes and returns the minimum element, if any.
    pub fn pop(&mut self) -> Option<T> {
        let last = self.data.pop()?;
        let Some(&min) = self.data.first() else {
            return Some(last);
        };
        // The last element fills the root's hole; slot 0 keeps a stale copy
        // of the minimum until the walk overwrites it.
        let hole = Hole {
            data: &mut self.data,
            elt: last,
            pos: 0,
        };
        sift_up(descend(hole));
        Some(min)
    }

    /// Pops up to `k` smallest elements, in ascending order, appending them
    /// to `out`.  Returns how many elements were moved.
    ///
    /// This is the `extractTopB()` / buffer-refill primitive of Listings 3
    /// and 4: the SMQ moves the top `STEAL_SIZE` tasks from the local heap
    /// into the stealing buffer in one step.
    pub fn pop_batch_into(&mut self, k: usize, out: &mut Vec<T>) -> usize {
        let mut moved = 0;
        while moved < k {
            match self.pop() {
                Some(item) => {
                    out.push(item);
                    moved += 1;
                }
                None => break,
            }
        }
        moved
    }

    /// Inserts every element of `items` (bulk insert used by the Multi-Queue
    /// batch inserts and by "un-stealing" returned buffers).
    ///
    /// A run shorter than the heap it joins costs one sift-up per element;
    /// a longer one (loading an empty heap, above all) is appended and the
    /// heap rebuilt bottom-up in O(n).  The pop order is the same either
    /// way.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        let guard = RebuildOnDrop {
            start: self.data.len(),
            heap: self,
        };
        guard.heap.data.extend(items);
    }

    /// Makes `data` a heap again, given that `data[..start]` is one.
    fn rebuild_tail(&mut self, start: usize) {
        let len = self.data.len();
        let data = &mut self.data[..];
        if len < 2 {
            return;
        }
        if len - start >= start {
            // Every node that has a child, deepest first.
            for pos in (0..=(len - 2) / ARITY).rev() {
                sift_down(Hole::new(data, pos));
            }
        } else {
            for pos in start..len {
                sift_up(Hole::new(data, pos));
            }
        }
    }

    /// Consumes the heap and returns its elements in ascending order.
    pub fn into_sorted_vec(mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        while let Some(item) = self.pop() {
            out.push(item);
        }
        out
    }

    /// Iterates over the elements in unspecified (heap) order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.data.iter()
    }

    /// Verifies the heap invariant (every child >= its parent).  Intended
    /// for tests and debug assertions only; O(n).
    pub fn assert_heap_property(&self) {
        for idx in 1..self.data.len() {
            let parent = (idx - 1) / ARITY;
            assert!(
                self.data[parent] <= self.data[idx],
                "heap property violated at index {idx}"
            );
        }
    }
}

impl<T: Ord + Copy> FromIterator<T> for DAryHeap<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut heap = DAryHeap::new();
        heap.extend(iter);
        heap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smq_core::Task;
    use std::cell::Cell;
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn empty_heap_behaviour() {
        let mut h: DAryHeap<u64> = DAryHeap::default();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek(), None);
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn pops_in_ascending_order() {
        let mut h = DAryHeap::new();
        for v in [9u64, 4, 7, 1, 8, 2, 3, 6, 5, 0] {
            h.push(v);
        }
        let sorted: Vec<u64> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(sorted, (0..10).collect::<Vec<u64>>());
    }

    #[test]
    fn pop_batch_returns_smallest_prefix() {
        let mut h: DAryHeap<u64> = (0..100u64).rev().collect();
        let mut out = Vec::new();
        let moved = h.pop_batch_into(10, &mut out);
        assert_eq!(moved, 10);
        assert_eq!(out, (0..10).collect::<Vec<u64>>());
        assert_eq!(h.len(), 90);
        assert_eq!(h.peek(), Some(&10));
    }

    #[test]
    fn pop_batch_drains_short_heap() {
        let mut h: DAryHeap<u64> = [3u64, 1, 2].into_iter().collect();
        let mut out = Vec::new();
        let moved = h.pop_batch_into(10, &mut out);
        assert_eq!(moved, 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert!(h.is_empty());
    }

    #[test]
    fn duplicates_are_preserved() {
        let mut h = DAryHeap::default();
        for v in [5u64, 5, 5, 1, 1] {
            h.push(v);
        }
        assert_eq!(h.into_sorted_vec(), vec![1, 1, 5, 5, 5]);
    }

    #[test]
    fn clear_keeps_heap_usable() {
        let mut h: DAryHeap<u64> = (0..16u64).collect();
        h.clear();
        assert!(h.is_empty());
        h.push(3);
        h.push(1);
        assert_eq!(h.pop(), Some(1));
    }

    #[test]
    fn works_with_task_type() {
        let mut h = DAryHeap::default();
        h.push(Task::new(10, 1));
        h.push(Task::new(2, 2));
        h.push(Task::new(7, 3));
        assert_eq!(h.pop(), Some(Task::new(2, 2)));
        assert_eq!(h.peek(), Some(&Task::new(7, 3)));
    }

    thread_local! {
        /// Comparisons of [`Key`]s left before the next one panics; `None`
        /// is disarmed.
        static COUNTDOWN: Cell<Option<u32>> = const { Cell::new(None) };
        /// Comparisons of [`Key`]s made on this thread.
        static COMPARISONS: Cell<u32> = const { Cell::new(0) };
    }

    /// A `Copy` key whose comparisons are counted and panic once this
    /// thread's countdown reaches zero.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Key(u32);

    impl Ord for Key {
        fn cmp(&self, other: &Self) -> Ordering {
            COMPARISONS.set(COMPARISONS.get() + 1);
            match COUNTDOWN.get() {
                Some(0) => {
                    COUNTDOWN.set(None);
                    panic!("comparison fuse blown");
                }
                Some(n) => COUNTDOWN.set(Some(n - 1)),
                None => {}
            }
            self.0.cmp(&other.0)
        }
    }

    impl PartialOrd for Key {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// A heap of the keys `1..=len`: the array is a heap as it stands and
    /// its last element is the largest, so a pop walks its hole to a leaf
    /// and the sift-up that follows ends at its first comparison.
    fn ascending_keys(len: u32) -> DAryHeap<Key> {
        (1..=len).map(Key).collect()
    }

    /// How many comparisons `op` makes on the heap of [`ascending_keys`].
    fn comparisons_of(len: u32, op: impl FnOnce(&mut DAryHeap<Key>)) -> u32 {
        let mut heap = ascending_keys(len);
        COMPARISONS.set(0);
        op(&mut heap);
        COMPARISONS.get()
    }

    /// Runs `op` on the 200-key heap of [`ascending_keys`] with comparison
    /// number `blow_at` set to panic.  Afterwards the heap must hold exactly
    /// `expected`, the keys `op` leaves behind when it completes, each once.
    fn blow_during(
        blow_at: u32,
        expected: impl IntoIterator<Item = u32>,
        op: impl FnOnce(&mut DAryHeap<Key>),
    ) {
        let mut heap = ascending_keys(200);
        COUNTDOWN.set(Some(blow_at));
        let outcome = catch_unwind(AssertUnwindSafe(|| op(&mut heap)));
        assert!(outcome.is_err(), "no comparison {blow_at}");

        // Nothing lost, nothing duplicated ...
        let mut held: Vec<u32> = heap.iter().map(|key| key.0).collect();
        held.sort_unstable();
        let mut expected: Vec<u32> = expected.into_iter().collect();
        expected.sort_unstable();
        assert_eq!(held, expected, "blown at comparison {blow_at}");
        // ... and usable again: it pops every key, and once emptied it
        // orders new ones.
        let drained = std::iter::from_fn(|| heap.pop()).count();
        assert_eq!(drained, expected.len());
        heap.extend([5, 3, 9, 1].map(Key));
        assert_eq!(heap.into_sorted_vec(), [1, 3, 5, 9].map(Key));
    }

    #[test]
    fn panicking_comparison_neither_loses_nor_duplicates_a_key() {
        for blow_at in 0..6 {
            // A push that climbs to the root from slot 200: four levels, so
            // all four of its comparisons are certain.
            blow_during(blow_at % 4, 0..=200, |heap| heap.push(Key(0)));
            // A run long enough to rebuild the whole heap bottom-up.
            blow_during(blow_at, (1..=200).chain(0..400), |heap| {
                heap.extend((0..400).map(Key));
            });
        }
        // Every comparison of a pop: the first ones are made by the walk to
        // a leaf, the last one by the sift-up from there.  The minimum has
        // left the heap before the first.
        let walk_and_sift_up = comparisons_of(200, |heap| {
            heap.pop();
        });
        assert!(walk_and_sift_up >= 4, "{walk_and_sift_up}");
        for blow_at in 0..walk_and_sift_up {
            blow_during(blow_at, 2..=200, |heap| {
                heap.pop();
            });
        }
    }

    #[test]
    fn pop_walks_down_without_comparing_the_sinking_element() {
        // A complete 4-ary tree of six levels plus one element, the largest.
        // Popping sinks the hole through five levels of four children each:
        // three comparisons a level pick the child, and the element that
        // came from the bottom is compared once, on the way back up.  A
        // sift-down that asks at every level whether the element fits yet
        // spends a fourth: 20 on this heap.
        let (levels, complete) = (5, (4u32.pow(6) - 1) / 3);
        let spent = comparisons_of(complete + 1, |heap| {
            assert_eq!(heap.pop(), Some(Key(1)));
        });
        assert!(spent <= 3 * levels + 1, "{spent} comparisons");
    }

    /// Replays `ops` on a heap and on `std::collections::BinaryHeap`.  Each
    /// op is `(code, operands)`.  Both start out holding `resident`, and hold
    /// it again after a `clear`.
    fn differential<T: Ord + Copy + std::fmt::Debug>(ops: &[(u8, Vec<T>)], resident: &[T]) {
        let mut heap = DAryHeap::new();
        let mut reference = BinaryHeap::new();
        let reference_pop =
            |reference: &mut BinaryHeap<Reverse<T>>| reference.pop().map(|Reverse(v)| v);
        let load = |heap: &mut DAryHeap<T>, reference: &mut BinaryHeap<Reverse<T>>| {
            heap.extend(resident.iter().cloned());
            reference.extend(resident.iter().cloned().map(Reverse));
        };
        load(&mut heap, &mut reference);
        for (code, operands) in ops {
            match code {
                0..=11 => {
                    if let Some(v) = operands.first() {
                        heap.push(*v);
                        reference.push(Reverse(*v));
                    }
                }
                12..=19 => assert_eq!(heap.pop(), reference_pop(&mut reference)),
                20..=23 => {
                    let mut out = Vec::new();
                    let moved = heap.pop_batch_into(operands.len(), &mut out);
                    let expected: Vec<T> = (0..operands.len())
                        .map_while(|_| reference_pop(&mut reference))
                        .collect();
                    assert_eq!(moved, expected.len());
                    assert_eq!(out, expected);
                }
                24..=30 => {
                    heap.extend(operands.iter().cloned());
                    reference.extend(operands.iter().cloned().map(Reverse));
                }
                _ => {
                    heap.clear();
                    reference.clear();
                    load(&mut heap, &mut reference);
                }
            }
            // O(n): after every op on a heap of these few operands, once at
            // the end on one that also holds thousands of residents.
            if resident.is_empty() {
                heap.assert_heap_property();
            }
            assert_eq!(heap.len(), reference.len());
            assert_eq!(heap.peek(), reference.peek().map(|Reverse(v)| v));
        }
        heap.assert_heap_property();
        let rest: Vec<T> = std::iter::from_fn(|| reference_pop(&mut reference)).collect();
        assert_eq!(heap.into_sorted_vec(), rest);
    }

    /// Pushes `values` one by one, then pops everything.
    fn heap_sort(values: &[u32]) -> Vec<u32> {
        let mut heap = DAryHeap::new();
        for &v in values {
            heap.push(v);
            heap.assert_heap_property();
        }
        heap.into_sorted_vec()
    }

    /// Loads `values` in bulk and pops `k` of them in one batch.
    fn check_pop_batch(values: &[u32], k: usize) {
        let mut heap: DAryHeap<u32> = values.iter().copied().collect();
        let mut expected = values.to_vec();
        expected.sort_unstable();
        let mut out = Vec::new();
        let moved = heap.pop_batch_into(k, &mut out);
        assert_eq!(moved, k.min(values.len()));
        assert_eq!(&out[..], &expected[..moved]);
        heap.assert_heap_property();
        assert_eq!(heap.len(), values.len() - moved);
    }

    fn tasks(ops: Vec<(u8, Vec<(u64, u64)>)>) -> Vec<(u8, Vec<Task>)> {
        ops.into_iter()
            .map(|(code, run)| {
                (
                    code,
                    run.into_iter().map(|(k, v)| Task::new(k, v)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn boundary_lengths_and_duplicate_heavy_inputs_sort() {
        let d = ARITY;
        // One element, a root with one child, with its last child, the first
        // grandchild, the second, and the first great-grandchild; each pop on
        // the way down to empty passes the lengths between.
        for len in [1, 2, d, d + 1, d + 2, d * d + 1] {
            let inputs: [(&str, Vec<u32>); 5] = [
                ("all equal", vec![7; len]),
                ("three values", (0..len as u32).map(|i| i * 7 % 3).collect()),
                ("ascending", (0..len as u32).collect()),
                ("descending", (0..len as u32).rev().collect()),
                (
                    "mixed",
                    (0..len as u32)
                        .map(|i| i.wrapping_mul(0x9E37_79B9) >> 8)
                        .collect(),
                ),
            ];
            for (name, values) in inputs {
                let mut sorted = values.clone();
                sorted.sort_unstable();
                assert_eq!(heap_sort(&values), sorted, "{len} x {name}");
                check_pop_batch(&values, len / 2 + 1);
            }
        }
    }

    proptest! {
        #[test]
        fn heap_sort_matches_std_sort(mut values in proptest::collection::vec(any::<u32>(), 0..512)) {
            let heap_sorted = heap_sort(&values);
            values.sort_unstable();
            prop_assert_eq!(heap_sorted, values);
        }

        #[test]
        fn interleaved_ops_match_binary_heap_u32(
            ops in proptest::collection::vec(
                (0u8..32, proptest::collection::vec(any::<u32>(), 0..24)), 1..160)
        ) {
            differential(&ops, &[]);
        }

        #[test]
        fn interleaved_ops_match_binary_heap_task(
            ops in proptest::collection::vec(
                (0u8..32, proptest::collection::vec((0u64..64, any::<u64>()), 0..24)), 1..160)
        ) {
            // Few distinct keys, so the payload tie-break decides often.
            differential(&tasks(ops), &[]);
        }

        #[test]
        fn interleaved_ops_match_binary_heap_task_on_a_large_heap(
            ops in proptest::collection::vec(
                (0u8..32, proptest::collection::vec((0u64..64, any::<u64>()), 0..24)), 1..48)
        ) {
            // Seven levels, several more than the few dozen elements the ops
            // alone build up, so the walk of `pop` asks for grandchildren
            // that are all there, that lie partly past the end and that lie
            // wholly past it.
            let resident: Vec<Task> = (1..=1500u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .map(|v| Task::new(v >> 58, v))
                .collect();
            differential(&tasks(ops), &resident);
        }

        #[test]
        fn pop_batch_is_prefix_of_sorted(values in proptest::collection::vec(any::<u32>(), 0..256),
                                         k in 0usize..64) {
            check_pop_batch(&values, k);
        }
    }
}
