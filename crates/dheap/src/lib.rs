//! A sequential *d*-ary min-heap.
//!
//! Section 4 of the paper reports that sequential *d*-ary heaps (typically
//! `d = 4`) with an attached stealing buffer consistently outperform
//! skip-list local queues, so this is the default local queue of the
//! Stealing Multi-Queue.  A wider node fan-out than the binary heap trades a
//! slightly more expensive walk down (`d - 1` comparisons per level) for a
//! shallower tree and fewer cache misses — exactly the trade the paper's
//! workloads (millions of 16-byte tasks) want.
//!
//! The heap is deliberately *sequential*: all synchronization lives outside,
//! either in the per-queue lock of the classic Multi-Queue or in the
//! epoch-stamped stealing buffer of the SMQ.
//!
//! # The sift kernel
//!
//! Every scheduler in the workspace spends most of its time in `push` and
//! `pop` of this type, so the two sift loops are written the way
//! `std::collections::BinaryHeap` writes them, generalised to `d` children:
//!
//! * **Hole.**  The element being sifted is lifted out of the array into a
//!   `Hole` and each level *moves* one element into the vacated slot (one
//!   16-byte copy for a `Task`) instead of swapping two.
//! * **No bounds checks** on the sift path; see "Safety" below.
//! * **Arity specialisation.**  The fan-out stays a runtime field, but
//!   `push`, `pop` and the bulk rebuild branch on it once and run a kernel
//!   instantiated for `Fixed<2>`, `Fixed<4>` or `Fixed<8>` (parent and child
//!   indices by shifts, child selection by a tournament) or for `Dynamic`
//!   (any other arity: a division per level going up, one per walk going
//!   down, children scanned).
//! * **Child selection.**  Which child is the smallest is close to a coin
//!   toss, so no kernel branches on it.  `Fixed<2>` adds the outcome of one
//!   comparison to the first child's index.  `Fixed<4>` plays two such
//!   pairs, which do not depend on each other, and a final between their
//!   winners decided with `select_unpredictable`: two comparisons deep,
//!   where a left-to-right scan chains three through its running best.
//!   `Fixed<8>` plays three rounds.  `Dynamic`, and the one node of a heap
//!   that may have fewer than `d` children, scan.  All of them return the
//!   leftmost of equal children.
//! * **Pop** is a bottom-up deletion.  The last element goes into a hole
//!   opened at the root (it is never written to slot 0 first), but the hole
//!   then walks down to a leaf along the smallest children *without*
//!   looking at that element, and the element is sifted up from there.  It
//!   came from the bottom and almost always belongs there, so the sift-up
//!   is short, a level of the walk costs `d - 1` comparisons instead of
//!   `d`, and the walk has no exit for the processor to mispredict.  The
//!   array ends up as an early-exit sift-down would leave it, so the pop
//!   order is the same.
//! * **Prefetch.**  A walk that does not branch on the data leaves the
//!   processor nothing to guess, so it does not run ahead into the next
//!   level the way it would on a predicted branch.  That costs nothing
//!   while the heap sits in its owner's first-level cache, but the lines of
//!   a larger one come from further away (a Multi-Queue sub-queue's usually
//!   from another core's cache) and the misses of successive levels would
//!   queue up behind each other.  The walk therefore requests a node's
//!   grandchildren before it chooses among the children (x86-64 only; a
//!   no-op elsewhere).  For the specialised fan-outs that is a handful of
//!   prefetch instructions at constant offsets behind a bounds check, cheap
//!   enough to issue at every heap size.
//! * **Bulk load.**  `extend` appends and then either sifts the new tail up
//!   element by element or, when the tail is at least as long as the heap
//!   it joins, rebuilds the whole array bottom-up in O(n).  The rebuild
//!   sifts elements that may belong anywhere, so it uses `sift_down`, which
//!   compares against the element and stops as soon as it fits; it shares
//!   the child selection with the walk of `pop`.
//!
//! # Safety
//!
//! All `unsafe` code is in this file and rests on one invariant.
//!
//! **The hole invariant.**  While a `Hole { data, elt, pos }` is alive,
//! `pos < data.len()`, the slot `data[pos]` is logically uninitialised, and
//! `elt` is the only owner of the value lifted out of the array (or handed
//! to the hole).  Every other slot holds a live value.  `Hole`'s `Drop`
//! writes `elt` back into `data[pos]`, so whenever a hole goes away —
//! normally or because a comparison panicked — the slice is fully
//! initialised again and every element is owned exactly once: nothing
//! leaks, nothing is dropped twice.  (After a panic the order may no longer
//! be a heap order; that is a logic error of the panicking `Ord`, never a
//! memory error.)
//!
//! The `unsafe` blocks, and why each holds:
//!
//! * `Hole::new` reads `data[pos]` out with `ptr::read`.  Its contract is
//!   `pos < data.len()`; the copy does not duplicate ownership because the
//!   slot counts as empty from then on.
//! * `Hole::holding` only records its arguments; its contract (`pos` in
//!   bounds, `data[pos]` already read out by the caller) establishes the
//!   invariant.
//! * `Hole::get` and `Hole::move_to` index unchecked.  Their contract is
//!   `index < data.len()` and `index != pos`, both `debug_assert!`ed:
//!   `get` then reads a live slot, `move_to` copies a live slot into the
//!   empty one and makes the source the empty one, which keeps the
//!   invariant.
//! * `Hole::drop` writes into `data[pos]`: in bounds and empty by the
//!   invariant, and `elt` is never touched again.
//! * `Hole::run` borrows `data[first..end]` unchecked.  Its contract is
//!   `first <= end <= data.len()` with the hole outside the range, both
//!   `debug_assert!`ed, so every element of the slice is live.  Child
//!   selection (`Fanout::min_child`, `scan`) is safe code over such a
//!   slice and returns a position inside it.
//! * `full_min_child` (contract `pos < full = (len - 1) / d`) takes the
//!   run `first..first + d` with `first = d * pos + 1`: the bound gives
//!   `pos < first` and `d * pos + d <= len - 1`, because exactly the nodes
//!   before `full` have all `d` children.  Comparing before multiplying
//!   also keeps `d * pos` from overflowing for any `arity >= 2` and any
//!   length.  The tournament positions it gets back are below `d`.
//! * `partial_min_child` handles the one node that may have some but not
//!   all of its children, node `full`: it takes the run
//!   `d * full + 1 .. len` after checking `pos == full` and that the run
//!   is not empty, and `d * full <= len - 1` cannot overflow.  A later
//!   node has no child.
//! * `descend` and `sift_down` call `full_min_child` only while
//!   `pos < full`, and `get` / `move_to` only on the child index either
//!   helper returned: in bounds and not the hole.
//! * `sift_up` takes a hole, so `pos < len`; it only ever names
//!   `parent = (pos - 1) / d` with `pos > 0`, so `parent < pos < len`.  It
//!   is bounded by the root, which is where the walk of `pop` started.
//! * `prefetch_lines` passes `_mm_prefetch` addresses inside a sub-slice
//!   that `prefetch_run` has just bounds-checked; a prefetch reads nothing
//!   the program can observe and cannot fault.  The start `descend`
//!   computes for it may wrap for an arity no real length reaches; it is
//!   then only a wrong hint.
//! * `push` opens a hole at the index of the element it just pushed.
//! * `pop` reads `data[0]` out of a non-empty `Vec` and next opens the
//!   hole that will refill slot 0; nothing in between can panic,
//!   and the minimum it read is an ordinary local that unwinding drops.
//! * `rebuild_tail` opens holes at `pos <= (len - 2) / d < len` and at
//!   `pos` in `start..len`.

#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![deny(unsafe_op_in_unsafe_fn)]

use std::hint::select_unpredictable;
use std::mem::ManuallyDrop;
use std::ptr;

/// Default fan-out used by the paper's implementation.
pub const DEFAULT_ARITY: usize = 4;

/// Most bytes `descend` requests ahead per level.  Enough for all sixteen
/// grandchildren of a 4-ary node of 16-byte tasks; a node has `arity²`
/// grandchildren, so a wide fan-out needs the bound.
const PREFETCH_BYTES: usize = 512;

/// A sequential d-ary min-heap over any totally ordered element type.
///
/// Smaller elements are popped first, matching the paper's "lower key =
/// higher priority" convention (`smq_core::Task` orders by priority key).
#[derive(Debug, Clone)]
pub struct DAryHeap<T> {
    arity: usize,
    data: Vec<T>,
}

/// The fan-out as the sift kernels see it: a compile-time constant for the
/// specialised arities, the heap's runtime field for the rest.
trait Fanout: Copy {
    fn get(self) -> usize;

    /// The position in `children`, all `get()` children of one node, of
    /// the smallest, the leftmost one among equals.
    fn min_child<T: Ord>(self, children: &[T]) -> usize;
}

#[derive(Clone, Copy)]
struct Fixed<const D: usize>;

impl<const D: usize> Fanout for Fixed<D> {
    #[inline(always)]
    fn get(self) -> usize {
        D
    }

    /// A tournament: the pairs of one round do not depend on each other, so
    /// four children are two comparisons deep where a scan's running best
    /// chains three.  Every position is a constant plus comparison
    /// outcomes, so the indexing below compiles without bounds checks.
    #[inline(always)]
    fn min_child<T: Ord>(self, children: &[T]) -> usize {
        let pair = |i: usize| i + usize::from(children[i + 1] < children[i]);
        // Which side wins is close to a coin toss.  Without the hint LLVM
        // turns this select into a branch, and it mispredicts about once
        // per level.
        let duel = |left: usize, right: usize| {
            select_unpredictable(children[right] < children[left], right, left)
        };
        match D {
            2 => pair(0),
            4 => duel(pair(0), pair(2)),
            8 => duel(duel(pair(0), pair(2)), duel(pair(4), pair(6))),
            _ => scan(children),
        }
    }
}

#[derive(Clone, Copy)]
struct Dynamic(usize);

impl Fanout for Dynamic {
    #[inline(always)]
    fn get(self) -> usize {
        self.0
    }

    #[inline(always)]
    fn min_child<T: Ord>(self, children: &[T]) -> usize {
        scan(children)
    }
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

/// Evaluates `$body` with `$d` bound to the [`Fanout`] for `$arity`, so the
/// kernels called in `$body` are instantiated once per specialised arity.
macro_rules! with_fanout {
    ($arity:expr, |$d:ident| $body:expr) => {
        match $arity {
            2 => {
                let $d = Fixed::<2>;
                $body
            }
            4 => {
                let $d = Fixed::<4>;
                $body
            }
            8 => {
                let $d = Fixed::<8>;
                $body
            }
            other => {
                let $d = Dynamic(other);
                $body
            }
        }
    };
}

/// One slot of `data`, `data[pos]`, whose value has been lifted out into
/// `elt`; dropping the hole writes it back.  See the module docs.
struct Hole<'a, T> {
    data: &'a mut [T],
    elt: ManuallyDrop<T>,
    pos: usize,
}

impl<'a, T> Hole<'a, T> {
    /// Lifts `data[pos]` out of the slice.
    ///
    /// # Safety
    /// `pos < data.len()`.
    #[inline]
    unsafe fn new(data: &'a mut [T], pos: usize) -> Self {
        debug_assert!(pos < data.len());
        // SAFETY: `pos` is in bounds (caller).  The bitwise copy makes `elt`
        // the value's only owner because the slot is treated as empty until
        // `drop` overwrites it.
        unsafe {
            let elt = ptr::read(data.get_unchecked(pos));
            Self::holding(data, pos, elt)
        }
    }

    /// Opens a hole at `data[pos]` that carries `elt` instead of the slot's
    /// own value.
    ///
    /// # Safety
    /// `pos < data.len()`, and the caller has already moved the value out of
    /// `data[pos]` with `ptr::read` and owns it.
    #[inline]
    unsafe fn holding(data: &'a mut [T], pos: usize, elt: T) -> Self {
        debug_assert!(pos < data.len());
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    #[inline]
    fn element(&self) -> &T {
        &self.elt
    }

    /// # Safety
    /// `index < data.len()` and `index != pos`.
    #[inline]
    unsafe fn get(&self, index: usize) -> &T {
        debug_assert!(index != self.pos);
        debug_assert!(index < self.data.len());
        // SAFETY: in bounds and not the empty slot (caller).
        unsafe { self.data.get_unchecked(index) }
    }

    /// The live elements `data[first..end]`.
    ///
    /// # Safety
    /// `first <= end <= data.len()`, and the hole is not in `first..end`.
    #[inline]
    unsafe fn run(&self, first: usize, end: usize) -> &[T] {
        debug_assert!(first <= end && end <= self.data.len());
        debug_assert!(!(first..end).contains(&self.pos));
        // SAFETY: in bounds and clear of the empty slot (caller).
        unsafe { self.data.get_unchecked(first..end) }
    }

    /// Moves `data[index]` into the hole; the hole is then at `index`.
    ///
    /// # Safety
    /// `index < data.len()` and `index != pos`.
    #[inline]
    unsafe fn move_to(&mut self, index: usize) {
        debug_assert!(index != self.pos);
        debug_assert!(index < self.data.len());
        // SAFETY: both slots are in bounds and distinct (caller, and the
        // hole invariant for `pos`); the destination is the empty slot, so
        // nothing is overwritten, and the source becomes the empty slot.
        unsafe {
            let base = self.data.as_mut_ptr();
            ptr::copy_nonoverlapping(base.add(index), base.add(self.pos), 1);
        }
        self.pos = index;
    }
}

impl<T> Drop for Hole<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // SAFETY: `pos < data.len()` by the hole invariant; the slot is
        // empty, so the write overwrites no live value, and `elt` is never
        // used again (`ManuallyDrop`, and the hole is going away).
        unsafe {
            let slot = self.data.get_unchecked_mut(self.pos);
            ptr::copy_nonoverlapping(&*self.elt, slot, 1);
        }
    }
}

/// Asks for the cache lines that hold the first `count` elements of
/// `data[start..]`, or as many of them as there are.  A hint only: it does
/// nothing where std has no stable prefetch.
#[inline(always)]
fn prefetch_run<T>(data: &[T], start: usize, count: usize) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        let Some(rest) = data.get(start..) else {
            return;
        };
        // Two calls, not one on the shorter of the two: a whole run, the
        // usual case, then has a length the fixed-arity kernels know, and
        // its loop becomes a handful of prefetches with nothing to compute
        // or branch on.
        match rest.get(..count) {
            Some(run) => prefetch_lines(run),
            None => prefetch_lines(rest),
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = (data, start, count);
}

/// Asks for every cache line that holds part of `run`.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline(always)]
fn prefetch_lines<T>(run: &[T]) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    const LINE: usize = 64;
    let (first, bytes) = (run.as_ptr().cast::<i8>(), size_of_val(run));
    if bytes == 0 {
        return;
    }
    // SAFETY: a prefetch reads nothing the program can observe and cannot
    // fault, and every address passed lies inside `run`.
    unsafe {
        let mut offset = 0;
        while offset < bytes {
            _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(offset));
            offset += LINE;
        }
        // The run need not start on a line boundary, so its last byte may
        // lie one line further.
        _mm_prefetch::<_MM_HINT_T0>(first.wrapping_add(bytes - 1));
    }
}

/// Sifts the hole's element towards the root until its parent is no
/// greater.
#[inline]
fn sift_up<T: Ord, F: Fanout>(mut hole: Hole<'_, T>, d: F) {
    while hole.pos > 0 {
        let parent = (hole.pos - 1) / d.get();
        // SAFETY: `parent < hole.pos < data.len()`.
        unsafe {
            if hole.element() >= hole.get(parent) {
                break;
            }
            hole.move_to(parent);
        }
    }
}

/// The smallest child of node `full`, the one node that may have some but
/// not all `d` of its children, if the hole is there and it has any: a
/// later node `p` has `d * p + 1 > len - 1` and so none.
#[inline]
fn partial_min_child<T: Ord>(hole: &Hole<'_, T>, d: usize, full: usize) -> Option<usize> {
    let len = hole.data.len();
    // `d * full <= len - 1`, so this cannot overflow where `d * hole.pos`
    // could.
    let first = d * full + 1;
    if hole.pos != full || first >= len {
        return None;
    }
    // SAFETY: `hole.pos = full < first < len`.
    Some(first + scan(unsafe { hole.run(first, len) }))
}

/// The smallest child of the hole's node, which is before `full`: exactly
/// those nodes have all `d` children, node `p` iff `d * p + d <= len - 1`.
///
/// # Safety
/// `hole.pos < (hole.data.len() - 1) / d`.
#[inline(always)]
unsafe fn full_min_child<T: Ord, F: Fanout>(hole: &Hole<'_, T>, d: F) -> usize {
    let first = d.get() * hole.pos + 1;
    // SAFETY: the caller's bound gives `hole.pos < first` and
    // `first + d <= len`.
    first + d.min_child(unsafe { hole.run(first, first + d.get()) })
}

/// Walks the hole from its node down to a leaf, each level moving the
/// smallest child up, and returns it there.  The hole's own element is
/// never looked at: `pop` hands in the heap's last element, which belongs
/// near the bottom, so a level costs `d - 1` comparisons instead of `d` and
/// the walk has no exit that depends on the data.  The caller sifts the
/// element back up the few levels it overshot.
#[inline]
fn descend<'a, T: Ord, F: Fanout>(mut hole: Hole<'a, T>, d: F) -> Hole<'a, T> {
    // `len >= 1` because `hole.pos < len`.
    let full = (hole.data.len() - 1) / d.get();
    // A walk that does not branch on the data leaves the processor nothing
    // to guess, so it cannot run ahead into the next level.  Request a
    // node's grandchildren before choosing its child, so that the misses of
    // successive levels (a Multi-Queue sub-queue's lines are usually in
    // another core's cache) overlap as they did under speculation.
    let grandchildren = d.get().saturating_mul(d.get());
    let run = grandchildren.min(PREFETCH_BYTES / size_of::<T>().max(1));
    while hole.pos < full {
        // A product that wraps (an arity beyond any real length) names some
        // other run of the slice or none: a wasted hint, no more.
        let first = d.get() * hole.pos + 1;
        let start = first.wrapping_mul(d.get()).wrapping_add(1);
        prefetch_run(hole.data, start, run);
        // SAFETY: `hole.pos < full`, and a child of `hole.pos` is in
        // bounds and not the hole.
        unsafe {
            let best = full_min_child(&hole, d);
            hole.move_to(best);
        }
    }
    if let Some(best) = partial_min_child(&hole, d.get(), full) {
        // SAFETY: a child of `hole.pos`: in bounds and not the hole.
        unsafe { hole.move_to(best) };
    }
    hole
}

/// Sifts the hole's element towards the leaves until no child is smaller.
/// For an element that may belong anywhere (the bottom-up rebuild): unlike
/// [`descend`] it stops as soon as the element fits.
#[inline]
fn sift_down<T: Ord, F: Fanout>(mut hole: Hole<'_, T>, d: F) {
    let full = (hole.data.len() - 1) / d.get();
    while hole.pos < full {
        // SAFETY: as in `descend`.
        unsafe {
            let best = full_min_child(&hole, d);
            if hole.element() <= hole.get(best) {
                return;
            }
            hole.move_to(best);
        }
    }
    if let Some(best) = partial_min_child(&hole, d.get(), full) {
        // SAFETY: a child of `hole.pos`: in bounds and not the hole.
        unsafe {
            if hole.element() > hole.get(best) {
                hole.move_to(best);
            }
        }
    }
}

/// Restores the heap order of `heap.data[start..]` against the valid heap
/// before it when dropped, so that `extend` leaves a heap behind even when
/// the iterator it consumes panics.
struct RebuildOnDrop<'a, T: Ord> {
    heap: &'a mut DAryHeap<T>,
    start: usize,
}

impl<T: Ord> Drop for RebuildOnDrop<'_, T> {
    fn drop(&mut self) {
        self.heap.rebuild_tail(self.start);
    }
}

impl<T: Ord> Default for DAryHeap<T> {
    fn default() -> Self {
        Self::new(DEFAULT_ARITY)
    }
}

impl<T: Ord> DAryHeap<T> {
    /// Creates an empty heap with the given fan-out (`arity >= 2`).
    ///
    /// # Panics
    /// Panics if `arity < 2`.
    pub fn new(arity: usize) -> Self {
        assert!(arity >= 2, "d-ary heap requires arity >= 2");
        Self {
            arity,
            data: Vec::new(),
        }
    }

    /// Creates an empty heap with the given fan-out and pre-allocated
    /// capacity.
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        assert!(arity >= 2, "d-ary heap requires arity >= 2");
        Self {
            arity,
            data: Vec::with_capacity(capacity),
        }
    }

    /// The configured fan-out.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
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
        // SAFETY: `pos` is the index of the element just pushed.
        let hole = unsafe { Hole::new(&mut self.data, pos) };
        with_fanout!(self.arity, |d| sift_up(hole, d));
    }

    /// Removes and returns the minimum element, if any.
    pub fn pop(&mut self) -> Option<T> {
        let last = self.data.pop()?;
        if self.data.is_empty() {
            return Some(last);
        }
        // SAFETY: the heap is not empty, so slot 0 is in bounds.  Reading
        // the minimum out empties the slot, and the hole opened there next
        // takes over the duty to fill it; nothing between the two can
        // panic.  If a comparison panics later, `min` is dropped by the
        // unwinding like any other local.
        let (min, hole) = unsafe {
            let min = ptr::read(self.data.as_ptr());
            (min, Hole::holding(&mut self.data, 0, last))
        };
        with_fanout!(self.arity, |d| sift_up(descend(hole, d), d));
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
            with_fanout!(self.arity, |d| {
                // Every node that has a child, deepest first.
                for pos in (0..=(len - 2) / d.get()).rev() {
                    // SAFETY: `pos <= (len - 2) / d < len`.
                    sift_down(unsafe { Hole::new(data, pos) }, d);
                }
            });
        } else {
            with_fanout!(self.arity, |d| {
                for pos in start..len {
                    // SAFETY: `pos < len`.
                    sift_up(unsafe { Hole::new(data, pos) }, d);
                }
            });
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
            let parent = (idx - 1) / self.arity;
            assert!(
                self.data[parent] <= self.data[idx],
                "heap property violated at index {idx}"
            );
        }
    }
}

impl<T: Ord> FromIterator<T> for DAryHeap<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut heap = DAryHeap::default();
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::rc::Rc;

    #[test]
    fn empty_heap_behaviour() {
        let mut h: DAryHeap<u64> = DAryHeap::default();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.peek(), None);
        assert_eq!(h.pop(), None);
        assert_eq!(h.arity(), DEFAULT_ARITY);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn unary_heap_rejected() {
        let _ = DAryHeap::<u64>::new(1);
    }

    #[test]
    fn pops_in_ascending_order() {
        let mut h = DAryHeap::new(4);
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
        let mut h = DAryHeap::new(3);
        for v in [5u64, 5, 5, 1, 1] {
            h.push(v);
        }
        assert_eq!(h.into_sorted_vec(), vec![1, 1, 5, 5, 5]);
    }

    #[test]
    fn huge_arities_do_not_overflow_the_index_arithmetic() {
        for arity in [usize::MAX, usize::MAX / 2 + 1, 1 << 40] {
            let mut h = DAryHeap::new(arity);
            h.extend((0..50u64).rev());
            h.assert_heap_property();
            h.push(7);
            let mut expected: Vec<u64> = (0..50).collect();
            expected.insert(7, 7);
            assert_eq!(h.into_sorted_vec(), expected);
        }
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

    /// A key whose comparisons panic once a shared countdown reaches zero,
    /// and whose drops are counted.
    struct Fuse {
        key: u32,
        control: Rc<FuseControl>,
    }

    #[derive(Default)]
    struct FuseControl {
        /// Comparisons left before the next one panics; `None` is disarmed.
        countdown: Cell<Option<u32>>,
        comparisons: Cell<u32>,
        created: Cell<usize>,
        dropped: Cell<usize>,
    }

    impl FuseControl {
        fn fuse(self: &Rc<Self>, key: u32) -> Fuse {
            self.created.set(self.created.get() + 1);
            Fuse {
                key,
                control: Rc::clone(self),
            }
        }

        fn live(&self) -> usize {
            self.created.get() - self.dropped.get()
        }
    }

    impl Drop for Fuse {
        fn drop(&mut self) {
            self.control.dropped.set(self.control.dropped.get() + 1);
        }
    }

    impl Ord for Fuse {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let comparisons = &self.control.comparisons;
            comparisons.set(comparisons.get() + 1);
            match self.control.countdown.get() {
                Some(0) => {
                    self.control.countdown.set(None);
                    panic!("fuse blown");
                }
                Some(n) => self.control.countdown.set(Some(n - 1)),
                None => {}
            }
            self.key.cmp(&other.key)
        }
    }

    impl PartialOrd for Fuse {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl PartialEq for Fuse {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key
        }
    }

    impl Eq for Fuse {}

    /// A heap of `len` fuses with ascending keys: the array is a heap as it
    /// stands and its last element is the largest, so a pop walks its hole
    /// to a leaf and the sift-up that follows ends at its first comparison.
    fn ascending_fuses(arity: usize, len: u32, control: &Rc<FuseControl>) -> DAryHeap<Fuse> {
        let mut heap = DAryHeap::new(arity);
        heap.extend((1..=len).map(|key| control.fuse(key)));
        assert_eq!(control.live(), len as usize);
        heap
    }

    /// How many comparisons `op` makes on the heap of [`ascending_fuses`].
    fn comparisons_of(arity: usize, len: u32, op: impl FnOnce(&mut DAryHeap<Fuse>)) -> u32 {
        let control = Rc::new(FuseControl::default());
        let mut heap = ascending_fuses(arity, len, &control);
        control.comparisons.set(0);
        op(&mut heap);
        control.comparisons.get()
    }

    /// Runs `op` on a 200-element heap with the fuse set to blow at
    /// comparison number `blow_at`; the heap must hold `len_after` elements
    /// once `op` has panicked.
    fn blow_during(
        arity: usize,
        blow_at: u32,
        len_after: usize,
        op: impl FnOnce(&mut DAryHeap<Fuse>, &Rc<FuseControl>),
    ) {
        let control = Rc::new(FuseControl::default());
        let mut heap = ascending_fuses(arity, 200, &control);

        control.countdown.set(Some(blow_at));
        let outcome = catch_unwind(AssertUnwindSafe(|| op(&mut heap, &control)));
        assert!(outcome.is_err(), "arity {arity}: no comparison {blow_at}");

        // Usable again: every element is still there, exactly once ...
        assert_eq!(heap.len(), len_after);
        assert_eq!(control.live(), len_after, "leaked or dropped twice");
        let mut drained = 0;
        while let Some(fuse) = heap.pop() {
            drained += 1;
            drop(fuse);
        }
        assert_eq!(drained, len_after);
        assert_eq!(control.live(), 0);
        // ... and the emptied heap orders new elements.
        heap.extend([5, 3, 9, 1].map(|key| control.fuse(key)));
        let keys: Vec<u32> = heap.into_sorted_vec().iter().map(|f| f.key).collect();
        assert_eq!(keys, vec![1, 3, 5, 9]);
        assert_eq!(control.created.get(), control.dropped.get());
    }

    #[test]
    fn panicking_comparison_neither_leaks_nor_double_drops() {
        for arity in [2, 3, 4, 8] {
            for blow_at in 0..6 {
                // A push that climbs to the root: three levels at arity 8,
                // so only its first three comparisons are certain.
                blow_during(arity, blow_at % 3, 201, |heap, control| {
                    heap.push(control.fuse(0));
                });
                // A run long enough to rebuild the whole heap bottom-up.
                blow_during(arity, blow_at, 600, |heap, control| {
                    let run: Vec<Fuse> = (0..400).map(|key| control.fuse(key)).collect();
                    heap.extend(run);
                });
            }
            // Every comparison of a pop: the first ones are made by the walk
            // to a leaf, the last one by the sift-up from there.  The popped
            // minimum is dropped by the unwinding.
            let walk_and_sift_up = comparisons_of(arity, 200, |heap| drop(heap.pop()));
            assert!(walk_and_sift_up >= 4, "arity {arity}: {walk_and_sift_up}");
            for blow_at in 0..walk_and_sift_up {
                blow_during(arity, blow_at, 199, |heap, _| {
                    heap.pop();
                });
            }
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
        let spent = comparisons_of(4, complete + 1, |heap| {
            assert_eq!(heap.pop().map(|fuse| fuse.key), Some(1));
        });
        assert!(spent <= 3 * levels + 1, "{spent} comparisons");
    }

    /// The fan-outs every property runs on: 2, 4 and 8 have the tournament
    /// kernels, the others run `Dynamic`'s divisions and scan.
    const ARITIES: std::ops::RangeInclusive<usize> = 2..=9;

    /// Replays `ops` on a heap of every arity in [`ARITIES`] and on
    /// `std::collections::BinaryHeap`.  Each op is `(code, operands)`.  Both
    /// start out holding `resident`, and hold it again after a `clear`.
    fn differential<T: Ord + Clone + std::fmt::Debug>(ops: &[(u8, Vec<T>)], resident: &[T]) {
        for arity in ARITIES {
            let mut heap = DAryHeap::new(arity);
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
                            heap.push(v.clone());
                            reference.push(Reverse(v.clone()));
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
                // O(n): after every op on a heap of these few operands, once
                // at the end on one that also holds thousands of residents.
                if resident.is_empty() {
                    heap.assert_heap_property();
                }
                assert_eq!(heap.len(), reference.len());
                assert_eq!(heap.peek(), reference.peek().map(|Reverse(v)| v));
            }
            heap.assert_heap_property();
            let rest: Vec<T> = std::iter::from_fn(|| reference_pop(&mut reference)).collect();
            assert_eq!(heap.into_sorted_vec(), rest, "arity {arity}");
        }
    }

    /// Pushes `values` one by one, then pops everything.
    fn heap_sort(arity: usize, values: &[u32]) -> Vec<u32> {
        let mut heap = DAryHeap::new(arity);
        for &v in values {
            heap.push(v);
            heap.assert_heap_property();
        }
        heap.into_sorted_vec()
    }

    /// Pops `k` of `values`, which `heap` holds, in one batch.
    fn check_pop_batch(mut heap: DAryHeap<u32>, values: &[u32], k: usize) {
        let arity = heap.arity();
        let mut expected = values.to_vec();
        expected.sort_unstable();
        let mut out = Vec::new();
        let moved = heap.pop_batch_into(k, &mut out);
        assert_eq!(moved, k.min(values.len()), "arity {arity}");
        assert_eq!(&out[..], &expected[..moved], "arity {arity}");
        heap.assert_heap_property();
        assert_eq!(heap.len(), values.len() - moved);
    }

    /// A heap of `arity` loaded with `values` in bulk.
    fn loaded(arity: usize, values: &[u32]) -> DAryHeap<u32> {
        let mut heap = DAryHeap::new(arity);
        heap.extend(values.iter().copied());
        heap
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
        for d in ARITIES {
            // One element, a root with one child, with its last child, the
            // first grandchild, the second, and the first great-grandchild;
            // each pop on the way down to empty passes the lengths between.
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
                    assert_eq!(heap_sort(d, &values), sorted, "arity {d}, {len} x {name}");
                    check_pop_batch(loaded(d, &values), &values, len / 2 + 1);
                }
            }
        }
    }

    proptest! {
        #[test]
        fn heap_sort_matches_std_sort(mut values in proptest::collection::vec(any::<u32>(), 0..512),
                                      arity in ARITIES) {
            // One fan-out a case: `heap_sort` checks the whole heap after
            // every push.
            let heap_sorted = heap_sort(arity, &values);
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
        #[cfg_attr(miri, ignore = "1 500 elements a case, and Miri compiles the prefetch out")]
        fn interleaved_ops_match_binary_heap_task_on_a_large_heap(
            ops in proptest::collection::vec(
                (0u8..32, proptest::collection::vec((0u64..64, any::<u64>()), 0..24)), 1..48)
        ) {
            // Several times deeper than the few dozen elements the ops alone
            // build up (ten levels at arity 2, six at 4), so the walk of `pop`
            // asks for grandchildren that are all there, that lie partly past
            // the end and that lie wholly past it.
            let resident: Vec<Task> = (1..=1500u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .map(|v| Task::new(v >> 58, v))
                .collect();
            differential(&tasks(ops), &resident);
        }

        #[test]
        fn pop_batch_is_prefix_of_sorted(values in proptest::collection::vec(any::<u32>(), 0..256),
                                         k in 0usize..64) {
            for arity in ARITIES {
                check_pop_batch(loaded(arity, &values), &values, k);
            }
            check_pop_batch(values.iter().copied().collect(), &values, k);
        }
    }
}
