//! A lazy, lock-based concurrent skip list with a randomized *spray*
//! delete-min.
//!
//! This is the substrate for the SprayList baseline [Alistarh, Kopinsky, Li,
//! Shavit, PPoPP'15] used in the paper's Figure 2 comparison.  The list
//! follows the optimistic lazy skip-list of Herlihy & Shavit (*The Art of
//! Multiprocessor Programming*, ch. 14): towers are linked bottom-up under
//! per-predecessor locks, deletion is a logical `marked` flag set under the
//! victim's lock followed by physical unlinking, and traversals are entirely
//! lock-free reads.
//!
//! Two deliberate simplifications, documented for reviewers:
//!
//! * **Unique keys.**  Priority ties are broken by a monotonically increasing
//!   sequence number attached at insert time, so the underlying set never
//!   sees duplicate keys (the published algorithm assumes a set).
//! * **Deferred reclamation.**  Nodes are never freed while the list is
//!   alive; every allocation is recorded and released when the list is
//!   dropped.  This trades memory (tens of bytes per completed task) for a
//!   safe lock-free read path without hazard pointers or epochs, which is an
//!   acceptable cost for a baseline scheduler processing bounded task
//!   counts.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use smq_core::rng::Pcg32;

/// Maximum tower height (supports ~2^32 elements, far more than needed).
const MAX_HEIGHT: usize = 32;

/// A totally ordered key: the user value plus a unique sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key<T: Ord + Copy> {
    value: T,
    seq: u64,
}

struct Node<T: Ord + Copy> {
    key: Key<T>,
    height: usize,
    lock: Mutex<()>,
    marked: AtomicBool,
    fully_linked: AtomicBool,
    next: Vec<AtomicPtr<Node<T>>>,
}

impl<T: Ord + Copy> Node<T> {
    fn new(key: Key<T>, height: usize) -> *mut Self {
        let node = Box::new(Node {
            key,
            height,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(false),
            next: (0..height)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
        });
        Box::into_raw(node)
    }
}

/// Tuning knobs for the spray walk (see [`ConcurrentSkipList::spray_delete_min`]).
#[derive(Debug, Clone, Copy)]
pub struct SprayParams {
    /// Maximum number of spray retries before falling back to an exact
    /// delete-min (guarantees progress under heavy contention).
    pub max_retries: usize,
    /// Expected number of concurrently spraying threads.  The spray walk is
    /// tuned so that it lands (roughly uniformly) within the first
    /// `O(contention * log^2 contention)` elements, following the SprayList
    /// design where the spray prefix scales with the thread count rather
    /// than with the list size.
    pub contention: usize,
    /// Additive padding on the spray start height.
    pub height_padding: usize,
}

impl SprayParams {
    /// Parameters tuned for `threads` concurrently spraying threads.
    pub fn for_threads(threads: usize) -> Self {
        Self {
            contention: threads.max(1),
            ..Self::default()
        }
    }
}

impl Default for SprayParams {
    fn default() -> Self {
        Self {
            max_retries: 8,
            contention: 8,
            height_padding: 1,
        }
    }
}

/// A concurrent min-ordered skip list supporting exact and spray delete-min.
pub struct ConcurrentSkipList<T: Ord + Copy> {
    head: Box<[AtomicPtr<Node<T>>]>,
    /// Approximate number of live (inserted, not yet deleted) elements.
    len: AtomicUsize,
    /// Sequence numbers make keys unique.
    seq: AtomicU64,
    /// Every node ever allocated, freed when the list is dropped.
    allocations: Mutex<Vec<*mut Node<T>>>,
    /// Lock standing in for the head sentinel in the predecessor-locking
    /// protocol.  Real nodes carry their own lock; the head used to have
    /// none, which let a front-insert and a front-unlink validate
    /// `head[level]` concurrently and then overwrite each other's store —
    /// the insert could re-link a marked, already-excised node and strand
    /// it (reachable + marked + no active deleter), livelocking every later
    /// head-adjacent operation.  Acquired whenever a null (head) pred
    /// participates in insert/unlink validation; nulls are always the
    /// final distinct pred in the bottom-up lock order (the head is "key
    /// -∞"), so the global descending-key acquisition order — and with it
    /// deadlock freedom — is preserved.
    head_lock: Mutex<()>,
}

// SAFETY: nodes are only mutated under their own locks or through atomics,
// raw node pointers never escape the structure, and `T: Copy` values are
// read only after the epoch/mark protocol has established ownership.
unsafe impl<T: Ord + Copy + Send> Send for ConcurrentSkipList<T> {}
// SAFETY: shared access goes through `head`/`next` links, `len`, `seq` and
// the `marked`/`fully_linked` flags, which are atomics, and through
// `allocations` and `head_lock`, which are mutexes; a node's `key` and
// `height` are written before the node is published and never again.  The
// raw pointers that made the type `!Sync` point at nodes the list owns until
// `Drop`, which needs `&mut self`.  Threads copy `T` values out of shared
// nodes, hence `T: Send`.
unsafe impl<T: Ord + Copy + Send> Sync for ConcurrentSkipList<T> {}

impl<T: Ord + Copy> Default for ConcurrentSkipList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + Copy> ConcurrentSkipList<T> {
    /// Creates an empty list.
    pub fn new() -> Self {
        let head = (0..MAX_HEIGHT)
            .map(|_| AtomicPtr::new(ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            head,
            len: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            allocations: Mutex::new(Vec::new()),
            head_lock: Mutex::new(()),
        }
    }

    /// Approximate number of live elements.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` if the list is (approximately) empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn random_height(rng: &mut Pcg32) -> usize {
        let bits = rng.next_u32();
        ((bits.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    }

    /// Searches for `key`, filling `preds`/`succs` for every level.
    /// Returns `true` if a node with exactly `key` was found.
    fn find(
        &self,
        key: &Key<T>,
        preds: &mut [*mut Node<T>; MAX_HEIGHT],
        succs: &mut [*mut Node<T>; MAX_HEIGHT],
    ) -> bool {
        let mut found = false;
        // `null` predecessor means "the head sentinel".
        let mut pred: *mut Node<T> = ptr::null_mut();
        for level in (0..MAX_HEIGHT).rev() {
            let mut curr = if pred.is_null() {
                self.head[level].load(Ordering::Acquire)
            } else {
                // SAFETY: nodes are never freed while the list is alive.
                unsafe { &*pred }.next[level].load(Ordering::Acquire)
            };
            loop {
                if curr.is_null() {
                    break;
                }
                // SAFETY: as above.
                let curr_key = unsafe { &(*curr).key };
                if curr_key < key {
                    pred = curr;
                    // SAFETY: `curr` is non-null (checked above) and nodes
                    // are never freed while the list is alive.
                    curr = unsafe { &*curr }.next[level].load(Ordering::Acquire);
                } else {
                    if curr_key == key {
                        found = true;
                    }
                    break;
                }
            }
            preds[level] = pred;
            succs[level] = curr;
        }
        found
    }

    #[inline]
    fn link_of(&self, pred: *mut Node<T>, level: usize) -> &AtomicPtr<Node<T>> {
        if pred.is_null() {
            &self.head[level]
        } else {
            // SAFETY: nodes are never freed while the list is alive.
            &unsafe { &*pred }.next[level]
        }
    }

    #[inline]
    fn is_marked(node: *mut Node<T>) -> bool {
        if node.is_null() {
            false
        } else {
            // SAFETY: nodes are never freed while the list is alive.
            unsafe { (*node).marked.load(Ordering::Acquire) }
        }
    }

    /// Inserts `value`.  Ties with existing values are broken by insertion
    /// order (earlier inserts are removed first among equal values).
    // `preds`/`succs`/`next` are parallel arrays walked in lock-step by
    // level; indexed loops keep that symmetry readable.
    #[allow(clippy::needless_range_loop)]
    pub fn insert(&self, value: T, rng: &mut Pcg32) {
        let key = Key {
            value,
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
        };
        let height = Self::random_height(rng);
        let mut preds = [ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [ptr::null_mut(); MAX_HEIGHT];
        loop {
            // Keys are unique, so `find` can never report `found`.
            let _ = self.find(&key, &mut preds, &mut succs);

            // Lock the predecessors bottom-up and validate.  A null pred is
            // the head sentinel, represented by `head_lock`; head preds are
            // always the final distinct entry in the bottom-up order, so
            // acquisition stays descending-key and deadlock-free.
            let mut guards = Vec::with_capacity(height);
            let mut prev_locked: *mut Node<T> = usize::MAX as *mut Node<T>; // sentinel != any pred
            let mut valid = true;
            for level in 0..height {
                let pred = preds[level];
                let succ = succs[level];
                if pred != prev_locked {
                    if pred.is_null() {
                        guards.push(self.head_lock.lock());
                    } else {
                        // SAFETY: nodes are never freed while the list lives.
                        guards.push(unsafe { (*pred).lock.lock() });
                    }
                    prev_locked = pred;
                }
                let pred_ok = pred.is_null() || !Self::is_marked(pred);
                let succ_ok = !Self::is_marked(succ);
                let link_ok = self.link_of(pred, level).load(Ordering::Acquire) == succ;
                if !(pred_ok && succ_ok && link_ok) {
                    valid = false;
                    break;
                }
            }
            if !valid {
                drop(guards);
                continue;
            }

            let node = Node::new(key, height);
            self.allocations.lock().push(node);
            // SAFETY: `node` was just allocated and is exclusively ours until
            // the final link below publishes it.
            unsafe {
                for level in 0..height {
                    (&*node).next[level].store(succs[level], Ordering::Relaxed);
                }
                for level in 0..height {
                    self.link_of(preds[level], level)
                        .store(node, Ordering::Release);
                }
                (*node).fully_linked.store(true, Ordering::Release);
            }
            self.len.fetch_add(1, Ordering::Relaxed);
            return;
        }
    }

    /// Marks `victim` (which the caller has already locked and verified to be
    /// unmarked) and physically unlinks it.  Returns its value.
    ///
    /// # Safety
    /// `victim` must point to a live, fully linked node whose lock is held by
    /// the caller via `_victim_guard`.
    #[allow(clippy::needless_range_loop)]
    unsafe fn unlink_marked(
        &self,
        victim: *mut Node<T>,
        _victim_guard: parking_lot::MutexGuard<'_, ()>,
    ) -> T {
        let key = (*victim).key;
        let height = (*victim).height;
        let mut preds = [ptr::null_mut(); MAX_HEIGHT];
        let mut succs = [ptr::null_mut(); MAX_HEIGHT];
        loop {
            let _ = self.find(&key, &mut preds, &mut succs);
            // Lock predecessors bottom-up and validate that they still point
            // at the victim at every level the victim occupies.  Null preds
            // are the head sentinel and take `head_lock` — without it, a
            // front-insert validating `head[level]` concurrently with this
            // unlink could re-link the excised victim (see `head_lock`).
            let mut guards = Vec::with_capacity(height);
            let mut prev_locked: *mut Node<T> = usize::MAX as *mut Node<T>;
            let mut valid = true;
            for level in 0..height {
                let pred = preds[level];
                if pred != prev_locked {
                    if pred.is_null() {
                        guards.push(self.head_lock.lock());
                    } else {
                        guards.push((*pred).lock.lock());
                    }
                    prev_locked = pred;
                }
                let pred_ok = pred.is_null() || !Self::is_marked(pred);
                let link_ok = self.link_of(pred, level).load(Ordering::Acquire) == victim;
                if !(pred_ok && link_ok) {
                    valid = false;
                    break;
                }
            }
            if !valid {
                drop(guards);
                continue;
            }
            for level in (0..height).rev() {
                let succ = (&*victim).next[level].load(Ordering::Acquire);
                self.link_of(preds[level], level)
                    .store(succ, Ordering::Release);
            }
            self.len.fetch_sub(1, Ordering::Relaxed);
            return key.value;
        }
    }

    /// Removes and returns the exact minimum element, if any.
    pub fn delete_min(&self) -> Option<T> {
        loop {
            // Scan level 0 for the first fully linked, unmarked node.
            let mut curr = self.head[0].load(Ordering::Acquire);
            loop {
                if curr.is_null() {
                    return None;
                }
                // SAFETY: nodes are never freed while the list is alive.
                let (linked, marked) = unsafe {
                    (
                        (*curr).fully_linked.load(Ordering::Acquire),
                        (*curr).marked.load(Ordering::Acquire),
                    )
                };
                if linked && !marked {
                    break;
                }
                // SAFETY: `curr` is non-null (checked above) and nodes are
                // never freed while the list is alive.
                curr = unsafe { &*curr }.next[0].load(Ordering::Acquire);
            }
            // Try to claim it.
            // SAFETY: the scan left `curr` on a non-null node, and nodes are
            // never freed while the list is alive.
            let guard = unsafe { (*curr).lock.lock() };
            // SAFETY: as above.
            let already_marked = unsafe { (*curr).marked.load(Ordering::Acquire) };
            if already_marked {
                drop(guard);
                continue;
            }
            // SAFETY: `curr` is live (as above) and was seen fully linked;
            // its lock is held through `guard` and it was unmarked under
            // that lock, which is `unlink_marked`'s contract.
            unsafe {
                (*curr).marked.store(true, Ordering::Release);
                return Some(self.unlink_marked(curr, guard));
            }
        }
    }

    /// Removes and returns an element *near* the minimum using a SprayList
    /// random walk: start `O(log n)` levels up, take a uniformly random
    /// number of forward steps at each level, descend, and claim the node the
    /// walk lands on.  Falls back to [`Self::delete_min`] after
    /// `params.max_retries` failed sprays so the operation always makes
    /// progress.
    pub fn spray_delete_min(&self, rng: &mut Pcg32, params: SprayParams) -> Option<T> {
        for _ in 0..params.max_retries {
            // Spray geometry follows the SprayList design: the walk starts
            // ~log2(p) levels up (p = contending threads) and takes up to
            // ~log2(p) hops per level, which lands it roughly uniformly in a
            // prefix of O(p * log^2 p) elements regardless of the list size.
            let p = params.contention.max(2);
            let log_p = (usize::BITS - p.leading_zeros()) as usize;
            let start_level = (log_p + params.height_padding).min(MAX_HEIGHT) - 1;
            let walk_len = log_p.max(1);

            let mut pred: *mut Node<T> = ptr::null_mut();
            for level in (0..=start_level).rev() {
                let steps = rng.next_bounded(walk_len + 1);
                let mut taken = 0;
                loop {
                    if taken >= steps {
                        break;
                    }
                    let next = self.link_of(pred, level).load(Ordering::Acquire);
                    if next.is_null() {
                        break;
                    }
                    pred = next;
                    taken += 1;
                }
            }
            // `pred` is where the walk landed (null = still at head).  Claim
            // the first claimable node at or after the landing point.
            let mut candidate = if pred.is_null() {
                self.head[0].load(Ordering::Acquire)
            } else {
                pred
            };
            while !candidate.is_null() {
                // SAFETY: nodes are never freed while the list is alive.
                let (linked, marked) = unsafe {
                    (
                        (*candidate).fully_linked.load(Ordering::Acquire),
                        (*candidate).marked.load(Ordering::Acquire),
                    )
                };
                if linked && !marked {
                    // SAFETY: `candidate` is non-null (loop condition) and
                    // nodes are never freed while the list is alive.
                    let guard = unsafe { (*candidate).lock.lock() };
                    // SAFETY: as above.
                    let already = unsafe { (*candidate).marked.load(Ordering::Acquire) };
                    if !already {
                        // SAFETY: `candidate` is live (as above) and was
                        // seen fully linked; its lock is held through
                        // `guard` and it was unmarked under that lock, which
                        // is `unlink_marked`'s contract.
                        unsafe {
                            (*candidate).marked.store(true, Ordering::Release);
                            return Some(self.unlink_marked(candidate, guard));
                        }
                    }
                    drop(guard);
                }
                // SAFETY: `candidate` is non-null (loop condition) and nodes
                // are never freed while the list is alive.
                candidate = unsafe { &*candidate }.next[0].load(Ordering::Acquire);
            }
            // Walked off the end: the list may genuinely be empty, or the
            // spray overshot.  Retry (or fall through to the exact path).
            if self.is_empty() {
                return None;
            }
        }
        self.delete_min()
    }

    /// Verifies that every level's chain is strictly key-ordered.  Intended
    /// for quiescent diagnostics/tests only (racy under concurrency).
    /// Returns the offending level on failure.
    pub fn validate_order(&self) -> Result<(), usize> {
        let cap = self.allocations.lock().len() + 1;
        for level in 0..MAX_HEIGHT {
            let mut curr = self.head[level].load(Ordering::Acquire);
            let mut prev: Option<*mut Node<T>> = None;
            let mut steps = 0usize;
            while !curr.is_null() {
                steps += 1;
                if steps > cap {
                    // More steps than nodes ever allocated: the chain cycles.
                    return Err(1000 + level);
                }
                if let Some(p) = prev {
                    // SAFETY: nodes are never freed while the list is alive.
                    if unsafe { (*p).key >= (*curr).key } {
                        return Err(level);
                    }
                }
                prev = Some(curr);
                // SAFETY: `curr` is non-null (loop condition) and nodes are
                // never freed while the list is alive.
                curr = unsafe { &*curr }.next[level].load(Ordering::Acquire);
            }
        }
        Ok(())
    }

    /// Returns the current minimum value without removing it (racy; intended
    /// for diagnostics and tests).
    pub fn peek_min(&self) -> Option<T> {
        let mut curr = self.head[0].load(Ordering::Acquire);
        while !curr.is_null() {
            // SAFETY: nodes are never freed while the list is alive.
            let (linked, marked, value) = unsafe {
                (
                    (*curr).fully_linked.load(Ordering::Acquire),
                    (*curr).marked.load(Ordering::Acquire),
                    (*curr).key.value,
                )
            };
            if linked && !marked {
                return Some(value);
            }
            // SAFETY: `curr` is non-null (loop condition) and nodes are
            // never freed while the list is alive.
            curr = unsafe { &*curr }.next[0].load(Ordering::Acquire);
        }
        None
    }
}

impl<T: Ord + Copy> Drop for ConcurrentSkipList<T> {
    fn drop(&mut self) {
        for &node in self.allocations.lock().iter() {
            // SAFETY: every pointer in `allocations` came from Box::into_raw
            // and is dropped exactly once, here.
            unsafe {
                drop(Box::from_raw(node));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use std::sync::Arc;

    #[test]
    fn sequential_insert_delete_min_is_sorted() {
        let list = ConcurrentSkipList::new();
        let mut rng = Pcg32::new(3);
        for v in [5u64, 2, 9, 1, 7, 3, 8, 0, 6, 4] {
            list.insert(v, &mut rng);
        }
        assert_eq!(list.len(), 10);
        let drained: Vec<u64> = std::iter::from_fn(|| list.delete_min()).collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        assert!(list.is_empty());
        assert_eq!(list.delete_min(), None);
    }

    #[test]
    fn duplicates_fifo_among_equal_priorities() {
        let list = ConcurrentSkipList::new();
        let mut rng = Pcg32::new(4);
        for v in [7u64, 7, 7, 1, 1] {
            list.insert(v, &mut rng);
        }
        let drained: Vec<u64> = std::iter::from_fn(|| list.delete_min()).collect();
        assert_eq!(drained, vec![1, 1, 7, 7, 7]);
    }

    #[test]
    fn peek_min_matches_delete_min() {
        let list = ConcurrentSkipList::new();
        let mut rng = Pcg32::new(5);
        for v in [30u64, 10, 20] {
            list.insert(v, &mut rng);
        }
        assert_eq!(list.peek_min(), Some(10));
        assert_eq!(list.delete_min(), Some(10));
        assert_eq!(list.peek_min(), Some(20));
    }

    #[test]
    fn spray_returns_every_element_exactly_once() {
        let list = ConcurrentSkipList::new();
        let mut rng = Pcg32::new(6);
        let n = 500u64;
        for v in 0..n {
            list.insert(v, &mut rng);
        }
        let mut seen = vec![false; n as usize];
        while let Some(v) = list.spray_delete_min(&mut rng, SprayParams::default()) {
            assert!(!seen[v as usize], "value {v} returned twice");
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some values were never returned");
    }

    #[test]
    fn spray_is_biased_towards_small_values() {
        // The first spray from a large list should land near the front.
        let list = ConcurrentSkipList::new();
        let mut rng = Pcg32::new(7);
        let n = 10_000u64;
        for v in 0..n {
            list.insert(v, &mut rng);
        }
        let mut max_seen = 0;
        for _ in 0..50 {
            let v = list
                .spray_delete_min(&mut rng, SprayParams::default())
                .unwrap();
            max_seen = max_seen.max(v);
        }
        assert!(
            max_seen < n / 4,
            "spray landed too deep into the list: {max_seen}"
        );
    }

    #[test]
    fn concurrent_inserts_and_deletes_conserve_elements() {
        hang_guard(|| {
            let threads = 4;
            let per_thread = 2_000u64;
            let list = Arc::new(ConcurrentSkipList::new());

            std::thread::scope(|s| {
                for t in 0..threads {
                    let list = Arc::clone(&list);
                    s.spawn(move || {
                        let mut rng = Pcg32::for_thread(42, t as usize);
                        for i in 0..per_thread {
                            list.insert(t * per_thread + i, &mut rng);
                        }
                    });
                }
            });
            assert_eq!(list.len(), (threads * per_thread) as usize);

            let drained = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|s| {
                for t in 0..threads {
                    let list = Arc::clone(&list);
                    let drained = Arc::clone(&drained);
                    s.spawn(move || {
                        let mut rng = Pcg32::for_thread(43, t as usize);
                        let mut local = 0;
                        loop {
                            let use_spray = t % 2 == 0;
                            let got = if use_spray {
                                list.spray_delete_min(&mut rng, SprayParams::default())
                            } else {
                                list.delete_min()
                            };
                            if got.is_none() {
                                break;
                            }
                            local += 1;
                        }
                        drained.fetch_add(local, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(
                drained.load(Ordering::Relaxed),
                (threads * per_thread) as usize
            );
            assert!(list.is_empty());
        });
    }

    #[test]
    fn concurrent_mixed_workload_terminates_and_balances() {
        hang_guard(|| {
            let list = Arc::new(ConcurrentSkipList::new());
            let inserted = Arc::new(AtomicUsize::new(0));
            let removed = Arc::new(AtomicUsize::new(0));
            std::thread::scope(|s| {
                for t in 0..4 {
                    let list = Arc::clone(&list);
                    let inserted = Arc::clone(&inserted);
                    let removed = Arc::clone(&removed);
                    s.spawn(move || {
                        let mut rng = Pcg32::for_thread(77, t);
                        for i in 0..3_000u64 {
                            if rng.next_bounded(2) == 0 {
                                list.insert(rng.next_u64() >> 32, &mut rng);
                                inserted.fetch_add(1, Ordering::Relaxed);
                            } else if list
                                .spray_delete_min(&mut rng, SprayParams::default())
                                .is_some()
                            {
                                removed.fetch_add(1, Ordering::Relaxed);
                            }
                            let _ = i;
                        }
                    });
                }
            });
            let live = inserted.load(Ordering::Relaxed) - removed.load(Ordering::Relaxed);
            assert_eq!(list.len(), live, "len accounting drifted");
            // Drain what's left and ensure it all comes back out.
            let mut count = 0;
            while list.delete_min().is_some() {
                count += 1;
            }
            assert_eq!(count, live);
        });
    }

    /// Regression test for the head-sentinel race: with tiny equal-ish keys
    /// every insert's pred and every delete-min's pred is the head, so a
    /// front-insert validating `head[level]` concurrently with a
    /// front-unlink used to overwrite each other's store and re-link an
    /// excised (marked) node — permanently stranding it and livelocking
    /// all later head-adjacent operations.  With `head_lock` in the
    /// protocol the run must terminate with every element delivered exactly
    /// once and strictly ordered chains.
    #[test]
    fn concurrent_head_churn_conserves_elements() {
        hang_guard(|| {
            use std::sync::Arc;
            for trial in 0..8u64 {
                let list: Arc<ConcurrentSkipList<u64>> = Arc::new(ConcurrentSkipList::new());
                let popped = Arc::new(AtomicUsize::new(0));
                let threads = 2;
                let per_thread = 4_000usize;
                std::thread::scope(|s| {
                    for t in 0..threads {
                        let list = Arc::clone(&list);
                        let popped = Arc::clone(&popped);
                        s.spawn(move || {
                            let mut rng = Pcg32::for_thread(trial, t);
                            for _ in 0..per_thread {
                                // Keys from a tiny range concentrate all
                                // structural activity at the head.
                                list.insert(rng.next_bounded(4) as u64, &mut rng);
                                if list.delete_min().is_some() {
                                    popped.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        });
                    }
                });
                assert!(list.validate_order().is_ok(), "chain order corrupted");
                while list.delete_min().is_some() {
                    popped.fetch_add(1, Ordering::Relaxed);
                }
                assert_eq!(
                    popped.load(Ordering::Relaxed),
                    threads * per_thread,
                    "trial {trial}: elements lost or double-delivered"
                );
            }
        });
    }
}
