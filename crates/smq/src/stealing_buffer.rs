//! The lock-free stealing buffer of Listing 4.
//!
//! Each thread-local queue carries one of these fixed-capacity buffers.  The
//! queue's owner periodically moves its best `STEAL_SIZE` tasks into the
//! buffer ([`StealingBuffer::fill`]); any thread — including the owner — can
//! atomically claim the *entire* batch ([`StealingBuffer::steal_into`]) or
//! read its best task ([`StealingBuffer::top`]).
//!
//! All metadata lives in a single 64-bit word packing the buffer **epoch**,
//! the current **length**, and the **"tasks are stolen" flag**, exactly as
//! the paper describes.  The slots form a seqlock over atomic words: each
//! is two `AtomicU64` holding a task's [`TaskWords`], stored and loaded
//! `Relaxed`, so a copy racing the owner's rewrite races on atomics, never
//! on plain memory.  A reader loads an un-stolen state word, loads the slot
//! words, issues an `Acquire` fence, then re-checks the state word (`top`)
//! or claims the batch with one CAS from it (`steal_into`).  The owner
//! rewrites slots only while the stolen flag is set and every refill bumps
//! the epoch, so an unchanged word proves that each loaded word belongs to
//! the batch that word published.
//!
//! `fill`'s `Release` fence before its slot stores is the seqlock's writer
//! half: a reader that loads any word of a refill synchronizes with it at
//! its `Acquire` fence, so its re-check sees at least the stolen state the
//! owner read before writing, and fails.  A copy mixing two batches' words
//! (a slot is two loads) is thrown away, never exposed.

use std::marker::PhantomData;
use std::sync::atomic::{fence, AtomicU64, Ordering};

use crossbeam_utils::CachePadded;
use smq_core::{HasKey, TaskWords};

/// Packed state word layout: bit 0 = stolen flag, bits 1..=16 = length,
/// bits 17..   = epoch.
const STOLEN_BIT: u64 = 1;
const LEN_SHIFT: u32 = 1;
const LEN_MASK: u64 = 0xFFFF << LEN_SHIFT;
const EPOCH_SHIFT: u32 = 17;

/// Maximum number of tasks a single buffer can hold (bounded by the packed
/// length field; far above any `STEAL_SIZE` the paper sweeps).
pub const MAX_CAPACITY: usize = 0xFFFF;

#[inline]
fn pack(epoch: u64, len: usize, stolen: bool) -> u64 {
    debug_assert!(len <= MAX_CAPACITY);
    (epoch << EPOCH_SHIFT) | ((len as u64) << LEN_SHIFT) | u64::from(stolen)
}

#[inline]
fn unpack(state: u64) -> (u64, usize, bool) {
    (
        state >> EPOCH_SHIFT,
        ((state & LEN_MASK) >> LEN_SHIFT) as usize,
        state & STOLEN_BIT != 0,
    )
}

/// A fixed-capacity buffer of tasks that can be stolen wholesale by any
/// thread.  See the module documentation for the protocol.
pub struct StealingBuffer<T> {
    state: AtomicU64,
    /// Cached key of `slots[0]`, `u64::MAX` when there is nothing to steal.
    /// **Written only by the owner** — published (clamped to `u64::MAX - 1`)
    /// on every fill, retracted by the owner when it finds its buffer stolen
    /// with nothing to republish.  This is the same *top-key snapshot* idiom
    /// the Multi-Queue uses for its sub-queues: a prospective thief compares
    /// this single relaxed word against its own local top instead of running
    /// the seqlock read loop of [`Self::top`], and only pays for validated
    /// slot reads once it decides to steal.  After a steal and before the
    /// owner's next operation the snapshot is stale (still the old key); a
    /// thief acting on it merely loses one failed claim attempt.
    top_key: CachePadded<AtomicU64>,
    /// Each task's [`TaskWords`], written by the owner only while stolen.
    slots: Box<[[AtomicU64; 2]]>,
    /// `T` is held only as words, so the buffer is `Send + Sync` for any `T`.
    _task: PhantomData<fn() -> T>,
}

impl<T: TaskWords> StealingBuffer<T> {
    /// Creates an empty buffer with room for `capacity` tasks.  The buffer
    /// starts in the *stolen* state (epoch 0), matching Listing 4, so the
    /// owner's first `fill` publishes epoch 1.
    pub fn new(capacity: usize) -> Self {
        assert!(
            (1..=MAX_CAPACITY).contains(&capacity),
            "capacity must be in 1..={MAX_CAPACITY}"
        );
        Self {
            state: AtomicU64::new(pack(0, 0, true)),
            top_key: CachePadded::new(AtomicU64::new(u64::MAX)),
            slots: (0..capacity)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
            _task: PhantomData,
        }
    }

    /// The cached priority key of the buffer's best task, `u64::MAX` when
    /// the buffer is stolen or was never filled.
    ///
    /// Advisory: a thief uses it to decide *whether* stealing is worthwhile;
    /// the actual claim ([`Self::steal_into`]) re-validates through the
    /// epoch-checked state word, so a stale snapshot can only cost a wasted
    /// attempt, never a torn task.
    #[inline]
    pub fn top_key(&self) -> u64 {
        self.top_key.load(Ordering::Acquire)
    }

    /// The buffer's capacity (`STEAL_SIZE`).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// `true` if the buffer's contents have been claimed (or it has never
    /// been filled): the owner should refill it on its next operation.
    pub fn is_stolen(&self) -> bool {
        unpack(self.state.load(Ordering::Acquire)).2
    }

    /// The current epoch (diagnostics/tests).
    pub fn epoch(&self) -> u64 {
        unpack(self.state.load(Ordering::Acquire)).0
    }

    /// Attempts to claim the whole published batch, appending the tasks (in
    /// ascending priority order) to `out`.  Returns the number of tasks
    /// transferred; 0 means the buffer was stolen or empty.
    ///
    /// Kept out of line, like [`fill`](Self::fill): both run once per
    /// stolen batch, not once per task, and when the compiler folds them
    /// into `SmqHandle::claim_buffer` the handle's `pop` grows past what
    /// gets inlined into a worker loop.  Left to the inliner, that depends
    /// on how unrelated code falls into codegen units: `hold_smq` read
    /// 20.8 M vs 19.0 M pairs/s between two builds whose SMQ source was
    /// identical.
    #[inline(never)]
    pub fn steal_into(&self, out: &mut Vec<T>) -> usize {
        loop {
            let before = self.state.load(Ordering::Acquire);
            let (_, len, stolen) = unpack(before);
            if stolen || len == 0 {
                return 0;
            }
            let start = out.len();
            // Optimistic: kept only if the CAS below proves `state` never
            // left `before`, otherwise truncated away.
            out.extend(self.slots[..len].iter().map(load::<T>));
            fence(Ordering::Acquire);
            match self.state.compare_exchange(
                before,
                before | STOLEN_BIT,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    // Note: the thief deliberately does NOT retract the
                    // advisory `top_key` — only the owner writes it (see
                    // `retract_top_key`).  A thief-side store could race a
                    // concurrent owner refill and overwrite the *new*
                    // batch's key with `u64::MAX`, permanently hiding a
                    // claimable buffer from every other thief.  The stale
                    // key left behind here merely costs the next thief one
                    // failed claim attempt.
                    return len;
                }
                Err(_) => {
                    // Someone else claimed the batch (or the owner refilled);
                    // discard the optimistic copy and retry.
                    out.truncate(start);
                }
            }
        }
    }
}

/// One slot's task, as two `Relaxed` loads that the caller validates.
#[inline]
fn load<T: TaskWords>(slot: &[AtomicU64; 2]) -> T {
    T::from_words([
        slot[0].load(Ordering::Relaxed),
        slot[1].load(Ordering::Relaxed),
    ])
}

impl<T: TaskWords + HasKey> StealingBuffer<T> {
    /// Publishes a new batch of tasks.  **Owner only**, and only while the
    /// buffer is in the stolen state (the flag is what gives the owner
    /// exclusive write access to the slots).
    ///
    /// # Panics
    /// Panics if the buffer is not currently stolen, if `tasks` is empty, or
    /// if it exceeds the capacity.
    #[inline(never)]
    pub fn fill(&self, tasks: &[T]) {
        let state = self.state.load(Ordering::Acquire);
        let (epoch, _, stolen) = unpack(state);
        assert!(
            stolen,
            "fill() requires the buffer to be in the stolen state"
        );
        assert!(!tasks.is_empty(), "fill() requires at least one task");
        assert!(tasks.len() <= self.capacity(), "fill() exceeds capacity");
        // The seqlock's writer fence: a reader that loads a word stored
        // below fails its re-check of `state` (module docs).
        fence(Ordering::Release);
        for (slot, task) in self.slots.iter().zip(tasks) {
            let [a, b] = task.to_words();
            slot[0].store(a, Ordering::Relaxed);
            slot[1].store(b, Ordering::Relaxed);
        }
        // Publish the advisory snapshot before the batch becomes claimable
        // so no thief can observe a claimable batch with a MAX snapshot.
        // Clamped to `u64::MAX - 1`: `u64::MAX` is reserved as the pure
        // "nothing here" sentinel, so a legitimate MAX-keyed task can never
        // make the buffer advertise itself as empty.
        self.top_key
            .store(tasks[0].key().min(u64::MAX - 1), Ordering::Release);
        self.state
            .store(pack(epoch + 1, tasks.len(), false), Ordering::Release);
    }

    /// Retracts the advisory top-key snapshot (sets it to `u64::MAX`).
    /// **Owner only**, and only while the buffer is stolen: the owner calls
    /// this when it observes the stolen state but has nothing to refill
    /// with, so thieves stop considering a buffer that stayed empty.
    pub fn retract_top_key(&self) {
        debug_assert!(self.is_stolen(), "retract requires the stolen state");
        if self.top_key.load(Ordering::Relaxed) != u64::MAX {
            self.top_key.store(u64::MAX, Ordering::Release);
        }
    }

    /// Reads the highest-priority task in the buffer (`tasks[0]`; the owner
    /// fills the buffer in ascending priority order), or `None` if the
    /// buffer is stolen or empty.
    pub fn top(&self) -> Option<T> {
        loop {
            let before = self.state.load(Ordering::Acquire);
            let (_, len, stolen) = unpack(before);
            if stolen || len == 0 {
                return None;
            }
            // Optimistic; a value mixing two batches fails the check below.
            let value = load(&self.slots[0]);
            fence(Ordering::Acquire);
            if self.state.load(Ordering::Acquire) == before {
                return Some(value);
            }
        }
    }
}

impl<T: TaskWords> std::fmt::Debug for StealingBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (epoch, len, stolen) = unpack(self.state.load(Ordering::Acquire));
        f.debug_struct("StealingBuffer")
            .field("capacity", &self.capacity())
            .field("epoch", &epoch)
            .field("len", &len)
            .field("stolen", &stolen)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::hang_guard;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pack_unpack_round_trip() {
        for &(epoch, len, stolen) in &[(0u64, 0usize, true), (1, 4, false), (12345, 65535, true)] {
            assert_eq!(unpack(pack(epoch, len, stolen)), (epoch, len, stolen));
        }
    }

    #[test]
    fn starts_stolen_and_empty() {
        let buf: StealingBuffer<u64> = StealingBuffer::new(4);
        assert!(buf.is_stolen());
        assert_eq!(buf.top(), None);
        let mut out = Vec::new();
        assert_eq!(buf.steal_into(&mut out), 0);
        assert!(out.is_empty());
    }

    #[test]
    fn top_key_tracks_fill_and_owner_retract() {
        let buf: StealingBuffer<u64> = StealingBuffer::new(4);
        assert_eq!(buf.top_key(), u64::MAX);
        buf.fill(&[3, 5]);
        assert_eq!(buf.top_key(), 3);
        let mut out = Vec::new();
        assert_eq!(buf.steal_into(&mut out), 2);
        // Thieves never write the snapshot (a racing write could hide a
        // freshly refilled batch); the stale key stays until the owner acts.
        assert_eq!(buf.top_key(), 3);
        buf.retract_top_key();
        assert_eq!(buf.top_key(), u64::MAX);
        // MAX-keyed tasks clamp to MAX - 1 so a full buffer never
        // advertises itself as empty.
        buf.fill(&[u64::MAX]);
        assert_eq!(buf.top_key(), u64::MAX - 1);
    }

    #[test]
    fn fill_publishes_and_bumps_epoch() {
        let buf: StealingBuffer<u64> = StealingBuffer::new(4);
        assert_eq!(buf.epoch(), 0);
        buf.fill(&[1, 2, 3]);
        assert_eq!(buf.epoch(), 1);
        assert!(!buf.is_stolen());
        assert_eq!(buf.top(), Some(1));
        let mut out = Vec::new();
        assert_eq!(buf.steal_into(&mut out), 3);
    }

    #[test]
    fn steal_claims_exactly_once() {
        let buf: StealingBuffer<u64> = StealingBuffer::new(4);
        buf.fill(&[10, 20, 30]);
        let mut a = Vec::new();
        let mut b = Vec::new();
        assert_eq!(buf.steal_into(&mut a), 3);
        assert_eq!(buf.steal_into(&mut b), 0);
        assert_eq!(a, vec![10, 20, 30]);
        assert!(b.is_empty());
        assert!(buf.is_stolen());
        assert_eq!(buf.top(), None);
    }

    #[test]
    fn refill_after_steal_uses_new_epoch() {
        let buf: StealingBuffer<u64> = StealingBuffer::new(2);
        buf.fill(&[1]);
        let mut out = Vec::new();
        buf.steal_into(&mut out);
        buf.fill(&[2, 3]);
        assert_eq!(buf.epoch(), 2);
        assert_eq!(buf.top(), Some(2));
        out.clear();
        assert_eq!(buf.steal_into(&mut out), 2);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "stolen state")]
    fn fill_while_published_panics() {
        let buf: StealingBuffer<u64> = StealingBuffer::new(2);
        buf.fill(&[1]);
        buf.fill(&[2]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn overfull_fill_panics() {
        let buf: StealingBuffer<u64> = StealingBuffer::new(2);
        buf.fill(&[1, 2, 3]);
    }

    #[test]
    fn concurrent_thieves_claim_each_batch_once() {
        hang_guard(|| {
            // One owner repeatedly publishes batches; several thieves race to
            // claim them.  Every published task must be claimed exactly once.
            const BATCHES: usize = 2_000;
            const BATCH: usize = 4;
            let buf: StealingBuffer<u64> = StealingBuffer::new(BATCH);
            let claimed = AtomicUsize::new(0);
            let done = std::sync::atomic::AtomicBool::new(false);
            let total_sum = AtomicUsize::new(0);

            std::thread::scope(|s| {
                // Thieves.
                for _ in 0..3 {
                    let buf = &buf;
                    let claimed = &claimed;
                    let done = &done;
                    let total_sum = &total_sum;
                    s.spawn(move || {
                        let mut out = Vec::new();
                        loop {
                            out.clear();
                            let n = buf.steal_into(&mut out);
                            if n > 0 {
                                claimed.fetch_add(n, Ordering::Relaxed);
                                total_sum.fetch_add(
                                    out.iter().map(|&v| v as usize).sum(),
                                    Ordering::Relaxed,
                                );
                            } else if done.load(Ordering::Acquire) && buf.is_stolen() {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    });
                }
                // Owner.
                let buf = &buf;
                let done = &done;
                s.spawn(move || {
                    let mut next = 0u64;
                    for _ in 0..BATCHES {
                        // Wait until the previous batch has been claimed.
                        while !buf.is_stolen() {
                            std::hint::spin_loop();
                        }
                        let batch: Vec<u64> = (next..next + BATCH as u64).collect();
                        next += BATCH as u64;
                        buf.fill(&batch);
                    }
                    // Wait for the last batch to be taken before signalling done.
                    while !buf.is_stolen() {
                        std::hint::spin_loop();
                    }
                    done.store(true, Ordering::Release);
                });
            });

            let expected_tasks = BATCHES * BATCH;
            assert_eq!(claimed.load(Ordering::Relaxed), expected_tasks);
            let expected_sum: usize = (0..expected_tasks).sum();
            assert_eq!(total_sum.load(Ordering::Relaxed), expected_sum);
        });
    }

    #[test]
    fn top_is_stable_across_concurrent_steals() {
        hang_guard(|| {
            // `top` must only ever return a value that was genuinely the first
            // element of some published batch, and a steal only whole tasks of
            // one batch: each slot is two separate word loads, so the epoch
            // re-check must throw away any pair mixing two batches.
            let buf: StealingBuffer<(u64, u64)> = StealingBuffer::new(2);
            let stop = std::sync::atomic::AtomicBool::new(false);
            std::thread::scope(|s| {
                let buf_ref = &buf;
                let stop_ref = &stop;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in 0..20_000u64 {
                        // Batches always have matching components so a torn read
                        // would be detectable.
                        while !buf_ref.is_stolen() {
                            out.clear();
                            buf_ref.steal_into(&mut out);
                        }
                        buf_ref.fill(&[(i, i), (i, i)]);
                    }
                    stop_ref.store(true, Ordering::Release);
                });
                s.spawn(move || {
                    let mut out = Vec::new();
                    while !stop_ref.load(Ordering::Acquire) {
                        if let Some((a, b)) = buf_ref.top() {
                            assert_eq!(a, b, "torn read observed");
                        }
                        out.clear();
                        buf_ref.steal_into(&mut out);
                        for &(a, b) in &out {
                            assert_eq!(a, b, "torn steal observed");
                        }
                        assert!(out.windows(2).all(|w| w[0] == w[1]), "mixed batches stolen");
                    }
                });
            });
        });
    }
}
