//! Task and priority abstractions.
//!
//! Every scheduler in this workspace stores *prioritized tasks* and removes
//! tasks of (approximately) minimal priority — mirroring the paper's
//! convention where "`a < b`" means task `a` has **higher** priority than
//! task `b` (e.g. a smaller tentative distance in Dijkstra's SSSP).

/// A task whose priority key can be read as a raw `u64` snapshot; smaller
/// keys are removed first.
///
/// The schedulers only ever inspect [`HasKey::key`], never the payload, so
/// graph algorithms are free to pack whatever they need into the task value
/// (a node id, a component id, an edge index, ...).  OBIM/PMOD bucket tasks
/// by it, and it is the contract behind the *cached top-key* optimisation:
/// schedulers publish the key of a queue's current minimum in a plain
/// `AtomicU64` (`u64::MAX` when the queue is empty) so that the two-choice
/// delete can compare candidate queues **without acquiring their locks**.
/// The key must therefore order exactly like the task itself on its
/// priority component: `a.key() <= b.key()` whenever `a <= b` up to
/// tie-breaking.
///
/// Implemented by [`Task`] and the keyed primitives the schedulers are
/// instantiated with in tests and benchmarks.  `u64::MAX` doubles as the
/// "empty" sentinel, matching [`Task::EMPTY`].
pub trait HasKey {
    /// The raw priority key.  **Lower keys are higher priority.**
    fn key(&self) -> u64;
}

impl HasKey for Task {
    #[inline]
    fn key(&self) -> u64 {
        self.key
    }
}

impl HasKey for u64 {
    #[inline]
    fn key(&self) -> u64 {
        *self
    }
}

impl HasKey for u32 {
    #[inline]
    fn key(&self) -> u64 {
        u64::from(*self)
    }
}

impl HasKey for u16 {
    #[inline]
    fn key(&self) -> u64 {
        u64::from(*self)
    }
}

impl HasKey for (u64, u64) {
    #[inline]
    fn key(&self) -> u64 {
        self.0
    }
}

impl HasKey for (u32, u32) {
    #[inline]
    fn key(&self) -> u64 {
        u64::from(self.0)
    }
}

/// A task as two `u64` words: how the SMQ's stealing buffers store it, so a
/// thief's optimistic copy is two atomic loads, not a racy read of plain
/// memory.  `from_words(to_words(t)) == t` must hold.
pub trait TaskWords: Copy {
    /// The task as two words.
    fn to_words(self) -> [u64; 2];

    /// The task that [`to_words`](Self::to_words) turned into `words`.
    fn from_words(words: [u64; 2]) -> Self;
}

impl TaskWords for Task {
    #[inline]
    fn to_words(self) -> [u64; 2] {
        [self.key, self.value]
    }

    #[inline]
    fn from_words([key, value]: [u64; 2]) -> Self {
        Self { key, value }
    }
}

impl TaskWords for u64 {
    fn to_words(self) -> [u64; 2] {
        [self, 0]
    }

    fn from_words([key, _]: [u64; 2]) -> Self {
        key
    }
}

impl TaskWords for (u64, u64) {
    fn to_words(self) -> [u64; 2] {
        [self.0, self.1]
    }

    fn from_words([a, b]: [u64; 2]) -> Self {
        (a, b)
    }
}

/// The concrete task type used by the graph algorithms and benchmarks:
/// a `(priority key, payload)` pair that fits in 16 bytes and is `Copy`,
/// which lets the lock-free stealing buffers publish a task as two atomic
/// words ([`TaskWords`]), validated by an epoch check (see `smq-scheduler`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    /// The priority key.  Lower keys are removed first.
    pub key: u64,
    /// An opaque payload (typically a vertex id).
    pub value: u64,
}

impl Task {
    /// Creates a new task with the given priority key and payload.
    #[inline]
    pub const fn new(key: u64, value: u64) -> Self {
        Self { key, value }
    }

    /// A sentinel task with the worst possible priority, used by empty
    /// stealing buffers and empty heaps when a "top" value must be produced.
    pub const EMPTY: Task = Task {
        key: u64::MAX,
        value: u64::MAX,
    };

    /// Returns `true` if this task is the [`Task::EMPTY`] sentinel.
    #[inline]
    pub const fn is_empty_sentinel(&self) -> bool {
        self.key == u64::MAX && self.value == u64::MAX
    }
}

impl PartialOrd for Task {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Task {
    /// Tasks are ordered by priority key, with the payload as a tie-breaker
    /// so that the ordering is total (required by the heap property tests).
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.value.cmp(&other.value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_orders_by_key_then_value() {
        let a = Task::new(1, 100);
        let b = Task::new(2, 0);
        let c = Task::new(1, 101);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn key_is_the_priority() {
        let t = Task::new(42, 7);
        assert_eq!(t.key(), 42);
    }

    #[test]
    fn empty_sentinel_has_worst_priority() {
        let t = Task::new(u64::MAX - 1, 0);
        assert!(t < Task::EMPTY);
        assert!(Task::EMPTY.is_empty_sentinel());
        assert!(!t.is_empty_sentinel());
    }

    #[test]
    fn tuple_and_integer_impls() {
        assert_eq!(5u64.key(), 5);
        assert_eq!(5u32.key(), 5);
        assert_eq!(5u16.key(), 5);
        assert_eq!((3u64, 9u64).key(), 3);
        assert_eq!((3u32, 9u32).key(), 3);
        assert_eq!(u64::from_words(7u64.to_words()), 7);
        assert_eq!(<(u64, u64)>::from_words((3, 9).to_words()), (3, 9));
    }

    #[test]
    fn task_is_small_and_copy() {
        // The lock-free buffers rely on tasks being cheap to copy.
        assert!(std::mem::size_of::<Task>() <= 16);
        let t = Task::new(1, 2);
        let u = t; // Copy
        assert_eq!(t, u);
        assert_eq!(t.to_words(), [1, 2]);
        assert_eq!(Task::from_words(t.to_words()), t);
    }
}
