//! The heap the schedulers use: a [`DAryHeap`] of one-word tasks while
//! every task it holds fits in a word, a [`DAryHeap`] of the tasks
//! themselves otherwise.

use smq_core::TaskWord;

use crate::DAryHeap;

/// A 4-ary min-heap that keeps each element as its one `u64` word
/// ([`TaskWord`]) while every element it holds has one, and as itself
/// otherwise.
///
/// A `Task` whose key and value both fit in 32 bits is the word
/// `key << 32 | value`, whose order is the task's order, so the heap pops
/// exactly what a `DAryHeap<Task>` would, moving and comparing 8 bytes per
/// element instead of 16.
///
/// * **Narrow** is the starting form: a `DAryHeap<u64>` of words.
/// * **Wide.**  The first element without a word rebuilds the heap as a
///   `DAryHeap<T>`, one O(n) bulk load, and the heap stays wide.
/// * **Narrow again.**  A wide heap that is empty turns narrow when the
///   next element has a word.  A scheduler's heaps drain whenever its
///   pool goes quiescent, so every job on a resident pool starts narrow.
#[derive(Debug, Clone)]
pub struct PackedHeap<T> {
    form: Form<T>,
}

/// The two forms of a [`PackedHeap`].
#[derive(Debug, Clone)]
enum Form<T> {
    /// Every element has a word; the heap holds the words.
    Narrow(DAryHeap<u64>),
    /// Some element had no word when it arrived.
    Wide(DAryHeap<T>),
}

impl<T: Ord + TaskWord> Default for PackedHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Ord + TaskWord> PackedHeap<T> {
    /// Creates an empty, narrow heap.
    pub fn new() -> Self {
        Self {
            form: Form::Narrow(DAryHeap::new()),
        }
    }

    /// Number of elements currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.form {
            Form::Narrow(words) => words.len(),
            Form::Wide(heap) => heap.len(),
        }
    }

    /// `true` if the heap holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The minimum element, if any.
    #[inline]
    pub fn peek(&self) -> Option<T> {
        match &self.form {
            Form::Narrow(words) => words.peek().map(|&word| T::from_word(word)),
            Form::Wide(heap) => heap.peek().copied(),
        }
    }

    /// Inserts an element.
    #[inline]
    pub fn push(&mut self, item: T) {
        match &mut self.form {
            Form::Narrow(words) => {
                if let Some(word) = item.to_word() {
                    words.push(word);
                    return;
                }
            }
            Form::Wide(heap) => {
                if !heap.is_empty() || item.to_word().is_none() {
                    heap.push(item);
                    return;
                }
            }
        }
        self.switch_with(item);
    }

    /// Rebuilds the heap in its other form, with `item` added: a narrow
    /// heap goes wide for an `item` without a word, an empty wide heap goes
    /// narrow for one with a word.
    ///
    /// Out of line and cold: it runs only when the form changes, and
    /// keeping it out of `push` leaves the hot path one form check around
    /// one kernel call.
    #[cold]
    #[inline(never)]
    fn switch_with(&mut self, item: T) {
        self.form = match std::mem::replace(&mut self.form, Form::Narrow(DAryHeap::new())) {
            Form::Narrow(words) => {
                let mut heap = DAryHeap::new();
                heap.extend(words.iter().map(|&word| T::from_word(word)).chain([item]));
                Form::Wide(heap)
            }
            Form::Wide(_) => Form::Narrow(item.to_word().into_iter().collect()),
        };
    }

    /// Removes and returns the minimum element, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<T> {
        match &mut self.form {
            Form::Narrow(words) => words.pop().map(T::from_word),
            Form::Wide(heap) => heap.pop(),
        }
    }

    /// Pops up to `k` smallest elements, in ascending order, appending them
    /// to `out`.  Returns how many elements were moved.
    pub fn pop_batch_into(&mut self, k: usize, out: &mut Vec<T>) -> usize {
        match &mut self.form {
            Form::Narrow(words) => {
                let before = out.len();
                out.extend(std::iter::from_fn(|| words.pop()).take(k).map(T::from_word));
                out.len() - before
            }
            Form::Wide(heap) => heap.pop_batch_into(k, out),
        }
    }

    /// Inserts every element of `items`, in bulk as
    /// [`DAryHeap::extend`] does.  The first element decides the form of
    /// an empty heap, as a push would; the first without a word turns a
    /// narrow heap wide.
    pub fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        let mut items = items.into_iter();
        let Some(first) = items.next() else {
            return;
        };
        self.push(first);
        if let Form::Narrow(words) = &mut self.form {
            let mut misfit = None;
            words.extend(items.by_ref().map_while(|item| {
                let word = item.to_word();
                if word.is_none() {
                    misfit = Some(item);
                }
                word
            }));
            let Some(item) = misfit else {
                return;
            };
            self.switch_with(item);
        }
        if let Form::Wide(heap) = &mut self.form {
            heap.extend(items);
        }
    }

    /// `true` while the heap holds words.
    #[cfg(test)]
    fn is_narrow(&self) -> bool {
        matches!(self.form, Form::Narrow(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use smq_core::Task;

    /// A task that fits in a word.
    fn fits(key: u64, value: u64) -> Task {
        let task = Task::new(key, value);
        assert!(task.to_word().is_some());
        task
    }

    #[test]
    fn the_form_follows_the_tasks() {
        let mut heap = PackedHeap::new();
        assert!(heap.is_narrow());
        heap.extend([fits(5, 1), fits(2, 9), fits(7, 0)]);
        assert!(heap.is_narrow());
        assert_eq!(heap.peek(), Some(fits(2, 9)));

        // A value past 32 bits rebuilds the heap wide, contents intact.
        let wide = Task::new(3, 1 << 40);
        heap.push(wide);
        assert!(!heap.is_narrow());
        assert_eq!(heap.len(), 4);
        // Fitting tasks join a non-empty wide heap as they are.
        heap.push(fits(1, 1));
        assert!(!heap.is_narrow());
        let mut out = Vec::new();
        assert_eq!(heap.pop_batch_into(3, &mut out), 3);
        assert_eq!(out, [fits(1, 1), fits(2, 9), wide]);
        assert_eq!(heap.pop(), Some(fits(5, 1)));
        assert_eq!(heap.pop(), Some(fits(7, 0)));
        assert_eq!(heap.pop(), None);

        // Empty and wide: a misfit keeps it wide, ...
        heap.push(Task::new(1 << 33, 0));
        assert!(!heap.is_narrow());
        assert_eq!(heap.pop(), Some(Task::new(1 << 33, 0)));
        // ... a task that fits turns it narrow.
        let edge = fits(u64::from(u32::MAX), u64::from(u32::MAX));
        heap.push(edge);
        assert!(heap.is_narrow());
        assert_eq!(heap.peek(), Some(edge));
        assert_eq!(heap.pop(), Some(edge));

        // A misfit in the middle of a bulk load widens the heap once and
        // the rest of the run follows it.
        heap.extend([fits(4, 4), Task::new(2, u64::MAX), fits(3, 3), fits(1, 1)]);
        assert!(!heap.is_narrow());
        assert_eq!(heap.len(), 4);
        let mut out = Vec::new();
        assert_eq!(heap.pop_batch_into(9, &mut out), 4);
        assert_eq!(
            out,
            [fits(1, 1), Task::new(2, u64::MAX), fits(3, 3), fits(4, 4)]
        );

        // An empty wide heap loaded in bulk takes the form of the run's
        // first task.
        heap.extend([fits(8, 8), fits(6, 6)]);
        assert!(heap.is_narrow());
        assert_eq!(heap.pop(), Some(fits(6, 6)));
    }

    #[test]
    fn u64_heaps_are_always_narrow() {
        let mut heap: PackedHeap<u64> = PackedHeap::default();
        heap.extend([u64::MAX, 0, 1 << 40]);
        heap.push(7);
        assert!(heap.is_narrow());
        let mut out = Vec::new();
        heap.pop_batch_into(4, &mut out);
        assert_eq!(out, [0, 7, 1 << 40, u64::MAX]);
    }

    /// The operands of one task of a script: a key, how to build the task,
    /// and random bits.
    type Operand = (u64, u8, u64);

    /// One task of a script: mostly tasks that fit, with keys and values
    /// near the 32-bit edge and a few that do not fit.
    fn task((key, how, raw): Operand) -> Task {
        let edge = u64::from(u32::MAX);
        match how {
            // The value does not fit (unless `raw` happens to be small).
            0 => Task::new(key, raw),
            // The key does not fit unless `key` is 0.
            1 => Task::new(edge + key, raw & edge),
            // Both at the edge, still fitting.
            2 => Task::new(edge, edge),
            3 => Task::new(key, edge),
            _ => Task::new(key, raw & 0xFF),
        }
    }

    /// Replays `ops` on a [`PackedHeap`] and on a `DAryHeap<Task>`; every
    /// result, length and peek must agree.  Returns how often the packed
    /// heap changed form.
    fn replay(ops: &[(u8, Vec<Operand>)]) -> usize {
        let mut packed = PackedHeap::new();
        let mut plain: DAryHeap<Task> = DAryHeap::new();
        let mut switches = 0;
        let mut narrow = packed.is_narrow();
        for (code, operands) in ops {
            let run: Vec<Task> = operands.iter().copied().map(task).collect();
            match code {
                0..=9 => {
                    if let Some(&t) = run.first() {
                        packed.push(t);
                        plain.push(t);
                    }
                }
                10..=17 => assert_eq!(packed.pop(), plain.pop()),
                18..=21 => {
                    let (mut a, mut b) = (vec![Task::EMPTY], vec![Task::EMPTY]);
                    let moved = packed.pop_batch_into(run.len(), &mut a);
                    assert_eq!(moved, plain.pop_batch_into(run.len(), &mut b));
                    assert_eq!(a, b);
                }
                22..=27 => {
                    packed.extend(run.iter().copied());
                    plain.extend(run.iter().copied());
                }
                _ => {
                    // Drain, so that a wide heap gets the chance to turn
                    // narrow again.
                    while let Some(t) = plain.pop() {
                        assert_eq!(packed.pop(), Some(t));
                    }
                }
            }
            assert_eq!(packed.len(), plain.len());
            assert_eq!(packed.is_empty(), plain.is_empty());
            assert_eq!(packed.peek(), plain.peek().copied());
            switches += usize::from(packed.is_narrow() != narrow);
            narrow = packed.is_narrow();
        }
        let mut rest = Vec::new();
        packed.pop_batch_into(usize::MAX, &mut rest);
        assert_eq!(rest, plain.into_sorted_vec());
        switches
    }

    #[test]
    fn scripts_switch_both_ways() {
        // A fixed script: fill narrow, widen, drain, narrow again.
        let ops = [
            (22, vec![(3, 9, 7), (1, 9, 2), (2, 3, 0)]),
            (0, vec![(2, 0, u64::MAX)]),
            (10, vec![]),
            (31, vec![]),
            (0, vec![(5, 9, 5)]),
            (18, vec![(0, 0, 0); 2]),
        ];
        assert_eq!(replay(&ops), 2);
    }

    proptest! {
        #[test]
        fn packed_heap_matches_a_plain_heap(
            ops in proptest::collection::vec(
                (0u8..32, proptest::collection::vec((0u64..48, 0u8..24, any::<u64>()), 0..20)),
                1..160)
        ) {
            replay(&ops);
        }

        #[test]
        fn packed_heap_matches_a_plain_heap_when_most_tasks_fit(
            ops in proptest::collection::vec(
                (0u8..32, proptest::collection::vec((0u64..48, 0u8..96, any::<u64>()), 0..20)),
                1..160)
        ) {
            // One task in 48 does not fit, so heaps stay narrow for a while
            // before a misfit widens them.
            replay(&ops);
        }
    }
}
