//! `SchedulerHandle::pop_batch` is documented as equivalent to calling
//! `pop` up to `max` times, and `push_batch` as equivalent to calling
//! `push` once per task.  For one task that is checked exactly here: every
//! scheduler family, driven twice by the same seeded script, must hand out
//! the same tasks in the same order through `pop()` as through
//! `pop_batch(_, 1)`, and through `push()` as through `push_batch` of one
//! task.  The pool's worker loop relies on both: at batch 1 it makes exactly
//! these one-task batch calls.
//!
//! One thread drives T = 4 handles round-robin, so each run is a function of
//! the seeds.  The families are `common/families.rs`' list: the SMQ on a
//! heap and on a skip list, the classic, temporal-locality and batching
//! Multi-Queues, RELD, OBIM, PMOD and the SprayList.

#[path = "common/families.rs"]
mod families;

use families::{each_family, multiqueue_families, other_families, smq_families, FamilyVisitor};
use smq_repro::core::rng::Pcg32;
use smq_repro::core::{Scheduler, SchedulerHandle, Task};

const THREADS: usize = 4;
const STEPS: usize = 6_000;

/// Which one-task call a run replaces with its batch form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Path {
    /// `pop()` and `push()` throughout: the reference run.
    PerTask,
    /// Every `pop()` becomes `pop_batch(_, 1)`.
    PopBatchOfOne,
    /// Every `push(task)` becomes `push_batch` of that one task.
    PushBatchOfOne,
}

/// Plays the script of `seed` on `scheduler` and returns every pop's
/// outcome, in order, with the handle it came from.
fn pop_sequence<S: Scheduler<Task>>(
    scheduler: &S,
    seed: u64,
    path: Path,
) -> Vec<(usize, Option<Task>)> {
    let mut handles: Vec<_> = (0..THREADS).map(|t| scheduler.handle(t)).collect();
    let mut rng = Pcg32::new(seed);
    let mut serial = 0u64;
    let mut batch = Vec::new();
    let mut out = Vec::new();
    let mut pops = Vec::new();
    for step in 0..STEPS {
        let thread = step % THREADS;
        let handle = &mut handles[thread];
        let mut fresh = || {
            serial += 1;
            Task::new(u64::from(rng.next_u32() % 1024), serial)
        };
        // Slightly more pushes than pops, so queues build up and steals,
        // refills and buffered tasks all come into play.
        match fresh().key % 16 {
            0..=6 if path == Path::PushBatchOfOne => {
                batch.push(fresh());
                handle.push_batch(&mut batch);
            }
            0..=6 => handle.push(fresh()),
            7 => {
                let len = fresh().key % 12;
                batch.extend((0..len).map(|_| fresh()));
                handle.push_batch(&mut batch);
            }
            _ => {
                let task = if path == Path::PopBatchOfOne {
                    out.clear();
                    handle.pop_batch(&mut out, 1);
                    assert!(out.len() <= 1, "pop_batch(_, 1) returned {out:?}");
                    out.first().copied()
                } else {
                    handle.pop()
                };
                pops.push((thread, task));
            }
        }
    }
    pops
}

/// Checks that each visited family hands out the same pop sequence on
/// `path` as on the per-task path.
struct Replays(Path);

impl FamilyVisitor for Replays {
    fn visit<S: Scheduler<Task>>(&mut self, label: &str, make: impl Fn() -> S) {
        for seed in 1..=3 {
            let per_task = pop_sequence(&make(), seed, Path::PerTask);
            let batched = pop_sequence(&make(), seed, self.0);
            assert!(
                per_task.iter().filter(|(_, task)| task.is_some()).count() > STEPS / 4,
                "{label}: the script pops too little to tell"
            );
            if let Some(step) = (0..per_task.len()).find(|&i| per_task[i] != batched[i]) {
                panic!(
                    "{label}, seed {seed}, {:?}: pop number {step} differs: the per-task path gave {:?}, the batch of one gave {:?}",
                    self.0, per_task[step], batched[step]
                );
            }
            assert_eq!(per_task.len(), batched.len(), "{label}, seed {seed}");
        }
    }
}

#[test]
fn smq_pop_batch_of_one_replays_pop() {
    smq_families(THREADS, &mut Replays(Path::PopBatchOfOne));
}

#[test]
fn multiqueue_pop_batch_of_one_replays_pop() {
    multiqueue_families(THREADS, &mut Replays(Path::PopBatchOfOne));
}

#[test]
fn reld_obim_pmod_and_spraylist_pop_batch_of_one_replays_pop() {
    other_families(THREADS, &mut Replays(Path::PopBatchOfOne));
}

#[test]
fn every_family_push_batch_of_one_replays_push() {
    each_family(THREADS, &mut Replays(Path::PushBatchOfOne));
}
