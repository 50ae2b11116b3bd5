//! `SchedulerHandle::pop_batch` is documented as equivalent to calling
//! `pop` up to `max` times.  For `max = 1` that is checked exactly here:
//! every scheduler family, driven twice by the same seeded script, must
//! hand out the same tasks in the same order through `pop()` as through
//! `pop_batch(_, 1)`.
//!
//! One thread drives T = 4 handles round-robin, so each run is a function of
//! the seeds.  The families are the SMQ on a heap and on a skip list, the
//! classic, temporal-locality and batching Multi-Queues, RELD, OBIM, PMOD and
//! the SprayList.

use smq_repro::core::rng::Pcg32;
use smq_repro::core::{Probability, Scheduler, SchedulerHandle, Task};
use smq_repro::multiqueue::{DeletePolicy, InsertPolicy, MultiQueue, MultiQueueConfig, Reld};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::smq::{HeapSmq, SkipListSmq, SmqConfig};
use smq_repro::spraylist::{SprayList, SprayListConfig};

const THREADS: usize = 4;
const STEPS: usize = 6_000;

/// Which call a run takes a task out with.
#[derive(Clone, Copy, Debug)]
enum PopWith {
    Pop,
    BatchOfOne,
}

/// Plays the script of `seed` on `scheduler` and returns every pop's
/// outcome, in order, with the handle it came from.
fn pop_sequence<S: Scheduler<Task>>(
    scheduler: &S,
    seed: u64,
    with: PopWith,
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
            0..=6 => handle.push(fresh()),
            7 => {
                let len = fresh().key % 12;
                batch.extend((0..len).map(|_| fresh()));
                handle.push_batch(&mut batch);
            }
            _ => {
                let task = match with {
                    PopWith::Pop => handle.pop(),
                    PopWith::BatchOfOne => {
                        out.clear();
                        handle.pop_batch(&mut out, 1);
                        assert!(out.len() <= 1, "pop_batch(_, 1) returned {out:?}");
                        out.first().copied()
                    }
                };
                pops.push((thread, task));
            }
        }
    }
    pops
}

/// Both runs of `make`'s scheduler hand out the same pop sequence.
fn check<S: Scheduler<Task>>(label: &str, make: impl Fn() -> S) {
    for seed in 1..=3 {
        let by_pop = pop_sequence(&make(), seed, PopWith::Pop);
        let by_batch = pop_sequence(&make(), seed, PopWith::BatchOfOne);
        assert!(
            by_pop.iter().filter(|(_, task)| task.is_some()).count() > STEPS / 4,
            "{label}: the script pops too little to tell"
        );
        if let Some(step) = (0..by_pop.len()).find(|&i| by_pop[i] != by_batch[i]) {
            panic!(
                "{label}, seed {seed}: pop number {step} differs: pop() gave {:?}, pop_batch(_, 1) gave {:?}",
                by_pop[step], by_batch[step]
            );
        }
        assert_eq!(by_pop.len(), by_batch.len(), "{label}, seed {seed}");
    }
}

#[test]
fn smq_pop_batch_of_one_replays_pop() {
    let config = SmqConfig::default_for_threads(THREADS)
        .with_p_steal(Probability::new(2))
        .with_seed(11);
    check("HeapSmq", || HeapSmq::<Task>::new(config.clone()));
    check("SkipListSmq", || SkipListSmq::<Task>::new(config.clone()));
}

#[test]
fn multiqueue_pop_batch_of_one_replays_pop() {
    let variants = [
        ("classic", InsertPolicy::Direct, DeletePolicy::TwoChoice),
        (
            "temporal locality",
            InsertPolicy::TemporalLocality(Probability::new(4)),
            DeletePolicy::TemporalLocality(Probability::new(4)),
        ),
        (
            "batching",
            InsertPolicy::Batching(8),
            DeletePolicy::Batching(8),
        ),
    ];
    for (label, insert, delete) in variants {
        let config = MultiQueueConfig::classic(THREADS)
            .with_insert(insert)
            .with_delete(delete)
            .with_seed(12);
        check(label, || MultiQueue::<Task>::new(config.clone()));
    }
}

#[test]
fn reld_obim_pmod_and_spraylist_pop_batch_of_one_replays_pop() {
    check("RELD", || Reld::<Task>::new(THREADS, 2, 13));
    check("OBIM", || {
        Obim::<Task>::new(ObimConfig::obim(THREADS, 4, 8))
    });
    check("PMOD", || {
        Obim::<Task>::new(ObimConfig::pmod(THREADS, 4, 8))
    });
    check("SprayList", || {
        SprayList::<Task>::new(SprayListConfig::default_for_threads(THREADS))
    });
}
