//! One conservation property for every scheduler: whatever two threads do
//! with their handles — push, `push_batch`, pop, `pop_batch`, flush, drop a
//! handle and take a new one — every task pushed comes back exactly once,
//! counted and xor-ed by task id, once what is left has been drained.
//!
//! The schedulers are the SMQ on a heap and on a skip list, the Multi-Queue
//! under every insert × delete policy, RELD, OBIM, PMOD and the SprayList.
//! Each run is under `common::hang_guard`, so a lost wake-up or a drain that
//! never ends fails by name instead of hanging the suite.

mod common;

use proptest::prelude::*;
use smq_repro::core::{Probability, Scheduler, SchedulerHandle, Task};
use smq_repro::multiqueue::{DeletePolicy, InsertPolicy, MultiQueue, MultiQueueConfig, Reld};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::smq::{HeapSmq, SkipListSmq, SmqConfig};
use smq_repro::spraylist::{SprayList, SprayListConfig};

const THREADS: usize = 2;

/// One step of a thread's script: an op code and an operand that sizes it.
type Step = (u8, u8);

/// Up to 160 random steps.
fn script() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec((any::<u8>(), any::<u8>()), 0..160)
}

/// How many tasks went in and came out, and the xor of their ids.
#[derive(Default)]
struct Tally {
    pushed: u64,
    pushed_xor: u64,
    popped: u64,
    popped_xor: u64,
}

impl Tally {
    fn pushed(&mut self, task: Task) {
        self.pushed += 1;
        self.pushed_xor ^= task.value;
    }

    fn popped(&mut self, tasks: impl IntoIterator<Item = Task>) {
        for task in tasks {
            self.popped += 1;
            self.popped_xor ^= task.value;
        }
    }

    fn add(&mut self, other: &Tally) {
        self.pushed += other.pushed;
        self.pushed_xor ^= other.pushed_xor;
        self.popped += other.popped;
        self.popped_xor ^= other.popped_xor;
    }
}

/// Task number `serial` of `thread`: its value is an id unique across
/// threads, its key one of 1 024 priorities.
fn task(thread: usize, serial: u64) -> Task {
    let id = (thread as u64) << 32 | serial;
    Task::new(id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 54, id)
}

/// Plays `script` on the handle of `thread`.
fn play<S: Scheduler<Task>>(scheduler: &S, thread: usize, script: &[Step]) -> Tally {
    let mut tally = Tally::default();
    let mut serial = 0;
    let mut fresh = |tally: &mut Tally| {
        serial += 1;
        let task = task(thread, serial);
        tally.pushed(task);
        task
    };
    let mut handle = scheduler.handle(thread);
    let mut batch = Vec::new();
    for &(code, size) in script {
        match code % 8 {
            0 | 1 => handle.push(fresh(&mut tally)),
            2 => {
                // Up to 39 tasks: past the Multi-Queue's batch split and
                // past every buffer threshold below.
                batch.extend((0..size % 40).map(|_| fresh(&mut tally)));
                handle.push_batch(&mut batch);
            }
            3 | 4 => tally.popped(handle.pop()),
            5 => {
                let mut out = Vec::new();
                handle.pop_batch(&mut out, usize::from(size % 12) + 1);
                tally.popped(out);
            }
            6 => handle.flush(),
            _ => {
                drop(handle);
                handle = scheduler.handle(thread);
            }
        }
    }
    tally
}

/// Pops until a round over every thread id finds nothing.  A relaxed pop
/// may miss tasks that are there, so a handle gives up only after 64 misses
/// in a row.
fn drain<S: Scheduler<Task>>(scheduler: &S) -> Tally {
    let mut tally = Tally::default();
    loop {
        let before = tally.popped;
        for thread in 0..scheduler.num_threads() {
            let mut handle = scheduler.handle(thread);
            let mut misses = 0;
            while misses < 64 {
                match handle.pop() {
                    Some(task) => {
                        tally.popped(Some(task));
                        misses = 0;
                    }
                    None => misses += 1,
                }
            }
        }
        if tally.popped == before {
            return tally;
        }
    }
}

/// Plays the two scripts concurrently on a scheduler from `make`, drains
/// it, and checks that every task came back exactly once.
fn check<S: Scheduler<Task>>(
    label: String,
    make: impl FnOnce() -> S + Send + 'static,
    scripts: [Vec<Step>; THREADS],
) {
    common::hang_guard(move || {
        let scheduler = make();
        let mut total = std::thread::scope(|s| {
            let threads: Vec<_> = scripts
                .iter()
                .enumerate()
                .map(|(thread, script)| {
                    let scheduler = &scheduler;
                    s.spawn(move || play(scheduler, thread, script))
                })
                .collect();
            let mut total = Tally::default();
            for thread in threads {
                let tally = thread
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                total.add(&tally);
            }
            total
        });
        total.add(&drain(&scheduler));
        assert_eq!(
            total.popped, total.pushed,
            "{label}: tasks lost or duplicated"
        );
        assert_eq!(
            total.popped_xor, total.pushed_xor,
            "{label}: task ids differ"
        );
    });
}

/// The three insert policies of the Multi-Queue.
fn insert_policies() -> [InsertPolicy; 3] {
    [
        InsertPolicy::Direct,
        InsertPolicy::TemporalLocality(Probability::new(4)),
        InsertPolicy::Batching(8),
    ]
}

/// The three delete policies of the Multi-Queue.
fn delete_policies() -> [DeletePolicy; 3] {
    [
        DeletePolicy::TwoChoice,
        DeletePolicy::TemporalLocality(Probability::new(4)),
        DeletePolicy::Batching(8),
    ]
}

proptest! {
    #[test]
    fn smq_conserves_every_task(a in script(), b in script()) {
        let config = SmqConfig::default_for_threads(THREADS)
            .with_p_steal(Probability::new(4))
            .with_seed(1);
        check("HeapSmq".into(), move || HeapSmq::<Task>::new(config), [a.clone(), b.clone()]);
        let config = SmqConfig::default_for_threads(THREADS).with_seed(2);
        check("SkipListSmq".into(), move || SkipListSmq::<Task>::new(config), [a, b]);
    }

    #[test]
    fn multiqueue_policy_grid_conserves_every_task(a in script(), b in script()) {
        for insert in insert_policies() {
            for delete in delete_policies() {
                let config = MultiQueueConfig::classic(THREADS)
                    .with_insert(insert)
                    .with_delete(delete)
                    .with_seed(3);
                check(
                    format!("MultiQueue {insert:?} x {delete:?}"),
                    move || MultiQueue::<Task>::new(config),
                    [a.clone(), b.clone()],
                );
            }
        }
    }

    #[test]
    fn reld_obim_pmod_and_spraylist_conserve_every_task(a in script(), b in script()) {
        check("RELD".into(), || Reld::<Task>::new(THREADS, 2, 4), [a.clone(), b.clone()]);
        check(
            "OBIM".into(),
            || Obim::<Task>::new(ObimConfig::obim(THREADS, 4, 8)),
            [a.clone(), b.clone()],
        );
        check(
            "PMOD".into(),
            || Obim::<Task>::new(ObimConfig::pmod(THREADS, 4, 8)),
            [a.clone(), b.clone()],
        );
        check(
            "SprayList".into(),
            || SprayList::<Task>::new(SprayListConfig::default_for_threads(THREADS)),
            [a, b],
        );
    }
}
