//! The scheduler families the replay tests drive, each built from fixed
//! seeds: the SMQ on a heap and on a skip list, the classic,
//! temporal-locality and batching Multi-Queues, RELD, OBIM, PMOD and the
//! SprayList.  Included by `#[path]` from the suites that replay one script
//! or one job on every family (`pop_paths`, `fingerprints`,
//! `engine_properties`).

use smq_repro::core::{Probability, Scheduler, Task};
use smq_repro::multiqueue::{DeletePolicy, InsertPolicy, MultiQueue, MultiQueueConfig, Reld};
use smq_repro::obim::{Obim, ObimConfig};
use smq_repro::smq::{HeapSmq, SkipListSmq, SmqConfig};
use smq_repro::spraylist::{SprayList, SprayListConfig};

/// Something to do with one family, whatever its scheduler type: `make`
/// builds a fresh, identically seeded scheduler each time it is called.
pub trait FamilyVisitor {
    fn visit<S: Scheduler<Task>>(&mut self, label: &str, make: impl Fn() -> S);
}

/// The heap SMQ and the skip-list SMQ, stealing with probability 1/2.
pub fn smq_families(threads: usize, visitor: &mut impl FamilyVisitor) {
    let config = SmqConfig::default_for_threads(threads)
        .with_p_steal(Probability::new(2))
        .with_seed(11);
    visitor.visit("HeapSmq", || HeapSmq::<Task>::new(config.clone()));
    visitor.visit("SkipListSmq", || SkipListSmq::<Task>::new(config.clone()));
}

/// The classic, temporal-locality and batching Multi-Queues.
pub fn multiqueue_families(threads: usize, visitor: &mut impl FamilyVisitor) {
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
        let config = MultiQueueConfig::classic(threads)
            .with_insert(insert)
            .with_delete(delete)
            .with_seed(12);
        visitor.visit(label, || MultiQueue::<Task>::new(config.clone()));
    }
}

/// RELD, OBIM, PMOD and the SprayList.
pub fn other_families(threads: usize, visitor: &mut impl FamilyVisitor) {
    visitor.visit("RELD", || Reld::<Task>::new(threads, 2, 13));
    visitor.visit("OBIM", || {
        Obim::<Task>::new(ObimConfig::obim(threads, 4, 8))
    });
    visitor.visit("PMOD", || {
        Obim::<Task>::new(ObimConfig::pmod(threads, 4, 8))
    });
    visitor.visit("SprayList", || {
        SprayList::<Task>::new(SprayListConfig::default_for_threads(threads))
    });
}

/// Every family, in the order above.
pub fn each_family(threads: usize, visitor: &mut impl FamilyVisitor) {
    smq_families(threads, visitor);
    multiqueue_families(threads, visitor);
    other_families(threads, visitor);
}
