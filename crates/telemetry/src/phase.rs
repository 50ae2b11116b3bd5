//! Per-worker phase accounting: coarse worker-loop phases and plain-`u64`
//! per-worker accumulators merged after join (like `OpStats` — no atomics
//! on the hot path).

/// The coarse phases a worker-loop iteration is tagged into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Popping tasks from the scheduler (the scheduling decision itself).
    Pop,
    /// A pop that performed steal work (attributed via the handle's
    /// `steal_attempts` counter, so never on the Multi-Queue, which counts
    /// none; subsumes the victim comparison and claim).
    Steal,
    /// Executing the user's task-processing function.
    Process,
    /// Publishing buffered work (`flush` on the empty-pop path, where the
    /// worker makes thread-local work visible before concluding idleness).
    Flush,
    /// Backing off / yielding while the scheduler looks empty, and parking
    /// between pool jobs.  Covers the whole idle polling loop: once a
    /// worker parks, its empty pop attempts and no-op flushes coalesce
    /// into the `Park` span until a scan fires or a pop succeeds.
    Park,
    /// The O(threads) two-phase quiescence scan of termination detection.
    Scan,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 6] = [
        Phase::Pop,
        Phase::Steal,
        Phase::Process,
        Phase::Flush,
        Phase::Park,
        Phase::Scan,
    ];
}

/// Nanoseconds accumulated per phase by one worker (or merged across
/// workers).  Plain `u64`s: each worker owns its accumulator exclusively
/// while running and the pieces are summed after join, exactly like
/// `OpStats`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Nanoseconds spent making pop decisions (without steal work).
    pub pop_ns: u64,
    /// Nanoseconds spent in pops that performed steal work.
    pub steal_ns: u64,
    /// Nanoseconds spent executing tasks.
    pub process_ns: u64,
    /// Nanoseconds spent flushing local buffers on the empty-pop path.
    pub flush_ns: u64,
    /// Nanoseconds spent backing off / parked.
    pub park_ns: u64,
    /// Nanoseconds spent in quiescence scans.
    pub scan_ns: u64,
}

impl PhaseTimes {
    /// Adds `ns` to the accumulator of `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, ns: u64) {
        match phase {
            Phase::Pop => self.pop_ns += ns,
            Phase::Steal => self.steal_ns += ns,
            Phase::Process => self.process_ns += ns,
            Phase::Flush => self.flush_ns += ns,
            Phase::Park => self.park_ns += ns,
            Phase::Scan => self.scan_ns += ns,
        }
    }

    /// The accumulated nanoseconds of `phase`.
    pub fn get(&self, phase: Phase) -> u64 {
        match phase {
            Phase::Pop => self.pop_ns,
            Phase::Steal => self.steal_ns,
            Phase::Process => self.process_ns,
            Phase::Flush => self.flush_ns,
            Phase::Park => self.park_ns,
            Phase::Scan => self.scan_ns,
        }
    }

    /// Element-wise sum (the after-join merge).
    pub fn merge(&mut self, other: &PhaseTimes) {
        for phase in Phase::ALL {
            self.add(phase, other.get(phase));
        }
    }

    /// Total accounted nanoseconds across all phases.
    pub fn total_ns(&self) -> u64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// Fraction of accounted time spent in `phase` (0.0 when nothing was
    /// accounted).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total_ns();
        if total == 0 {
            0.0
        } else {
            self.get(phase) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_times_accumulate_and_merge() {
        let mut a = PhaseTimes::default();
        a.add(Phase::Pop, 5);
        a.add(Phase::Process, 10);
        let mut b = PhaseTimes::default();
        b.add(Phase::Pop, 1);
        b.add(Phase::Park, 100);
        a.merge(&b);
        assert_eq!(a.pop_ns, 6);
        assert_eq!(a.process_ns, 10);
        assert_eq!(a.park_ns, 100);
        assert_eq!(a.total_ns(), 116);
        assert!((a.fraction(Phase::Park) - 100.0 / 116.0).abs() < 1e-12);
        assert_eq!(PhaseTimes::default().fraction(Phase::Pop), 0.0);
    }
}
