//! Seeded input generators.
//!
//! Everything a workload feeds the product is derived here from `--seed`.
//! The product never sees the seed or a workload name, and the benchmark
//! uses its own generator rather than the product's `Pcg32`, so a change
//! to the product cannot change the inputs it is measured on.

/// SplitMix64 (Steele et al., 2014).
pub struct Rng(u64);

impl Rng {
    /// Stream `stream` of seed `seed`; distinct streams do not correlate.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Poisson arrivals: due times in nanoseconds from the start of the run,
/// ascending, covering `[0, horizon_s)` at `rate_per_s`.
pub fn poisson_due_times(rng: &mut Rng, rate_per_s: f64, horizon_s: f64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let horizon_ns = horizon_s * 1e9;
    let mut due = Vec::with_capacity((rate_per_s * horizon_s * 1.05) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += -mean_gap_ns * (1.0 - rng.next_f64()).ln();
        if t >= horizon_ns {
            return due;
        }
        due.push(t as u64);
    }
}

/// The open-loop send schedule.  A request is handed out once the clock
/// has passed its due time and keeps that due time however late it is
/// sent, so a stall in the generator or the service is charged to every
/// request it delayed.
pub struct OpenLoop {
    due_ns: Vec<u64>,
    next: usize,
}

impl OpenLoop {
    pub fn new(due_ns: Vec<u64>) -> Self {
        Self { due_ns, next: 0 }
    }

    /// The next request due at or before `now_ns`, as `(index, due_ns)`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<(usize, u64)> {
        let due = *self.due_ns.get(self.next)?;
        if due > now_ns {
            return None;
        }
        self.next += 1;
        Some((self.next - 1, due))
    }

    /// Due time of the next unsent request, `None` when all are sent.
    pub fn next_due(&self) -> Option<u64> {
        self.due_ns.get(self.next).copied()
    }
}

/// Zipf(1) over ranks `0..n`: rank `i` has weight `1 / (i + 1)`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let cumulative = (0..n)
            .map(|i| {
                acc += 1.0 / (i as f64 + 1.0);
                acc
            })
            .collect();
        Self { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.next_f64() * self.cumulative[self.cumulative.len() - 1];
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// Draws source/target pairs a fixed number of grid cells apart.  It knows
/// the graph only through its public vertex coordinates, which it rounds
/// to cells.
pub struct LocalPairs {
    cell_of: Vec<(i64, i64)>,
    vertex_at: Vec<u32>,
    width: i64,
    height: i64,
    radius: i64,
}

impl LocalPairs {
    pub fn new(coordinates: &[(f64, f64)], radius: u32) -> Self {
        let cell_of: Vec<(i64, i64)> = coordinates
            .iter()
            .map(|&(x, y)| (x.round().max(0.0) as i64, y.round().max(0.0) as i64))
            .collect();
        let width = cell_of.iter().map(|c| c.0).max().unwrap_or(0) + 1;
        let height = cell_of.iter().map(|c| c.1).max().unwrap_or(0) + 1;
        let mut vertex_at = vec![u32::MAX; (width * height) as usize];
        for (v, &(x, y)) in cell_of.iter().enumerate() {
            vertex_at[(y * width + x) as usize] = v as u32;
        }
        assert!(
            cell_of.len() >= 2 && radius >= 1,
            "need two vertices to pair"
        );
        Self {
            cell_of,
            vertex_at,
            width,
            height,
            radius: i64::from(radius),
        }
    }

    /// A pair whose target lies exactly `radius` cells from the source
    /// along one axis and at most that along the other: a ring, so that
    /// routes are of one length class and the few pairs at the head of a
    /// Zipf distribution cannot make one seed's stream much heavier than
    /// another's.
    pub fn sample(&self, rng: &mut Rng) -> (u32, u32) {
        loop {
            let source = rng.below(self.cell_of.len() as u64) as u32;
            let (sx, sy) = self.cell_of[source as usize];
            // A point on the perimeter of the square of half-side `radius`.
            let along = rng.below(2 * self.radius as u64) as i64 - self.radius;
            let (dx, dy) = match rng.below(4) {
                0 => (along, -self.radius),
                1 => (self.radius, along),
                2 => (-along, self.radius),
                _ => (-self.radius, -along),
            };
            let (x, y) = (sx + dx, sy + dy);
            if x < 0 || y < 0 || x >= self.width || y >= self.height {
                continue;
            }
            let target = self.vertex_at[(y * self.width + x) as usize];
            if target != u32::MAX {
                return (source, target);
            }
        }
    }
}

/// One route query: a member of the hot set (by index) or a fresh pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Query {
    pub hot: Option<u32>,
    pub source: u32,
    pub target: u32,
}

/// Share of the stream drawn from the hot set, in percent.
const HOT_PERCENT: u64 = 70;
/// After this many queries of a stream, popularity moves on: Zipf rank `r`
/// then names the hot pair `ROTATE_STRIDE` further along.  Ten pairs at the
/// head of Zipf(1) are a quarter of all queries, so without the drift one
/// seed's ten decide how heavy its whole run is; with it a window sees
/// many heads and seeds differ by a third as much.
const ROTATE_EVERY: u64 = 1024;
const ROTATE_STRIDE: usize = 97;

/// The route query stream of one client: 70 % Zipf(1) over the hot set,
/// whose popularity drifts, and 30 % fresh pairs, so that an answer cache
/// would see realistic rather than total reuse.
pub struct QueryStream<'a> {
    rng: Rng,
    zipf: &'a Zipf,
    hot: &'a [(u32, u32)],
    pairs: &'a LocalPairs,
    sent: u64,
}

impl<'a> QueryStream<'a> {
    pub fn new(
        seed: u64,
        client: u64,
        pairs: &'a LocalPairs,
        hot: &'a [(u32, u32)],
        zipf: &'a Zipf,
    ) -> Self {
        Self {
            rng: Rng::new(seed, 0x5171 + client),
            zipf,
            hot,
            pairs,
            sent: 0,
        }
    }
}

impl Iterator for QueryStream<'_> {
    type Item = Query;

    fn next(&mut self) -> Option<Query> {
        let shift = (self.sent / ROTATE_EVERY) as usize * ROTATE_STRIDE;
        self.sent += 1;
        Some(if self.rng.below(100) < HOT_PERCENT {
            let i = (self.zipf.sample(&mut self.rng) + shift) % self.hot.len();
            let (source, target) = self.hot[i];
            Query {
                hot: Some(i as u32),
                source,
                target,
            }
        } else {
            let (source, target) = self.pairs.sample(&mut self.rng);
            Query {
                hot: None,
                source,
                target,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 40 x 25 grid of jittered coordinates, row-major like the road
    /// generator's.
    fn grid() -> LocalPairs {
        let mut jitter = Rng::new(99, 0);
        let coordinates: Vec<(f64, f64)> = (0..25)
            .flat_map(|y| (0..40).map(move |x| (x as f64, y as f64)))
            .map(|(x, y)| {
                (
                    x + jitter.next_f64() * 0.2 - 0.1,
                    y + jitter.next_f64() * 0.2 - 0.1,
                )
            })
            .collect();
        LocalPairs::new(&coordinates, 6)
    }

    fn hot_set(seed: u64, pairs: &LocalPairs) -> Vec<(u32, u32)> {
        let mut rng = Rng::new(seed, 1);
        (0..64).map(|_| pairs.sample(&mut rng)).collect()
    }

    fn stream_bytes(seed: u64) -> Vec<u8> {
        let pairs = grid();
        let hot = hot_set(seed, &pairs);
        let zipf = Zipf::new(hot.len());
        let queries: Vec<Query> = QueryStream::new(seed, 0, &pairs, &hot, &zipf)
            .take(500)
            .collect();
        let due = poisson_due_times(&mut Rng::new(seed, 2), 10_000.0, 0.05);
        format!("{queries:?}{due:?}").into_bytes()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(stream_bytes(7), stream_bytes(7));
        assert_ne!(stream_bytes(7), stream_bytes(8));
    }

    #[test]
    fn streams_of_two_clients_differ() {
        let pairs = grid();
        let hot = hot_set(3, &pairs);
        let zipf = Zipf::new(hot.len());
        let a: Vec<Query> = QueryStream::new(3, 0, &pairs, &hot, &zipf)
            .take(50)
            .collect();
        let b: Vec<Query> = QueryStream::new(3, 1, &pairs, &hot, &zipf)
            .take(50)
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn stream_mixes_hot_and_fresh() {
        let pairs = grid();
        let hot = hot_set(5, &pairs);
        let zipf = Zipf::new(hot.len());
        let queries: Vec<Query> = QueryStream::new(5, 0, &pairs, &hot, &zipf)
            .take(10_000)
            .collect();
        let hot_share =
            queries.iter().filter(|q| q.hot.is_some()).count() as f64 / queries.len() as f64;
        assert!((hot_share - 0.70).abs() < 0.03, "hot share {hot_share}");
        // Popularity drifts: in the second epoch the head of the
        // distribution is another pair than in the first.
        let epoch = ROTATE_EVERY as usize;
        let draws = |range: std::ops::Range<usize>, index: usize| {
            queries[range]
                .iter()
                .filter(|q| q.hot == Some(index as u32))
                .count()
        };
        let moved = ROTATE_STRIDE % hot.len();
        assert!(draws(0..epoch, 0) > 2 * draws(0..epoch, moved));
        assert!(draws(epoch..2 * epoch, moved) > 2 * draws(epoch..2 * epoch, 0));
    }

    #[test]
    fn zipf_halves_from_rank_to_rank() {
        let zipf = Zipf::new(64);
        let mut rng = Rng::new(21, 0);
        let mut counts = [0u32; 64];
        for _ in 0..200_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let ratio = |a: usize, b: usize| f64::from(counts[a]) / f64::from(counts[b]);
        assert!((ratio(0, 1) - 2.0).abs() < 0.1, "{}", ratio(0, 1));
        assert!((ratio(1, 3) - 2.0).abs() < 0.1, "{}", ratio(1, 3));
        assert!(counts[63] > 0);
    }

    #[test]
    fn pairs_lie_on_the_ring() {
        let pairs = grid();
        let mut rng = Rng::new(1, 0);
        for _ in 0..5_000 {
            let (s, t) = pairs.sample(&mut rng);
            let (sx, sy) = (i64::from(s % 40), i64::from(s / 40));
            let (tx, ty) = (i64::from(t % 40), i64::from(t / 40));
            let distance = (sx - tx).abs().max((sy - ty).abs());
            assert_eq!(distance, 6, "{s} -> {t}");
        }
    }

    #[test]
    fn poisson_rate_and_order() {
        let due = poisson_due_times(&mut Rng::new(11, 0), 20_000.0, 1.0);
        assert!((19_000..21_000).contains(&due.len()), "{}", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 1_000_000_000);
    }

    #[test]
    fn a_stalled_send_charges_later_requests_from_their_due_times() {
        // Requests due every 100 ns; the generator stalls until t = 1000.
        let mut schedule = OpenLoop::new((1..=20).map(|i| i * 100).collect());
        assert_eq!(schedule.pop_due(50), None, "nothing is due yet");
        assert_eq!(schedule.next_due(), Some(100));
        let now = 1000;
        let mut lateness = Vec::new();
        while let Some((index, due)) = schedule.pop_due(now) {
            assert_eq!(
                due,
                (index as u64 + 1) * 100,
                "due time is kept, not reset to now"
            );
            lateness.push(now - due);
        }
        // Ten requests were due during the stall; the first waited 900 ns.
        assert_eq!(
            lateness,
            vec![900, 800, 700, 600, 500, 400, 300, 200, 100, 0]
        );
        assert_eq!(schedule.next_due(), Some(1100));
        assert_eq!(schedule.pop_due(u64::MAX).map(|(i, _)| i), Some(10));
    }
}
