//! Dense, reusable scratch buffers for the sweep hot paths.
//!
//! Every sweep in this workspace — Louvain local moving, the G-/A-TxAllo
//! optimization phases, METIS boundary refinement — needs, per node, the
//! total edge weight from that node into each *bucket* (community, shard or
//! part) its neighbors belong to. The seed implementation gathered these
//! into a fresh `FxHashMap<u32, f64>` and then sorted a copied `Vec` of the
//! entries, per node, per sweep: three allocations plus hashing of every
//! neighbor on the hottest loop in the system (§VI-B6 of the paper puts
//! Louvain initialization at 67.6 s of G-TxAllo's 122.3 s).
//!
//! [`DenseAccumulator`] replaces that with the classic index-addressed
//! sparse-set: a dense `Vec<f64>` indexed by bucket id, an epoch-stamp
//! array marking which slots are live, and a touched-list recording the
//! buckets hit by the current node. `begin` is O(1) (it bumps the epoch
//! instead of zeroing), `add`/`get` are O(1) array accesses, and iterating
//! candidates in deterministic ascending-bucket order only sorts the
//! touched-list — whose length is the node's *distinct neighbor bucket*
//! count, typically a handful, instead of hashing and sorting every
//! neighbor entry.

/// Accumulates `f64` weights keyed by dense `u32` bucket ids, reusable
/// across sweep iterations without re-zeroing.
#[derive(Debug, Clone, Default)]
pub struct DenseAccumulator {
    weight: Vec<f64>,
    stamp: Vec<u64>,
    epoch: u64,
    touched: Vec<u32>,
}

impl DenseAccumulator {
    /// An empty accumulator; buckets are sized on first [`begin`].
    ///
    /// [`begin`]: DenseAccumulator::begin
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new accumulation round over bucket ids `0..buckets`.
    ///
    /// O(1) amortized: previous round's entries are invalidated by epoch
    /// bump, not by clearing.
    pub fn begin(&mut self, buckets: usize) {
        if self.weight.len() < buckets {
            self.weight.resize(buckets, 0.0);
            self.stamp.resize(buckets, 0);
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Adds `w` to `bucket`. First touch of a bucket this round registers
    /// it in the touched-list.
    #[inline]
    pub fn add(&mut self, bucket: u32, w: f64) {
        let i = bucket as usize;
        debug_assert!(i < self.weight.len(), "bucket {bucket} out of range");
        if self.stamp[i] == self.epoch {
            self.weight[i] += w;
        } else {
            self.stamp[i] = self.epoch;
            self.weight[i] = w;
            self.touched.push(bucket);
        }
    }

    /// Accumulated weight of `bucket` this round (0 if untouched).
    #[inline]
    pub fn get(&self, bucket: u32) -> f64 {
        let i = bucket as usize;
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            self.weight[i]
        } else {
            0.0
        }
    }

    /// Whether `bucket` was touched this round.
    #[inline]
    pub fn contains(&self, bucket: u32) -> bool {
        let i = bucket as usize;
        i < self.stamp.len() && self.stamp[i] == self.epoch
    }

    /// Number of distinct buckets touched this round.
    #[inline]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no bucket was touched this round.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Sorts the touched-list ascending, establishing the deterministic
    /// candidate order the sweep algorithms require.
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// The touched buckets, in insertion order (or ascending after
    /// [`sort_touched`]).
    ///
    /// [`sort_touched`]: DenseAccumulator::sort_touched
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// `(bucket, weight)` pairs in touched-list order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.touched
            .iter()
            .map(move |&b| (b, self.weight[b as usize]))
    }

    /// Approximate resident bytes (capacity, not length, of each buffer).
    pub fn approx_bytes(&self) -> usize {
        self.weight.capacity() * std::mem::size_of::<f64>()
            + self.stamp.capacity() * std::mem::size_of::<u64>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
    }
}

/// Per-row candidate cache and active set of the three incremental sweep
/// kernels: Louvain local moving, the TxAllo sweep (G-TxAllo's
/// optimization phase and A-TxAllo's epoch update, communities as
/// buckets) and the METIS FM boundary pass (parts as buckets).
///
/// A row's move decision depends on two inputs: its gathered
/// `(bucket, weight)` candidate list, which changes only when a neighbor
/// moves, and the state of the buckets it lists plus its own, which
/// changes only when a move touches them. The cache holds:
///
/// * a **flat candidate arena**: row `r` owns a fixed window of
///   `min(degree, buckets)` slots, the most distinct buckets its gather
///   can produce;
/// * the **stamp arrays**: a move stamp bumped on every committed move,
///   per-row `gathered_at`/`links_dirty`/`last_eval` stamps and per-bucket
///   stamps. A row whose neighbors moved since its gather is *stale*; a
///   fresh row whose listed buckets and own bucket are untouched since its
///   last evaluation would provably repeat that evaluation's no-move;
/// * a per-row **drift**, written beside the `links_dirty` stamp: the
///   summed edge weight of the neighbor moves since the row's gather,
///   rounded up at every addition. No bucket's link weight can have moved
///   further from the cached one than that, which is what lets a sweep
///   certify that a stale row cannot move without re-gathering it;
/// * an **active-position bitset**: a row whose candidates list no rival
///   bucket cannot move, so it leaves the set until a neighbor's move
///   re-activates it; a kernel may take out any other row it proves
///   cannot move before then ([`SweepCache::deactivate`]).
///
/// Rows are sweep positions (`0..rows`). A sweep walks the active rows in
/// ascending position with [`SweepCache::next_active`], which re-reads the
/// bitset word on every call: a row re-activated ahead of the cursor is
/// still visited in the same sweep, one behind it in the next — exactly
/// when a full scan of every row would first see it stale.
#[derive(Debug, Clone, Default)]
pub struct SweepCache {
    /// Row `r`'s arena window is `start[r]..start[r + 1]`.
    start: Vec<usize>,
    /// Cached candidates per row (a prefix of the row's window).
    filled: Vec<u32>,
    /// Grow-only: slots past `start[rows]` are left over from a larger
    /// shape and never read.
    arena: Vec<(u32, f64)>,
    last_eval: Vec<u64>,
    gathered_at: Vec<u64>,
    links_dirty: Vec<u64>,
    drift: Vec<f64>,
    bucket_stamp: Vec<u64>,
    move_stamp: u64,
    active: Vec<u64>,
}

impl SweepCache {
    /// A cache over one row per entry of `degrees` (in sweep position
    /// order) and buckets `0..buckets`. Every row starts active and stale.
    pub fn new(buckets: usize, degrees: impl IntoIterator<Item = usize>) -> Self {
        let mut cache = Self::default();
        cache.reset(buckets, degrees);
        cache
    }

    /// Re-shapes the cache in place, observationally equal to
    /// [`SweepCache::new`] with the same arguments. Every buffer keeps its
    /// capacity, so a cache carried across epochs allocates nothing once
    /// warm. The arena only grows and is not cleared: a row's cached
    /// candidates are read only after [`SweepCache::store`] wrote its
    /// window, and every row starts stale.
    pub fn reset(&mut self, buckets: usize, degrees: impl IntoIterator<Item = usize>) {
        self.start.clear();
        self.start.push(0);
        let mut slots = 0;
        for d in degrees {
            slots += d.min(buckets);
            self.start.push(slots);
        }
        let rows = self.start.len() - 1;
        if self.arena.len() < slots {
            self.arena.resize(slots, (0, 0.0));
        }
        refill(&mut self.filled, rows, 0);
        refill(&mut self.last_eval, rows, 0);
        refill(&mut self.gathered_at, rows, 0);
        refill(&mut self.links_dirty, rows, 1);
        refill(&mut self.drift, rows, 0.0);
        refill(&mut self.bucket_stamp, buckets, 1);
        self.move_stamp = 1;
        refill(&mut self.active, rows.div_ceil(64), u64::MAX);
        if let Some(last) = self.active.last_mut() {
            if !rows.is_multiple_of(64) {
                *last = (1u64 << (rows % 64)) - 1;
            }
        }
    }

    /// Approximate resident bytes (capacity, not length, of each buffer).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        self.start.capacity() * size_of::<usize>()
            + self.filled.capacity() * size_of::<u32>()
            + self.arena.capacity() * size_of::<(u32, f64)>()
            + self.drift.capacity() * size_of::<f64>()
            + (self.last_eval.capacity()
                + self.gathered_at.capacity()
                + self.links_dirty.capacity()
                + self.bucket_stamp.capacity()
                + self.active.capacity())
                * size_of::<u64>()
    }

    /// The first active row at position `from` or later.
    #[inline]
    pub fn next_active(&self, from: usize) -> Option<usize> {
        let mut word = from / 64;
        let mut bits = *self.active.get(word)? & (u64::MAX << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *self.active.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Whether a neighbor of row `r` moved since `r` was last gathered.
    #[inline]
    pub fn is_stale(&self, r: usize) -> bool {
        self.links_dirty[r] > self.gathered_at[r]
    }

    /// Whether fresh row `r`, in bucket `own`, would see exactly the
    /// inputs of its last evaluation: neither `own` nor any listed bucket
    /// was touched by a move since.
    #[inline]
    pub fn unchanged_since_eval(&self, r: usize, own: u32) -> bool {
        let seen = self.last_eval[r];
        self.bucket_stamp[own as usize] <= seen
            && self
                .candidates(r)
                .iter()
                .all(|&(c, _)| self.bucket_stamp[c as usize] <= seen)
    }

    /// Replaces row `r`'s candidates with a fresh gather (ascending bucket
    /// order, at most `min(degree, buckets)` entries).
    #[inline]
    pub fn store(&mut self, r: usize, candidates: impl IntoIterator<Item = (u32, f64)>) {
        let window = &mut self.arena[self.start[r]..self.start[r + 1]];
        let mut filled = 0usize;
        for entry in candidates {
            window[filled] = entry;
            filled += 1;
        }
        self.filled[r] = crate::fit_u32(filled);
        self.gathered_at[r] = self.move_stamp;
        self.drift[r] = 0.0;
    }

    /// Row `r`'s cached candidates.
    #[inline]
    fn candidates(&self, r: usize) -> &[(u32, f64)] {
        let s = self.start[r];
        &self.arena[s..s + self.filled[r] as usize]
    }

    /// Row `r`'s cached candidates and its drift: the summed weight of the
    /// neighbor moves since they were gathered, an upper bound on how far
    /// any bucket's link weight has moved from the cached one (a bucket the
    /// list lacks has cached weight 0). `None` before the row's first
    /// gather since the last reset.
    #[inline]
    pub fn cached_with_drift(&self, r: usize) -> Option<(&[(u32, f64)], f64)> {
        (self.gathered_at[r] > 0).then(|| (self.candidates(r), self.drift[r]))
    }

    /// Records a visit of stale row `r` that was certified not to move
    /// without a re-gather. The row keeps its stale stamp, candidates,
    /// drift and active bit, so its next visit tests it again. Returns
    /// whether a neighbor moved since the row was last gathered, evaluated
    /// or certified: whether a cache without certificates would have
    /// re-gathered it at this visit.
    #[inline]
    pub fn certify(&mut self, r: usize) -> bool {
        // `last_eval` of a stale row is free: it is read only for fresh
        // rows, and the gather that ends the row's staleness is followed
        // by `evaluate`, which overwrites it.
        let regather = self.links_dirty[r] > self.last_eval[r];
        self.last_eval[r] = self.move_stamp;
        regather
    }

    /// Records an evaluation of row `r`, in bucket `own`, and returns its
    /// candidates — or `None` when none is a rival bucket, in which case
    /// the row cannot move and leaves the active set until a neighbor's
    /// move re-activates it.
    #[inline]
    pub fn evaluate(&mut self, r: usize, own: u32) -> Option<&[(u32, f64)]> {
        self.last_eval[r] = self.move_stamp;
        if self.candidates(r).iter().all(|&(c, _)| c == own) {
            self.deactivate(r);
            return None;
        }
        Some(self.candidates(r))
    }

    /// Takes row `r` out of the active set until a neighbor's move
    /// re-activates it. Exact only when no visit of `r` before then could
    /// move it: its candidates list no rival bucket (what
    /// [`SweepCache::evaluate`] checks itself), or its kernel proved the
    /// same of its current links.
    #[inline]
    pub fn deactivate(&mut self, r: usize) {
        self.active[r / 64] &= !(1u64 << (r % 64));
    }

    /// Records a committed move out of bucket `from` into `to`. Follow it
    /// with [`SweepCache::invalidate`] on each of the mover's neighbors.
    #[inline]
    pub fn commit_move(&mut self, from: u32, to: u32) {
        self.move_stamp += 1;
        self.bucket_stamp[from as usize] = self.move_stamp;
        self.bucket_stamp[to as usize] = self.move_stamp;
    }

    /// Marks row `r`'s gather stale after the move of a neighbor joined to
    /// it by an edge of weight `w`, adds `w` to its drift and activates it.
    #[inline]
    pub fn invalidate(&mut self, r: usize, w: f64) {
        self.links_dirty[r] = self.move_stamp;
        // Rounded up, so the drift never under-states the moved weight.
        self.drift[r] = (self.drift[r] + w).next_up();
        self.active[r / 64] |= 1u64 << (r % 64);
    }
}

/// `vec![value; len]` over a retained buffer.
fn refill<T: Copy>(buf: &mut Vec<T>, len: usize, value: T) {
    buf.clear();
    buf.resize(len, value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_resets() {
        let mut acc = DenseAccumulator::new();
        acc.begin(4);
        acc.add(2, 1.5);
        acc.add(0, 1.0);
        acc.add(2, 0.5);
        assert_eq!(acc.len(), 2);
        assert!((acc.get(2) - 2.0).abs() < 1e-12);
        assert!((acc.get(0) - 1.0).abs() < 1e-12);
        assert_eq!(acc.get(1), 0.0);
        assert!(acc.contains(0) && !acc.contains(1));

        acc.begin(4);
        assert!(acc.is_empty(), "epoch bump must invalidate previous round");
        assert_eq!(acc.get(2), 0.0);
    }

    #[test]
    fn touched_order_is_insertion_until_sorted() {
        let mut acc = DenseAccumulator::new();
        acc.begin(8);
        for b in [5u32, 1, 7, 1, 5, 3] {
            acc.add(b, 1.0);
        }
        assert_eq!(acc.touched(), &[5, 1, 7, 3]);
        acc.sort_touched();
        assert_eq!(acc.touched(), &[1, 3, 5, 7]);
        let entries: Vec<(u32, f64)> = acc.entries().collect();
        assert_eq!(entries, vec![(1, 2.0), (3, 1.0), (5, 2.0), (7, 1.0)]);
    }

    #[test]
    fn grows_between_rounds() {
        let mut acc = DenseAccumulator::new();
        acc.begin(2);
        acc.add(1, 1.0);
        acc.begin(10);
        acc.add(9, 2.0);
        assert!((acc.get(9) - 2.0).abs() < 1e-12);
        assert_eq!(acc.len(), 1);
    }

    /// Drives one sweep the way the sweep loops do: visit each active row
    /// in ascending position, re-reading the bitset after every row.
    fn sweep(cache: &mut SweepCache, mut visit: impl FnMut(&mut SweepCache, usize)) -> Vec<usize> {
        let mut visited = Vec::new();
        let mut next = 0;
        while let Some(r) = cache.next_active(next) {
            next = r + 1;
            visited.push(r);
            visit(cache, r);
        }
        visited
    }

    /// Row `r` gathers only its own bucket 0, so it leaves the active set.
    fn idle(cache: &mut SweepCache, r: usize) {
        cache.store(r, [(0, 1.0)]);
        assert!(cache.evaluate(r, 0).is_none());
    }

    /// A cache whose `rows` rows have all gone idle in a first sweep.
    fn idle_cache(rows: usize) -> SweepCache {
        let mut cache = SweepCache::new(4, vec![2; rows]);
        assert_eq!(sweep(&mut cache, idle), (0..rows).collect::<Vec<_>>());
        assert_eq!(cache.next_active(0), None);
        cache
    }

    #[test]
    fn sweep_cache_starts_with_every_row_active_and_stale() {
        for rows in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut cache = SweepCache::new(3, vec![5; rows]);
            let visited = sweep(&mut cache, |c, r| assert!(c.is_stale(r)));
            assert_eq!(visited, (0..rows).collect::<Vec<_>>(), "{rows} rows");
        }
    }

    #[test]
    fn arena_rows_hold_min_degree_buckets_candidates() {
        let mut cache = SweepCache::new(3, [0usize, 1, 7]);
        cache.store(0, []);
        cache.store(1, [(2, 0.5)]);
        cache.store(2, [(0, 1.0), (1, 2.0), (2, 3.0)]);
        assert!(cache.candidates(0).is_empty());
        assert_eq!(cache.candidates(1), &[(2, 0.5)]);
        assert_eq!(cache.candidates(2), &[(0, 1.0), (1, 2.0), (2, 3.0)]);
        cache.store(2, [(1, 4.0)]);
        assert_eq!(
            cache.candidates(2),
            &[(1, 4.0)],
            "a re-gather replaces the row"
        );
        assert_eq!(
            cache.candidates(1),
            &[(2, 0.5)],
            "neighbor windows untouched"
        );
        assert!(!cache.is_stale(2));
    }

    #[test]
    #[should_panic]
    fn storing_past_a_row_window_panics() {
        let mut cache = SweepCache::new(4, [1usize, 1]);
        cache.store(0, [(0, 1.0), (1, 1.0)]);
    }

    #[test]
    fn row_dirtied_ahead_of_the_cursor_is_visited_in_the_same_sweep() {
        // (mover, dirtied): same word, a later word, and either side of
        // the word boundary between bits 63 and 64.
        for (mover, dirtied) in [
            (2usize, 9usize),
            (3, 130),
            (10, 63),
            (10, 64),
            (62, 63),
            (63, 64),
        ] {
            let mut cache = idle_cache(200);
            cache.commit_move(1, 2); // some neighbor of `mover` moved
            cache.invalidate(mover, 1.0);
            let visited = sweep(&mut cache, |c, r| {
                assert!(c.is_stale(r), "row {r} is visited because it went stale");
                if r == mover {
                    c.store(r, [(0, 1.0), (3, 2.0)]);
                    assert!(c.evaluate(r, 0).is_some());
                    c.commit_move(0, 3);
                    c.invalidate(dirtied, 1.0);
                } else {
                    idle(c, r);
                }
            });
            assert_eq!(visited, vec![mover, dirtied], "mover {mover}");
        }
    }

    #[test]
    fn skipped_row_reenters_when_a_later_neighbor_moves() {
        let mut cache = SweepCache::new(4, vec![2; 100]);
        // Sweep 1: row 5 goes idle; row 70 moves later in the same sweep
        // and dirties row 5 (behind the cursor) and row 90 (ahead of it).
        let first = sweep(&mut cache, |c, r| {
            if r == 70 {
                c.store(r, [(0, 1.0), (1, 1.0)]);
                assert!(c.evaluate(r, 0).is_some());
                c.commit_move(0, 1);
                c.invalidate(5, 1.0);
                c.invalidate(90, 1.0);
            } else {
                idle(c, r);
            }
        });
        assert_eq!(first, (0..100).collect::<Vec<_>>());
        // Sweep 2: row 5 re-enters stale; row 90 was already re-gathered
        // in sweep 1 and went idle again; row 70 stays active.
        let second = sweep(&mut cache, |c, r| {
            if r == 5 {
                assert!(c.is_stale(r));
            }
            idle(c, r);
        });
        assert_eq!(second, vec![5, 70]);
        assert_eq!(cache.next_active(0), None);
    }

    #[test]
    fn unchanged_since_eval_tracks_own_and_listed_buckets() {
        let mut cache = SweepCache::new(4, [2usize]);
        cache.store(0, [(1, 1.0), (2, 1.0)]);
        assert!(cache.evaluate(0, 1).is_some());
        assert!(cache.unchanged_since_eval(0, 1));
        cache.commit_move(3, 0); // touches neither bucket 1 nor 2
        assert!(cache.unchanged_since_eval(0, 1));
        assert!(!cache.unchanged_since_eval(0, 0), "own bucket 0 moved");
        cache.commit_move(2, 3); // listed bucket 2 moved
        assert!(!cache.unchanged_since_eval(0, 1));
    }

    #[test]
    fn drift_sums_neighbor_moves_since_the_gather() {
        let mut cache = SweepCache::new(4, [3usize, 3]);
        assert!(cache.cached_with_drift(0).is_none(), "never gathered");
        cache.store(0, [(1, 2.0), (2, 1.0)]);
        assert!(cache.evaluate(0, 1).is_some());
        assert_eq!(
            cache.cached_with_drift(0),
            Some((&[(1, 2.0), (2, 1.0)][..], 0.0))
        );
        cache.commit_move(1, 3);
        cache.invalidate(0, 0.5);
        cache.commit_move(3, 2);
        cache.invalidate(0, 0.25);
        let (listed, drift) = cache.cached_with_drift(0).unwrap();
        assert_eq!(listed, &[(1, 2.0), (2, 1.0)]);
        assert!((0.75..0.75 + 1e-15).contains(&drift), "rounded up: {drift}");
        assert!(cache.is_stale(0));
        // Certified twice: only the first visit follows a neighbor's move.
        assert!(cache.certify(0));
        assert!(!cache.certify(0));
        assert!(cache.is_stale(0), "a certified row stays stale");
        cache.commit_move(0, 1);
        cache.invalidate(0, 1.0);
        assert!(cache.certify(0));
        cache.store(0, [(2, 3.0)]);
        assert_eq!(
            cache.cached_with_drift(0).unwrap().1,
            0.0,
            "a gather zeroes it"
        );
        cache.invalidate(1, 2.0);
        cache.reset(4, [3usize, 3]);
        assert!(
            cache.cached_with_drift(0).is_none(),
            "a reset forgets gathers"
        );
        assert_eq!(cache.drift[1], 0.0, "and drift");
    }

    /// Row degrees of a test shape: windows of 0..=4 slots, clipped to
    /// `buckets` by the cache.
    fn degrees(rows: usize) -> Vec<usize> {
        (0..rows).map(|r| r % 5).collect()
    }

    /// Three scripted sweeps that store, evaluate, move and invalidate,
    /// logging everything a sweep loop can observe.
    fn scripted_sweeps(cache: &mut SweepCache, rows: usize, buckets: usize) -> Vec<String> {
        let mut log = Vec::new();
        for _ in 0..3 {
            let visited = sweep(cache, |c, r| {
                let own = (r % buckets) as u32;
                let stale = c.is_stale(r);
                if stale {
                    let window = (r % 5).min(buckets);
                    let mut cands: Vec<(u32, f64)> = (0..window)
                        .map(|j| (((r + j) % buckets) as u32, (r * 7 + j) as f64 * 0.5))
                        .collect();
                    cands.sort_by_key(|&(b, _)| b);
                    c.store(r, cands);
                } else if c.unchanged_since_eval(r, own) {
                    log.push(format!("{r} skipped"));
                    return;
                }
                let listed = c.evaluate(r, own).map(<[_]>::to_vec);
                log.push(format!("{r} stale={stale} {listed:?}"));
                if let Some(rival) = listed.and_then(|l| l.into_iter().find(|&(b, _)| b != own)) {
                    if r % 3 == 0 {
                        c.commit_move(own, rival.0);
                        c.invalidate((r + 1) % rows, 0.5);
                        c.invalidate((r + 5) % rows, 0.25);
                    }
                }
            });
            log.push(format!("visited {visited:?}"));
        }
        log
    }

    /// Every field a sweep reads, except the arena's contents (a reset
    /// arena may keep stale slots past the new shape and in unwritten
    /// windows; they are never read).
    fn observable(cache: &SweepCache) -> String {
        let rows = cache.start.len() - 1;
        assert!(
            cache.arena.len() >= cache.start[rows],
            "arena covers every window"
        );
        format!(
            "{:?} {:?} {:?} {:?} {:?} {:?} {:?} {} {:?}",
            cache.start,
            cache.filled,
            cache.last_eval,
            cache.gathered_at,
            cache.links_dirty,
            cache.drift,
            cache.bucket_stamp,
            cache.move_stamp,
            cache.active
        )
    }

    #[test]
    fn reset_after_a_dirty_sweep_matches_new() {
        // (rows, buckets) before → after: more rows, fewer rows, another
        // bucket count, and row counts on either side of a 64-bit word.
        for ((rows0, buckets0), (rows1, buckets1)) in [
            ((10, 4), (130, 4)),
            ((130, 4), (10, 4)),
            ((40, 4), (40, 7)),
            ((40, 7), (40, 2)),
            ((63, 3), (65, 3)),
            ((65, 3), (63, 3)),
            ((64, 5), (128, 5)),
            ((70, 4), (0, 4)),
        ] {
            let shape = format!("{rows0}x{buckets0} -> {rows1}x{buckets1}");
            let mut reused = SweepCache::new(buckets0, degrees(rows0));
            scripted_sweeps(&mut reused, rows0.max(1), buckets0);
            reused.reset(buckets1, degrees(rows1));
            let mut fresh = SweepCache::new(buckets1, degrees(rows1));
            assert_eq!(
                observable(&reused),
                observable(&fresh),
                "{shape}: reset state"
            );
            assert_eq!(
                scripted_sweeps(&mut reused, rows1.max(1), buckets1),
                scripted_sweeps(&mut fresh, rows1.max(1), buckets1),
                "{shape}: sweeps after reset"
            );
            assert_eq!(
                observable(&reused),
                observable(&fresh),
                "{shape}: end state"
            );
        }
    }

    #[test]
    fn approx_bytes_counts_the_arena() {
        let small = SweepCache::new(4, vec![4; 10]);
        let big = SweepCache::new(4, vec![4; 1000]);
        assert!(big.approx_bytes() >= 1000 * 4 * std::mem::size_of::<(u32, f64)>());
        assert!(small.approx_bytes() < big.approx_bytes());
        let mut shrunk = big;
        let before = shrunk.approx_bytes();
        shrunk.reset(4, vec![4; 10]);
        assert_eq!(shrunk.approx_bytes(), before, "capacity survives a reset");
    }
}
