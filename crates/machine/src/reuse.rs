//! Stack-reuse-distance analysis of memory traces.
//!
//! The classic Mattson stack algorithm: for every access, the *reuse
//! distance* is the number of distinct lines touched since the previous
//! access to the same line (∞ for cold accesses). A fully-associative LRU
//! cache of `C` lines misses exactly the accesses with distance ≥ `C` —
//! which makes the histogram an *analytic* miss-ratio curve for every
//! capacity at once, and an independent oracle for validating
//! [`crate::cache::CacheSim`] (the tests do exactly that cross-check).
//!
//! The models use it for diagnosis: the paper's baseline-variant story is,
//! in these terms, "privatization removes the short-distance mass and
//! specialization removes the long tail".

use std::collections::BTreeMap;

use crate::trace::Event;

/// Reuse-distance histogram over line-granularity accesses.
#[derive(Debug, Clone)]
pub struct ReuseHistogram {
    /// `counts[k]` = accesses with reuse distance in `[2^k-1, 2^{k+1}-1)`
    /// (power-of-two buckets; bucket 0 holds distance 0).
    pub counts: Vec<u64>,
    /// Cold (first-touch) accesses.
    pub cold: u64,
    /// Total line accesses analysed.
    pub total: u64,
    /// Exact distances (kept for precise miss-ratio queries).
    distances: Vec<u64>,
}

/// Computes the histogram for a trace's global accesses, at `line_bytes`
/// granularity. Loads and stores both count (write-allocate world).
pub fn analyze(events: &[Event], line_bytes: u64) -> ReuseHistogram {
    // Mattson via "time of last access" + counting distinct lines since:
    // an O(N log N)-ish approach with a BIT over access times.
    let mut accesses: Vec<u64> = Vec::new();
    for e in events {
        if let Event::GLoad(a) | Event::GStore(a) = *e {
            accesses.push(a / line_bytes);
        }
    }
    let n = accesses.len();
    let mut last_seen: BTreeMap<u64, usize> = BTreeMap::new();
    // BIT (Fenwick) marking the positions of the most-recent access of
    // each line; prefix sums count distinct lines in a window.
    let mut bit = vec![0i64; n + 1];
    let add = |bit: &mut Vec<i64>, mut i: usize, v: i64| {
        i += 1;
        while i <= n {
            bit[i] += v;
            i += i & i.wrapping_neg();
        }
    };
    let sum = |bit: &Vec<i64>, mut i: usize| -> i64 {
        let mut s = 0;
        i += 1;
        let mut j = i;
        while j > 0 {
            s += bit[j];
            j -= j & j.wrapping_neg();
        }
        s
    };

    let mut distances = Vec::with_capacity(n);
    let mut cold = 0u64;
    for (t, &line) in accesses.iter().enumerate() {
        match last_seen.get(&line) {
            Some(&prev) => {
                // Distinct lines touched strictly between prev and t:
                let between = sum(&bit, t - 1) - sum(&bit, prev);
                distances.push(between as u64);
                add(&mut bit, prev, -1);
            }
            None => {
                cold += 1;
                distances.push(u64::MAX);
            }
        }
        add(&mut bit, t, 1);
        last_seen.insert(line, t);
    }

    let mut counts = vec![0u64; 33];
    for &d in &distances {
        if d == u64::MAX {
            continue;
        }
        let bucket = (64 - (d + 1).leading_zeros()).saturating_sub(1) as usize;
        counts[bucket.min(32)] += 1;
    }
    ReuseHistogram {
        counts,
        cold,
        total: n as u64,
        distances,
    }
}

impl ReuseHistogram {
    /// Analytic miss count of a fully-associative LRU cache with
    /// `capacity_lines` lines: cold accesses plus every reuse with
    /// distance ≥ capacity.
    pub fn lru_misses(&self, capacity_lines: u64) -> u64 {
        self.cold
            + self
                .distances
                .iter()
                .filter(|&&d| d != u64::MAX && d >= capacity_lines)
                .count() as u64
    }

    /// Analytic miss *ratio* for a capacity.
    pub fn lru_miss_ratio(&self, capacity_lines: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.lru_misses(capacity_lines) as f64 / self.total as f64
    }

    /// The capacity (in lines) needed to reach a target miss ratio —
    /// the working-set question ("how much cache would fix this kernel?").
    pub fn capacity_for_miss_ratio(&self, target: f64) -> u64 {
        let mut sorted: Vec<u64> = self
            .distances
            .iter()
            .copied()
            .filter(|&d| d != u64::MAX)
            .collect();
        sorted.sort_unstable();
        // Find the smallest capacity C with miss ratio <= target.
        let mut lo = 1u64;
        let mut hi = sorted.last().map(|&d| d + 2).unwrap_or(1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.lru_miss_ratio(mid) <= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Mean finite reuse distance (∞ excluded).
    pub fn mean_distance(&self) -> f64 {
        let finite: Vec<u64> = self
            .distances
            .iter()
            .copied()
            .filter(|&d| d != u64::MAX)
            .collect();
        if finite.is_empty() {
            return 0.0;
        }
        finite.iter().sum::<u64>() as f64 / finite.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessKind, CacheSim};

    fn loads(addrs: &[u64]) -> Vec<Event> {
        addrs.iter().map(|&a| Event::GLoad(a * 64)).collect()
    }

    #[test]
    fn simple_distances() {
        // a b a: reuse of `a` at distance 1 (only b in between).
        let h = analyze(&loads(&[1, 2, 1]), 64);
        assert_eq!(h.cold, 2);
        assert_eq!(h.total, 3);
        assert_eq!(h.lru_misses(2), 2); // distance 1 < 2: hit
        assert_eq!(h.lru_misses(1), 3); // distance 1 >= 1: miss
    }

    #[test]
    fn repeated_access_has_distance_zero() {
        let h = analyze(&loads(&[5, 5, 5, 5]), 64);
        assert_eq!(h.cold, 1);
        assert_eq!(h.lru_misses(1), 1);
        assert_eq!(h.mean_distance(), 0.0);
    }

    #[test]
    fn matches_cache_sim_on_random_streams() {
        // The analytic LRU oracle and the simulator must agree exactly for
        // fully-associative LRU caches.
        let mut s = 0xC0FFEEu64;
        let addrs: Vec<u64> = (0..3000)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 24) % 700
            })
            .collect();
        let h = analyze(&loads(&addrs), 64);
        for ways in [16usize, 64, 256] {
            let mut sim = CacheSim::new(64 * ways, 64, ways); // fully assoc
            for &a in &addrs {
                sim.access(a * 64, AccessKind::Load, None);
            }
            assert_eq!(
                sim.stats().misses(),
                h.lru_misses(ways as u64),
                "capacity {ways} lines"
            );
        }
    }

    #[test]
    fn miss_ratio_is_monotone_in_capacity() {
        let addrs: Vec<u64> = (0..2000u64).map(|i| (i * 37) % 300).collect();
        let h = analyze(&loads(&addrs), 64);
        let mut prev = f64::INFINITY;
        for cap in [1u64, 4, 16, 64, 256, 1024] {
            let r = h.lru_miss_ratio(cap);
            assert!(r <= prev + 1e-12);
            prev = r;
        }
    }

    #[test]
    fn capacity_query_inverts_miss_ratio() {
        let addrs: Vec<u64> = (0..1000u64).map(|i| i % 100).collect();
        let h = analyze(&loads(&addrs), 64);
        // Working set of 100 lines: capacity 100 makes everything but cold
        // misses hit.
        let cap = h.capacity_for_miss_ratio(0.11);
        assert!(cap <= 100, "cap {cap}");
        assert!(h.lru_miss_ratio(cap) <= 0.11);
        if cap > 1 {
            assert!(h.lru_miss_ratio(cap - 1) > 0.11);
        }
    }

    #[test]
    fn stores_count_like_loads() {
        let ev = vec![Event::GStore(0), Event::GLoad(0)];
        let h = analyze(&ev, 64);
        assert_eq!(h.total, 2);
        assert_eq!(h.cold, 1);
        assert_eq!(h.lru_misses(4), 1);
    }

    #[test]
    fn histogram_buckets_cover_all_reuses() {
        let addrs: Vec<u64> = (0..500u64).map(|i| (i * 13) % 97).collect();
        let h = analyze(&loads(&addrs), 64);
        let bucketed: u64 = h.counts.iter().sum();
        assert_eq!(bucketed + h.cold, h.total);
    }
}
