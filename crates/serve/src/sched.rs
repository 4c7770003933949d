//! Deficit-round-robin fair scheduler over per-tenant work queues.
//!
//! Classic DRR (Shreedhar & Varghese): each tenant owns a FIFO ring of
//! work items; a round visits tenants cyclically, credits each non-empty
//! queue `quantum × weight` deficit, and dispatches items while the head
//! item's cost fits the accumulated deficit. Long-run throughput is then
//! weight-proportional regardless of per-item cost — a tenant running
//! huge meshes cannot starve one running small ones.
//!
//! An item's cost is `elements × RHS evaluations` (see
//! [`crate::SharedCase::item_cost`]) — proportional to the assembly work
//! it puts on the machine, the same unit the paper's Table I counts.
//!
//! The quantum auto-sizes to the largest item cost seen (unless pinned),
//! so every non-empty queue dispatches at least one item per visit and a
//! round never spins. Rings are sized at tenant registration (a session
//! occupies at most one queue entry at a time, so pool capacity bounds
//! every ring); `offer` and `next_batch` are index writes into pre-sized
//! rings, no allocation.

/// One schedulable unit: one step (or one assembly) of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkItem {
    /// Pool slot of the session.
    pub slot: u32,
    /// Owning tenant (queue index).
    pub tenant: u32,
    /// Dispatch cost in element-evaluations.
    pub cost: u64,
}

struct TenantQueue {
    weight: u64,
    deficit: u64,
    ring: Vec<WorkItem>,
    head: usize,
    len: usize,
}

/// The scheduler. All methods take `&mut self`; callers wrap it in the
/// service's mutex.
pub struct DrrScheduler {
    queues: Vec<TenantQueue>,
    cursor: usize,
    quantum: u64,
    max_cost: u64,
    queued: usize,
}

impl DrrScheduler {
    /// `quantum = 0` auto-sizes to the largest item cost offered so far.
    pub fn new(quantum: u64) -> Self {
        Self {
            queues: Vec::new(),
            cursor: 0,
            quantum,
            max_cost: 0,
            queued: 0,
        }
    }

    /// Registers a tenant queue; `ring_capacity` bounds its simultaneous
    /// items (one per admitted session suffices). Returns the tenant
    /// index. Weight is clamped to at least 1.
    pub fn add_tenant(&mut self, weight: u64, ring_capacity: usize) -> u32 {
        let id = self.queues.len() as u32;
        self.queues.push(TenantQueue {
            weight: weight.max(1),
            deficit: 0,
            ring: vec![WorkItem::default(); ring_capacity.max(1)],
            head: 0,
            len: 0,
        });
        id
    }

    /// Items currently queued across all tenants.
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Registered tenant count.
    pub fn num_tenants(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues one work item on its tenant's ring. A session has at most
    /// one item in flight, so the pre-sized ring cannot overflow
    /// (debug-asserted).
    pub fn offer(&mut self, item: WorkItem) {
        debug_assert!((item.tenant as usize) < self.queues.len(), "unknown tenant");
        if item.cost > self.max_cost {
            self.max_cost = item.cost;
        }
        let q = &mut self.queues[item.tenant as usize];
        let cap = q.ring.len();
        debug_assert!(q.len < cap, "tenant ring overflow");
        let at = (q.head + q.len) % cap;
        q.ring[at] = item;
        q.len += 1;
        self.queued += 1;
    }

    /// Fills `out` with the next fair batch and returns how many items
    /// were written. Each queued session contributes at most one item per
    /// batch (it holds at most one queue entry), so a parallel executor
    /// never runs the same slot twice concurrently.
    pub fn next_batch(&mut self, out: &mut [WorkItem]) -> usize {
        let nt = self.queues.len();
        if nt == 0 || out.is_empty() || self.queued == 0 {
            return 0;
        }
        let quantum = if self.quantum > 0 {
            self.quantum
        } else {
            // Auto: at least the costliest item, so every visit dispatches.
            self.max_cost.max(1)
        };
        let mut filled = 0;
        let mut empty_streak = 0;
        while filled < out.len() && empty_streak < nt && self.queued > 0 {
            let qi = self.cursor % nt;
            self.cursor = (self.cursor + 1) % nt;
            let q = &mut self.queues[qi];
            if q.len == 0 {
                q.deficit = 0;
                empty_streak += 1;
                continue;
            }
            empty_streak = 0;
            q.deficit = q.deficit.saturating_add(quantum.saturating_mul(q.weight));
            let cap = q.ring.len();
            while q.len > 0 && filled < out.len() {
                let item = q.ring[q.head];
                if item.cost > q.deficit {
                    break;
                }
                q.deficit -= item.cost;
                q.head = (q.head + 1) % cap;
                q.len -= 1;
                self.queued -= 1;
                out[filled] = item;
                filled += 1;
            }
            if q.len == 0 {
                // Idle queues carry no credit into their next busy period.
                q.deficit = 0;
            }
        }
        filled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(slot: u32, tenant: u32, cost: u64) -> WorkItem {
        WorkItem { slot, tenant, cost }
    }

    #[test]
    fn fifo_within_a_tenant() {
        let mut s = DrrScheduler::new(0);
        let t = s.add_tenant(1, 8);
        for i in 0..5 {
            s.offer(item(i, t, 10));
        }
        let mut out = [WorkItem::default(); 8];
        let n = s.next_batch(&mut out);
        assert_eq!(n, 5);
        let slots: Vec<u32> = out[..n].iter().map(|w| w.slot).collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn equal_weights_share_equally_despite_unequal_costs() {
        let mut s = DrrScheduler::new(0);
        let a = s.add_tenant(1, 64);
        let b = s.add_tenant(1, 64);
        // Tenant a's items cost 4x tenant b's.
        for i in 0..32 {
            s.offer(item(i, a, 400));
            s.offer(item(100 + i, b, 100));
        }
        // Drain in small batches; track cost dispatched per tenant.
        let mut cost = [0u64; 2];
        let mut out = [WorkItem::default(); 4];
        loop {
            let n = s.next_batch(&mut out);
            if n == 0 {
                break;
            }
            for w in &out[..n] {
                cost[w.tenant as usize] += w.cost;
            }
        }
        assert_eq!(cost[0], 32 * 400);
        assert_eq!(cost[1], 32 * 100);
        // Fairness while both are backlogged: mid-drain, the running cost
        // split must stay near 1:1.
        let mut s = DrrScheduler::new(0);
        let a = s.add_tenant(1, 64);
        let b = s.add_tenant(1, 64);
        for i in 0..32 {
            s.offer(item(i, a, 400));
            s.offer(item(100 + i, b, 100));
        }
        let mut cost = [0u64; 2];
        let mut got = 0;
        while got < 20 {
            let n = s.next_batch(&mut out);
            assert!(n > 0);
            for w in &out[..n] {
                cost[w.tenant as usize] += w.cost;
            }
            got += n;
        }
        let hi = cost[0].max(cost[1]) as f64;
        let lo = cost[0].min(cost[1]) as f64;
        assert!(hi / lo < 1.6, "mid-drain cost split too skewed: {cost:?}");
    }

    #[test]
    fn weights_scale_throughput() {
        let mut s = DrrScheduler::new(0);
        let a = s.add_tenant(3, 128);
        let b = s.add_tenant(1, 128);
        for i in 0..96 {
            s.offer(item(i, a, 10));
        }
        for i in 0..96 {
            s.offer(item(200 + i, b, 10));
        }
        // First 40 dispatches: expect ~3:1.
        let mut out = [WorkItem::default(); 8];
        let mut count = [0u32; 2];
        let mut got = 0;
        while got < 40 {
            let n = s.next_batch(&mut out);
            assert!(n > 0);
            for w in &out[..n] {
                count[w.tenant as usize] += 1;
            }
            got += n;
        }
        assert!(
            count[0] >= 2 * count[1],
            "weight-3 tenant not favored: {count:?}"
        );
    }

    #[test]
    fn empty_and_degenerate_cases() {
        let mut s = DrrScheduler::new(0);
        let mut out = [WorkItem::default(); 4];
        assert_eq!(s.next_batch(&mut out), 0);
        let t = s.add_tenant(0, 0); // clamped weight/capacity
        s.offer(item(9, t, 1));
        assert_eq!(s.next_batch(&mut []), 0);
        assert_eq!(s.next_batch(&mut out), 1);
        assert_eq!(out[0].slot, 9);
        assert_eq!(s.next_batch(&mut out), 0);
    }
}
