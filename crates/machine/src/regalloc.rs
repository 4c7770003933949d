//! Register allocation over recorded value lifetimes.
//!
//! The paper's Privatization story is a register-pressure story: turning
//! interleaved global intermediate arrays into thread-private scalars lets
//! the compiler map them to registers, spilling to local memory only when
//! the register budget is exceeded (255 on the A100, and spilling is what
//! separates variant **P** from **RSP** from **RSPR**).
//!
//! This module replays that compiler decision mechanically. The kernels
//! emit `Def`/`Use` events for private scalars; [`RegisterAllocator`] runs a
//! linear-scan allocation over the resulting live intervals (first `Def` to
//! last touch) with furthest-end spilling, and rewrites the event stream:
//! registers disappear, spilled values become local stores (at their
//! definitions) and local loads (at their uses) on compactly reused spill
//! slots — exactly the traffic the cache models then observe.

use std::collections::BTreeMap;

use crate::trace::Event;

/// Outcome of allocating one thread's private values.
#[derive(Debug, Clone)]
pub struct RegAllocResult {
    /// Peak number of simultaneously register-resident values.
    pub max_pressure: u32,
    /// Number of distinct values spilled to local memory.
    pub spilled_values: u32,
    /// Distinct local slots used by spills (slots are reused).
    pub spill_slots: u32,
    /// Local stores inserted (one per spilled definition/update).
    pub spill_stores: u64,
    /// Local loads inserted (one per spilled use).
    pub spill_loads: u64,
    /// The rewritten event stream: `Def`/`Use` of register-resident values
    /// removed, spilled touches turned into `LStore`/`LLoad`.
    pub events: Vec<Event>,
}

/// Linear-scan register allocator with furthest-end spilling.
#[derive(Debug, Clone, Copy)]
pub struct RegisterAllocator {
    /// Number of (f64) registers available for private values.
    pub num_regs: u32,
}

#[derive(Debug, Clone, Copy)]
struct Interval {
    start: usize,
    end: usize,
}

impl RegisterAllocator {
    /// Allocator with a budget of `num_regs` f64 values.
    pub fn new(num_regs: u32) -> Self {
        assert!(num_regs > 0, "need at least one register");
        Self { num_regs }
    }

    /// Runs the allocation over one thread's event stream.
    ///
    /// A value's live interval spans from its first `Def` to its last `Def`
    /// or `Use` (accumulators that are repeatedly updated stay live across
    /// all updates, matching how a compiler treats a running sum).
    pub fn allocate(&self, events: &[Event]) -> RegAllocResult {
        // Pass 1: live intervals.
        let mut intervals: BTreeMap<u32, Interval> = BTreeMap::new();
        for (pos, e) in events.iter().enumerate() {
            match *e {
                Event::Def(v) | Event::Use(v) => {
                    intervals
                        .entry(v)
                        .and_modify(|iv| iv.end = pos)
                        .or_insert(Interval {
                            start: pos,
                            end: pos,
                        });
                }
                _ => {}
            }
        }

        // Pass 2: linear scan over intervals sorted by start.
        let mut order: Vec<(u32, Interval)> = intervals.iter().map(|(&v, &iv)| (v, iv)).collect();
        order.sort_unstable_by_key(|&(v, iv)| (iv.start, v));

        let mut active: Vec<(u32, Interval)> = Vec::new(); // register-resident
        let mut spilled: BTreeMap<u32, u32> = BTreeMap::new(); // value -> slot
        let mut max_pressure = 0u32;

        // Spill-slot reuse: a slot frees when its value's interval ends.
        let mut slot_free: Vec<u32> = Vec::new();
        let mut slot_release: Vec<(usize, u32)> = Vec::new(); // (end, slot)
        let mut next_slot = 0u32;

        for &(v, iv) in &order {
            // Expire finished register intervals.
            active.retain(|&(_, a)| a.end >= iv.start);
            // Release spill slots whose value died.
            slot_release.retain(|&(end, slot)| {
                if end < iv.start {
                    slot_free.push(slot);
                    false
                } else {
                    true
                }
            });

            if (active.len() as u32) < self.num_regs {
                active.push((v, iv));
                max_pressure = max_pressure.max(active.len() as u32);
                continue;
            }

            // Pressure exceeded: spill the interval (new or active) with the
            // furthest end — the linear-scan heuristic.
            let (far_idx, far_end) = active
                .iter()
                .enumerate()
                .map(|(i, &(_, a))| (i, a.end))
                .max_by_key(|&(_, end)| end)
                .expect("active nonempty at pressure limit");
            let victim = if far_end > iv.end {
                let (vv, viv) = active[far_idx];
                active[far_idx] = (v, iv);
                (vv, viv)
            } else {
                (v, iv)
            };
            let slot = slot_free.pop().unwrap_or_else(|| {
                let s = next_slot;
                next_slot += 1;
                s
            });
            spilled.insert(victim.0, slot);
            slot_release.push((victim.1.end, slot));
            max_pressure = max_pressure.max(active.len() as u32);
        }

        // Pass 3: rewrite the stream.
        let mut out = Vec::with_capacity(events.len());
        let mut spill_stores = 0u64;
        let mut spill_loads = 0u64;
        for e in events {
            match *e {
                Event::Def(v) => {
                    if let Some(&slot) = spilled.get(&v) {
                        out.push(Event::LStore(slot));
                        spill_stores += 1;
                    }
                }
                Event::Use(v) => {
                    if let Some(&slot) = spilled.get(&v) {
                        out.push(Event::LLoad(slot));
                        spill_loads += 1;
                    }
                }
                other => out.push(other),
            }
        }

        RegAllocResult {
            max_pressure,
            spilled_values: spilled.len() as u32,
            spill_slots: next_slot,
            spill_stores,
            spill_loads,
            events: out,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(v: u32) -> Event {
        Event::Def(v)
    }
    fn use_(v: u32) -> Event {
        Event::Use(v)
    }

    #[test]
    fn no_spill_when_pressure_fits() {
        let events = vec![def(0), def(1), use_(0), use_(1)];
        let r = RegisterAllocator::new(2).allocate(&events);
        assert_eq!(r.max_pressure, 2);
        assert_eq!(r.spilled_values, 0);
        assert_eq!(r.spill_stores, 0);
        assert!(r.events.is_empty()); // all register ops vanish
    }

    #[test]
    fn disjoint_lifetimes_reuse_registers() {
        // 10 values, each dead before the next is born: pressure 1.
        let mut events = Vec::new();
        for v in 0..10 {
            events.push(def(v));
            events.push(use_(v));
        }
        let r = RegisterAllocator::new(1).allocate(&events);
        assert_eq!(r.max_pressure, 1);
        assert_eq!(r.spilled_values, 0);
    }

    #[test]
    fn overlapping_lifetimes_spill() {
        // 3 values all live at once, 2 registers.
        let events = vec![def(0), def(1), def(2), use_(0), use_(1), use_(2)];
        let r = RegisterAllocator::new(2).allocate(&events);
        assert_eq!(r.spilled_values, 1);
        assert_eq!(r.spill_stores, 1);
        assert_eq!(r.spill_loads, 1);
        // Rewritten stream holds exactly the spill traffic.
        assert_eq!(r.events.len(), 2);
        assert!(matches!(r.events[0], Event::LStore(_)));
        assert!(matches!(r.events[1], Event::LLoad(_)));
    }

    #[test]
    fn furthest_end_is_spilled() {
        // v0 lives to the far end; v1, v2 are short. With 2 regs, v0 is the
        // spill victim so the short-lived values stay in registers.
        let events = vec![
            def(0),
            def(1),
            def(2),
            use_(1),
            use_(2),
            use_(0), // far use of v0
        ];
        let r = RegisterAllocator::new(2).allocate(&events);
        // v0 spilled: one store at def, one load at use.
        assert_eq!(r.spilled_values, 1);
        assert_eq!(r.events, vec![Event::LStore(0), Event::LLoad(0)]);
    }

    #[test]
    fn accumulator_updates_count_as_touches() {
        // def, then repeated def/use updates: one value, pressure 1, and if
        // spilled every update would hit local memory.
        let events = vec![def(0), use_(0), def(0), use_(0), def(0), use_(0)];
        let r = RegisterAllocator::new(4).allocate(&events);
        assert_eq!(r.max_pressure, 1);
        assert_eq!(r.spilled_values, 0);
    }

    #[test]
    fn spilled_accumulator_generates_traffic_per_update() {
        // Two long-lived accumulators + 1 register: one spills; its three
        // defs and three uses all become local traffic.
        let mut events = vec![def(0), def(1)];
        for _ in 0..3 {
            events.push(use_(0));
            events.push(def(0));
            events.push(use_(1));
            events.push(def(1));
        }
        let r = RegisterAllocator::new(1).allocate(&events);
        assert_eq!(r.spilled_values, 1);
        assert_eq!(r.spill_stores + r.spill_loads, 7); // 4 defs + 3 uses
    }

    #[test]
    fn spill_slots_are_reused_across_disjoint_spills() {
        // Two phases; in each phase 3 overlapping values vs 2 registers.
        // The spilled value of phase 2 reuses phase 1's slot.
        let events = vec![
            def(0),
            def(1),
            def(2),
            use_(0),
            use_(1),
            use_(2),
            // phase 2 (all phase-1 values dead)
            def(10),
            def(11),
            def(12),
            use_(10),
            use_(11),
            use_(12),
        ];
        let r = RegisterAllocator::new(2).allocate(&events);
        assert_eq!(r.spilled_values, 2);
        assert_eq!(r.spill_slots, 1, "slot should be reused");
    }

    #[test]
    fn non_private_events_pass_through() {
        let events = vec![
            Event::GLoad(8),
            def(0),
            Event::Fma(2),
            use_(0),
            Event::GStore(16),
        ];
        let r = RegisterAllocator::new(4).allocate(&events);
        assert_eq!(
            r.events,
            vec![Event::GLoad(8), Event::Fma(2), Event::GStore(16)]
        );
    }

    #[test]
    fn pressure_reported_even_without_spills() {
        let events = vec![def(0), def(1), def(2), use_(2), use_(1), use_(0)];
        let r = RegisterAllocator::new(8).allocate(&events);
        assert_eq!(r.max_pressure, 3);
    }

    #[test]
    fn massive_pressure_spills_down_to_budget() {
        // 100 simultaneously live values, 16 registers.
        let mut events = Vec::new();
        for v in 0..100 {
            events.push(def(v));
        }
        for v in 0..100 {
            events.push(use_(v));
        }
        let r = RegisterAllocator::new(16).allocate(&events);
        assert_eq!(r.max_pressure, 16);
        assert_eq!(r.spilled_values, 84);
        assert_eq!(r.spill_stores, 84);
        assert_eq!(r.spill_loads, 84);
    }
}
