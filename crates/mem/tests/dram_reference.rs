//! `DramBackend` against a reference model: the per-cycle DRAM model it
//! replaced. The reference keeps a FIFO queue per bank and discovers each
//! request's schedule one `tick` at a time (tick, then drain, then
//! request, every cycle); `DramBackend` fixes the schedule when it accepts
//! the request. Both must answer every offer alike, drain the same
//! completions on the same cycles in the same order, and report the same
//! counters on every cycle.

use koc_mem::dram::{ACT_LATENCY, BANKS, BANK_BUSY, PRECHARGE_LATENCY, ROW_BYTES};
use koc_mem::{Admit, BackendStats, Completion, DramBackend, DramConfig, MemReq, MemoryBackend};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A request waiting in its bank's queue.
struct Waiting {
    req: MemReq,
    row: u64,
    arrival: u64,
}

#[derive(Default)]
struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
    queue: VecDeque<Waiting>,
}

/// The per-cycle reference: each `tick(now)` starts, bank by bank in index
/// order, the queue head if it has arrived and its bank is free.
struct TickedDram {
    config: DramConfig,
    base_latency: u32,
    banks: Vec<Bank>,
    /// Started requests by (completion cycle, start order).
    done: BinaryHeap<Reverse<(u64, u64, Completion)>>,
    started: u64,
    reads_in_flight: usize,
    stats: BackendStats,
}

impl TickedDram {
    fn new(config: DramConfig, base_latency: u32) -> Self {
        TickedDram {
            config,
            base_latency,
            banks: (0..BANKS).map(|_| Bank::default()).collect(),
            done: BinaryHeap::new(),
            started: 0,
            reads_in_flight: 0,
            stats: BackendStats::default(),
        }
    }

    /// The same XOR-folded bank hash as `DramBackend`.
    fn decode(&self, addr: u64) -> (usize, u64) {
        let row = addr / ROW_BYTES;
        let hashed = row ^ (row >> 16);
        let hashed = hashed ^ (hashed >> 8);
        let hashed = hashed ^ (hashed >> 4);
        ((hashed % BANKS as u64) as usize, row)
    }

    fn request(&mut self, req: MemReq, at: u64) -> Admit {
        if req.is_write {
            self.stats.writes += 1;
        } else {
            if self.reads_in_flight >= self.config.mshr_entries {
                return Admit::Reject;
            }
            self.reads_in_flight += 1;
            self.stats.mshr_high_water = self.stats.mshr_high_water.max(self.reads_in_flight);
            self.stats.demand_reads += 1;
        }
        let (bank, row) = self.decode(req.addr);
        self.banks[bank].queue.push_back(Waiting {
            req,
            row,
            arrival: at,
        });
        Admit::Queued
    }

    fn tick(&mut self, now: u64) {
        for bank in &mut self.banks {
            if bank.busy_until > now || bank.queue.front().is_none_or(|w| w.arrival > now) {
                continue;
            }
            let Some(w) = bank.queue.pop_front() else {
                continue;
            };
            let extra = match bank.open_row {
                Some(open) if open == w.row => {
                    self.stats.row_buffer_hits += 1;
                    0
                }
                None => {
                    self.stats.row_buffer_misses += 1;
                    ACT_LATENCY
                }
                Some(_) => {
                    self.stats.row_buffer_conflicts += 1;
                    ACT_LATENCY + PRECHARGE_LATENCY
                }
            };
            bank.open_row = Some(w.row);
            // The burst keeps the bank busy: one start per bank per tick.
            bank.busy_until = now + BANK_BUSY as u64;
            let completion = Completion {
                token: w.req.token,
                is_write: w.req.is_write,
            };
            let done = now + self.base_latency as u64 + extra as u64;
            self.done.push(Reverse((done, self.started, completion)));
            self.started += 1;
        }
    }

    fn drain(&mut self, now: u64, out: &mut Vec<Completion>) {
        while let Some(&Reverse((done, _, c))) = self.done.peek() {
            if done > now {
                break;
            }
            self.done.pop();
            self.reads_in_flight -= usize::from(!c.is_write);
            out.push(c);
        }
    }

    fn idle(&self) -> bool {
        self.done.is_empty() && self.banks.iter().all(|b| b.queue.is_empty())
    }
}

/// One offer: `(cycle offered, address, is_write, arrival delay)`.
type Offer = (u64, u64, bool, u64);

/// Every completion with the cycle it drained on, in drain order.
type Drained = Vec<(Completion, u64)>;

/// Offers each request on its cycle, after that cycle's drain, to both
/// models stepped every cycle, and checks that they agree on each answer,
/// each drained completion and, every cycle, every counter. Returns the
/// admissions and the drained completions.
fn run_lockstep(config: DramConfig, offers: &[Offer]) -> (Vec<Admit>, Drained) {
    let mut reference = TickedDram::new(config, 100);
    let mut model = DramBackend::new(config, 100);
    let (mut admits, mut drained) = (Vec::new(), Vec::new());
    let (mut ref_out, mut out) = (Vec::new(), Vec::new());
    let mut next = 0;
    let mut now = 0;
    while next < offers.len() || !reference.idle() {
        reference.tick(now);
        reference.drain(now, &mut ref_out);
        model.drain(now, &mut out);
        assert_eq!(ref_out, out, "drained at cycle {now}");
        drained.extend(out.drain(..).map(|c| (c, now)));
        ref_out.clear();
        while let Some(&(_, addr, is_write, delay)) = offers.get(next).filter(|o| o.0 == now) {
            let req = if is_write {
                MemReq::write(addr)
            } else {
                MemReq::read(next as u64, addr)
            };
            let admit = reference.request(req, now + delay);
            assert_eq!(admit, model.request(req, now + delay), "offer {next}");
            admits.push(admit);
            next += 1;
        }
        assert_eq!(reference.stats, model.stats(now), "counters at cycle {now}");
        now += 1;
    }
    assert_eq!(model.next_event(), None, "both models are idle");
    (admits, drained)
}

/// Drains `DramBackend` only on offer cycles and at `next_event()`, the way
/// the simulator's fast-forward drives it.
fn run_sparse(config: DramConfig, offers: &[Offer]) -> (Vec<Admit>, Drained) {
    let mut model = DramBackend::new(config, 100);
    let (mut admits, mut drained, mut out) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0;
    let mut now = 0;
    loop {
        model.drain(now, &mut out);
        drained.extend(out.drain(..).map(|c| (c, now)));
        while let Some(&(_, addr, is_write, delay)) = offers.get(next).filter(|o| o.0 == now) {
            let req = if is_write {
                MemReq::write(addr)
            } else {
                MemReq::read(next as u64, addr)
            };
            admits.push(model.request(req, now + delay));
            next += 1;
        }
        let offer = offers.get(next).map(|o| o.0);
        now = match (offer, model.next_event()) {
            (Some(a), Some(e)) => a.min(e),
            (a, e) => match a.or(e) {
                Some(cycle) => cycle,
                None => break,
            },
        };
    }
    (admits, drained)
}

fn dram_config() -> impl Strategy<Value = DramConfig> {
    (1usize..=8).prop_map(|mshr_entries| DramConfig { mshr_entries })
}

/// Offers on non-decreasing cycles: a gap of 0 extends a same-cycle burst.
/// Rows come from a set three times the bank count, so banks alias under
/// the XOR hash and see row-buffer hits, misses and conflicts.
fn offer_stream() -> impl Strategy<Value = Vec<Offer>> {
    proptest::collection::vec(
        (
            0u64..6,
            0u64..3 * BANKS as u64,
            0u64..4,
            any::<bool>(),
            1u64..=15,
        ),
        1..100,
    )
    .prop_map(|raw| {
        let mut cycle = 0;
        raw.into_iter()
            .map(|(gap, row, line, is_write, delay)| {
                cycle += gap;
                (cycle, row * ROW_BYTES + line * 64, is_write, delay)
            })
            .collect()
    })
}

proptest! {
    /// The scheduled model matches the per-cycle reference offer by offer,
    /// drain by drain and counter by counter, and draining it only at its
    /// next event changes nothing.
    #[test]
    fn scheduled_dram_matches_the_per_cycle_reference(
        config in dram_config(),
        offers in offer_stream(),
    ) {
        let dense = run_lockstep(config, &offers);
        let sparse = run_sparse(config, &offers);
        prop_assert_eq!(&dense, &sparse);
        let admitted = dense.0.iter().filter(|a| **a == Admit::Queued).count();
        prop_assert_eq!(dense.1.len(), admitted, "every admitted request completes");
    }
}
