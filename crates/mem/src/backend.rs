//! The pluggable timed memory backend.
//!
//! Everything *beyond the L2* is modelled by an implementation of
//! [`MemoryBackend`]: the hierarchy hands it L2 misses (demand loads and
//! committed-store write-backs) and consumes completions as they return.
//! The seam mirrors the `CommitEngine` trait in `koc-sim`: the hierarchy
//! drives whichever backend it is given without knowing the variant.
//!
//! Two implementations ship with the crate:
//!
//! * [`FlatLatency`] — the paper's model and the default: every request
//!   completes a fixed `memory_latency` cycles after it arrives, with
//!   unlimited outstanding misses.
//! * [`crate::DramBackend`] — one fixed part ([`crate::dram`]: 16 banks
//!   with 4 KiB open-row buffers, 40-cycle activate and precharge, a
//!   4-cycle burst), in-order service per bank and a finite MSHR file that
//!   back-pressures the core when full. It fixes each request's schedule
//!   when it accepts it.

/// Tokens with this bit set are internal to the memory system (posted
/// writes) and are never returned to the core as demand completions.
pub const INTERNAL_TOKEN_BIT: u64 = 1 << 63;

/// One request handed to a backend: an L2 miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Caller-chosen identifier, echoed in the matching [`Completion`].
    /// Demand tokens must not have [`INTERNAL_TOKEN_BIT`] set.
    pub token: u64,
    /// Byte address of the access (backends work at line granularity but
    /// keep the full address for bank/row decoding).
    pub addr: u64,
    /// Whether this is a write-back of a committed store (posted: it never
    /// occupies an MSHR and its completion carries no data).
    pub is_write: bool,
}

impl MemReq {
    /// A demand read with the given token.
    pub fn read(token: u64, addr: u64) -> Self {
        MemReq {
            token,
            addr,
            is_write: false,
        }
    }

    /// A posted write (no token: completions for writes are dropped).
    pub fn write(addr: u64) -> Self {
        MemReq {
            token: INTERNAL_TOKEN_BIT,
            addr,
            is_write: true,
        }
    }
}

/// The backend's answer to [`MemoryBackend::request`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Accepted, and the completion cycle is already known (no queueing
    /// contention): the caller schedules the completion itself and the
    /// backend retains nothing. Only a backend that never answers
    /// [`Admit::Reject`] may answer `At`: the hierarchy's MSHR retry path
    /// has no schedule of its own to hold the completion.
    At(u64),
    /// Accepted and scheduled inside the backend; the completion will
    /// surface from [`MemoryBackend::drain`] when the request completes.
    Queued,
    /// Rejected: no MSHR is free. The caller must retry on a later cycle.
    Reject,
}

/// A completed request surfacing from [`MemoryBackend::drain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Completion {
    /// The token of the originating [`MemReq`].
    pub token: u64,
    /// Whether the completed request was a posted write.
    pub is_write: bool,
}

/// Counters every backend maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackendStats {
    /// Demand reads accepted.
    pub demand_reads: u64,
    /// Posted writes accepted.
    pub writes: u64,
    /// DRAM accesses that hit the open row buffer.
    pub row_buffer_hits: u64,
    /// DRAM accesses to a closed (precharged) bank.
    pub row_buffer_misses: u64,
    /// DRAM accesses that had to close a different open row first.
    pub row_buffer_conflicts: u64,
    /// Peak simultaneous MSHR occupancy.
    pub mshr_high_water: usize,
}

/// A timed model of everything beyond the L2.
///
/// Call protocol, per simulated cycle `now` (monotonically non-decreasing):
/// [`drain`](Self::drain) first, then any number of
/// [`request`](Self::request)s. A request offered during cycle `now`
/// arrives after it, at `at > now`: that cycle's drain has passed, so the
/// backend could not deliver anything served at `now`. Arrivals may lie
/// further in the future (the hierarchy adds its own lookup latency); the
/// backend must not serve a request before it arrives.
pub trait MemoryBackend: std::fmt::Debug + Send {
    /// Offers a request arriving at cycle `at`.
    fn request(&mut self, req: MemReq, at: u64) -> Admit;

    /// Appends every request completed at or before `now` to `out`, freeing
    /// the MSHRs of the reads among them.
    fn drain(&mut self, now: u64, out: &mut Vec<Completion>);

    /// The earliest future cycle at which this backend's externally visible
    /// state can change *on its own*: a completion becoming drainable, which
    /// is also when an MSHR frees. `None` means the backend holds no
    /// self-scheduled work (always true for backends that only ever answer
    /// [`Admit::At`], like [`FlatLatency`], whose completions are
    /// caller-scheduled).
    ///
    /// This is the event-driven fast-forward hook: when the core is fully
    /// stalled on memory, the simulator jumps straight to this cycle instead
    /// of stepping through the dead time. The answer **must be exact**, not
    /// merely a lower bound that is safe to wake early at: the hierarchy
    /// also skips [`drain`](Self::drain) on every stepped cycle before it,
    /// so a completion due earlier than the answer (or `None` with work
    /// pending) is delivered late or never. Backends that queue work
    /// internally must implement it.
    fn next_event(&self) -> Option<u64> {
        None
    }

    /// Whether a demand read offered now would be admitted.
    fn can_accept(&self) -> bool;

    /// Number of reads currently occupying MSHRs.
    fn in_flight(&self) -> usize;

    /// Accumulated counters as of the end of cycle `now`. A request counts
    /// towards [`BackendStats::demand_reads`] and [`BackendStats::writes`]
    /// when it is accepted, and towards the row-buffer counters when it
    /// starts service, so one scheduled to start after `now` is left out
    /// of those.
    fn stats(&self, now: u64) -> BackendStats;
}

/// The paper's memory model: a fixed latency with unlimited outstanding
/// misses. Requests are answered [`Admit::At`] immediately and the backend
/// retains no state, which makes it byte-for-byte equivalent to the
/// pre-backend hierarchy (the parity tests in `tests/memory_backend.rs`
/// pin this down against recorded cycle counts).
#[derive(Debug, Clone)]
pub struct FlatLatency {
    latency: u32,
    stats: BackendStats,
}

impl FlatLatency {
    /// A flat backend with the given main-memory latency.
    pub fn new(latency: u32) -> Self {
        FlatLatency {
            latency,
            stats: BackendStats::default(),
        }
    }
}

impl MemoryBackend for FlatLatency {
    fn request(&mut self, req: MemReq, at: u64) -> Admit {
        if req.is_write {
            self.stats.writes += 1;
        } else {
            self.stats.demand_reads += 1;
        }
        Admit::At(at + self.latency as u64)
    }

    fn drain(&mut self, _now: u64, _out: &mut Vec<Completion>) {}

    fn can_accept(&self) -> bool {
        true
    }

    fn in_flight(&self) -> usize {
        0
    }

    fn stats(&self, _now: u64) -> BackendStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_latency_answers_immediately_and_retains_nothing() {
        let mut b = FlatLatency::new(500);
        assert_eq!(b.request(MemReq::read(7, 0x40), 10), Admit::At(510));
        assert_eq!(b.in_flight(), 0);
        assert!(b.can_accept());
        let mut out = Vec::new();
        b.drain(600, &mut out);
        assert!(out.is_empty(), "flat completions are caller-scheduled");
        assert_eq!(b.next_event(), None);
        assert_eq!(b.stats(600).demand_reads, 1);
    }

    #[test]
    fn flat_latency_classifies_request_kinds() {
        let mut b = FlatLatency::new(100);
        b.request(MemReq::read(1, 0), 0);
        b.request(MemReq::write(64), 0);
        let s = b.stats(0);
        assert_eq!((s.demand_reads, s.writes), (1, 1));
    }
}
