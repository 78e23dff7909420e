//! Bounded per-shard admission control for the data plane.
//!
//! Every data-plane request ([`crate::proto::Request::Serve`],
//! [`crate::proto::Request::ServeBatch`]) must win a slot in its keyword's
//! shard lane before it may enter the executor queue; the slot is held —
//! via an RAII [`Ticket`] — until the request's reply has been *written*
//! to its peer, so the bound covers queued and in-flight work **and** the
//! replies a slow peer has not taken yet. A full lane refuses
//! the request immediately with
//! [`crate::proto::Response::Overloaded`] instead of buffering without
//! limit: the client gets typed backpressure and a retry hint, the server
//! keeps its memory bounded.
//!
//! Control-plane requests bypass admission entirely — a drowning data
//! plane must never lock an operator out of `Stats`, bid updates, or
//! graceful shutdown.
//!
//! Shards map onto a fixed array of [`LANES`] counters
//! (`shard % LANES`), so the structure never reallocates when
//! [`crate::proto::Request::Configure`] changes the shard count
//! mid-flight.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of admission lanes; shards map onto lanes by `shard % LANES`.
pub const LANES: usize = 64;

/// Bounded admission state shared by all connection reader threads.
#[derive(Debug)]
pub struct Admission {
    lanes: Vec<AtomicUsize>,
    per_lane: usize,
    retry_after_ms: u32,
    overloaded: AtomicU64,
}

impl Admission {
    /// Creates admission control allowing `per_lane` queued-or-in-flight
    /// data requests per lane, advising refused clients to retry after
    /// `retry_after_ms`.
    pub fn new(per_lane: usize, retry_after_ms: u32) -> Arc<Self> {
        Arc::new(Admission {
            lanes: (0..LANES).map(|_| AtomicUsize::new(0)).collect(),
            per_lane: per_lane.max(1),
            retry_after_ms,
            overloaded: AtomicU64::new(0),
        })
    }

    /// The back-off hint sent with every `Overloaded` response.
    pub fn retry_after_ms(&self) -> u32 {
        self.retry_after_ms
    }

    /// Total data-plane requests refused so far.
    pub fn overloaded_count(&self) -> u64 {
        self.overloaded.load(Ordering::Relaxed)
    }

    /// Attempts to occupy one slot in `lane`; `None` (and a bumped
    /// overload counter) if the lane is at capacity.
    fn try_enter(&self, lane: usize) -> bool {
        let counter = &self.lanes[lane % LANES];
        let mut current = counter.load(Ordering::Relaxed);
        loop {
            if current >= self.per_lane {
                return false;
            }
            match counter.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(observed) => current = observed,
            }
        }
    }

    fn leave(&self, lane: usize) {
        self.lanes[lane % LANES].fetch_sub(1, Ordering::AcqRel);
    }

    /// Admits a single-shard request: a slot in the shard's lane, or
    /// `None` if full.
    pub fn try_admit(self: &Arc<Self>, shard: usize) -> Option<Ticket> {
        self.try_admit_shards(std::iter::once(shard))
    }

    /// Admits a request touching several shards (a mixed-keyword
    /// `ServeBatch`): all-or-nothing — either every distinct lane yields a
    /// slot or none is taken and the request is refused.
    pub fn try_admit_shards(
        self: &Arc<Self>,
        shards: impl IntoIterator<Item = usize>,
    ) -> Option<Ticket> {
        let mut lanes: Vec<usize> = shards.into_iter().map(|s| s % LANES).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let mut taken = Vec::with_capacity(lanes.len());
        for &lane in &lanes {
            if self.try_enter(lane) {
                taken.push(lane);
            } else {
                for &t in &taken {
                    self.leave(t);
                }
                self.overloaded.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        Some(Ticket {
            admission: Arc::clone(self),
            lanes: taken,
        })
    }

    /// Current occupancy of a shard's lane (tests and stats only).
    pub fn occupancy(&self, shard: usize) -> usize {
        self.lanes[shard % LANES].load(Ordering::Relaxed)
    }
}

/// An admitted request's hold on its lanes; dropping it — after the
/// request's reply is written, or on any error path — releases the slots.
#[derive(Debug)]
pub struct Ticket {
    admission: Arc<Admission>,
    lanes: Vec<usize>,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        for &lane in &self.lanes {
            self.admission.leave(lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_capacity_is_enforced() {
        let adm = Admission::new(2, 5);
        let t1 = adm.try_admit(0).expect("slot 1");
        let _t2 = adm.try_admit(0).expect("slot 2");
        assert!(adm.try_admit(0).is_none(), "lane full");
        assert_eq!(adm.overloaded_count(), 1);
        // Other lanes are unaffected.
        assert!(adm.try_admit(1).is_some());
        // Releasing a ticket frees the slot.
        drop(t1);
        assert!(adm.try_admit(0).is_some());
    }

    #[test]
    fn multi_shard_admission_is_all_or_nothing() {
        let adm = Admission::new(1, 5);
        let _t = adm.try_admit(3).expect("slot");
        // A batch touching lanes {2, 3} must take neither.
        assert!(adm.try_admit_shards([2, 3]).is_none());
        assert_eq!(adm.occupancy(2), 0, "partial admission leaked a slot");
        assert_eq!(adm.overloaded_count(), 1);
        // Duplicate shards count once.
        let t = adm.try_admit_shards([2, 2, 2]).expect("one lane, one slot");
        assert_eq!(adm.occupancy(2), 1);
        drop(t);
        assert_eq!(adm.occupancy(2), 0);
    }
}
