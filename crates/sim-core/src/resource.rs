//! Simulated resources: FIFO servers with pluggable service-time models.
//!
//! A resource serves one demand at a time; further demands queue in arrival
//! order. Service times come from a [`ServiceModel`], which may keep state
//! (a disk model remembers its head position, so service time depends on
//! history).

use crate::demand::Demand;
use crate::time::{SimDuration, SimTime};

/// Opaque handle to a resource registered with an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// The raw index of this resource inside its engine.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Computes how long a [`Demand`] occupies a resource.
///
/// Models may be stateful: the engine guarantees `service_time` is invoked in
/// simulated-time order (the order demands actually reach the head of the
/// queue), so state such as a disk head position evolves realistically.
///
/// The queue discipline is FIFO unless [`ServiceModel::reorders`] says
/// otherwise: a FIFO resource pops its queue head in O(1) when it frees up,
/// with no [`ServiceModel::select_next`] call and no scan of the queue.
pub trait ServiceModel: Send {
    /// Time the resource is busy serving `demand`, starting at `now`.
    fn service_time(&mut self, demand: &Demand, now: SimTime) -> SimDuration;

    /// Whether this model may serve pending demands out of arrival order.
    ///
    /// A property of the model, asked whenever the resource frees up with
    /// two or more demands waiting. The default is `false` (FIFO), and
    /// then [`ServiceModel::select_next`] is never called. A model that
    /// overrides `select_next` must also answer `true` here.
    fn reorders(&self) -> bool {
        false
    }

    /// Queue discipline: index of the pending demand to serve next.
    ///
    /// Called only on models that [reorder](ServiceModel::reorders),
    /// whenever the resource finishes a demand and at least two others
    /// wait; `pending` is in arrival order. A disk model overrides this
    /// to implement SSTF or elevator scheduling over the queued offsets.
    fn select_next(&mut self, pending: &[&Demand]) -> usize {
        let _ = pending;
        0
    }
}

/// A fixed-rate service model: `per_op` setup cost plus `bytes/bytes_per_sec`.
///
/// Suitable for NIC ports, buses, DMA engines and per-message CPU overhead,
/// where cost is affine in the payload size.
#[derive(Debug, Clone)]
pub struct FixedRate {
    /// Setup/overhead charged once per operation.
    pub per_op: SimDuration,
    /// Streaming bandwidth; 0 disables the per-byte component.
    pub bytes_per_sec: u64,
}

impl FixedRate {
    /// A model with only a per-operation cost.
    pub fn per_op(d: SimDuration) -> Self {
        FixedRate { per_op: d, bytes_per_sec: 0 }
    }

    /// A model with only a bandwidth component.
    pub fn rate(bytes_per_sec: u64) -> Self {
        FixedRate { per_op: SimDuration::ZERO, bytes_per_sec }
    }
}

impl ServiceModel for FixedRate {
    fn service_time(&mut self, demand: &Demand, _now: SimTime) -> SimDuration {
        match demand {
            Demand::Busy(d) => *d,
            d => self.per_op + SimDuration::for_bytes(d.bytes(), self.bytes_per_sec),
        }
    }
}

/// Aggregate statistics for one resource over a run.
#[derive(Debug, Clone, Default)]
pub struct ResourceStats {
    /// Total simulated time the resource spent serving demands.
    pub busy: SimDuration,
    /// Number of demands served.
    pub ops: u64,
    /// Total payload bytes across served demands.
    pub bytes: u64,
    /// Sum of time demands spent waiting in queue before service.
    pub queue_wait: SimDuration,
    /// Largest queue length observed (including the demand in service).
    pub max_queue: usize,
}

impl ResourceStats {
    /// Fraction of `span` the resource was busy (0..=1).
    pub fn utilization(&self, span: SimDuration) -> f64 {
        if span.as_nanos() == 0 {
            0.0
        } else {
            self.busy.as_nanos() as f64 / span.as_nanos() as f64
        }
    }

    /// Mean queueing delay per served demand.
    pub fn mean_wait(&self) -> SimDuration {
        match self.queue_wait.as_nanos().checked_div(self.ops) {
            Some(ns) => SimDuration(ns),
            None => SimDuration::ZERO,
        }
    }

    /// Achieved throughput in bytes/sec over `span`.
    pub fn throughput(&self, span: SimDuration) -> f64 {
        if span.as_nanos() == 0 {
            0.0
        } else {
            self.bytes as f64 / span.as_secs_f64()
        }
    }
}

/// A queued demand waiting for (or holding) a resource.
#[derive(Debug)]
pub(crate) struct Pending {
    pub task: crate::engine::TaskId,
    pub demand: Demand,
    pub enqueued: SimTime,
}

/// Internal resource record owned by the engine.
pub(crate) struct ResourceSlot {
    pub name: String,
    pub model: Box<dyn ServiceModel>,
    pub queue: std::collections::VecDeque<Pending>,
    /// Task currently in service, if any.
    pub current: Option<Pending>,
    pub stats: ResourceStats,
    /// Service-time multiplier applied on top of the model (1 = nominal).
    /// Fault injection uses this for "slow but alive" components, so any
    /// [`ServiceModel`] degrades uniformly without knowing about faults.
    pub slowdown: u64,
}

impl ResourceSlot {
    pub fn new(name: String, model: Box<dyn ServiceModel>) -> Self {
        ResourceSlot {
            name,
            model,
            queue: std::collections::VecDeque::new(),
            current: None,
            stats: ResourceStats::default(),
            slowdown: 1,
        }
    }

    /// Queue length including the in-service demand.
    pub fn depth(&self) -> usize {
        self.queue.len() + usize::from(self.current.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rate_charges_setup_plus_bytes() {
        let mut m = FixedRate { per_op: SimDuration::from_micros(100), bytes_per_sec: 1_000_000 };
        let t = m.service_time(&Demand::NetXfer { bytes: 1_000_000 }, SimTime::ZERO);
        assert_eq!(t, SimDuration::from_micros(100) + SimDuration::from_secs(1));
    }

    #[test]
    fn fixed_rate_busy_passthrough() {
        let mut m = FixedRate::rate(10);
        let t = m.service_time(&Demand::Busy(SimDuration::from_millis(7)), SimTime::ZERO);
        assert_eq!(t, SimDuration::from_millis(7));
    }

    #[test]
    fn utilization_and_wait() {
        let s = ResourceStats {
            busy: SimDuration::from_millis(500),
            ops: 5,
            bytes: 5_000_000,
            queue_wait: SimDuration::from_millis(50),
            max_queue: 3,
        };
        assert!((s.utilization(SimDuration::from_secs(1)) - 0.5).abs() < 1e-12);
        assert_eq!(s.mean_wait(), SimDuration::from_millis(10));
        assert!((s.throughput(SimDuration::from_secs(1)) - 5_000_000.0).abs() < 1e-6);
        assert_eq!(ResourceStats::default().mean_wait(), SimDuration::ZERO);
        assert_eq!(ResourceStats::default().utilization(SimDuration::ZERO), 0.0);
    }
}
