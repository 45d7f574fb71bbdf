//! The bounded priority job queue feeding the worker pool.
//!
//! Ordering is **deterministic**: jobs pop by descending priority, ties
//! by ascending submission sequence (FIFO within a priority class). The
//! bound is backpressure, not silent loss — [`JobQueue::push`] hands the
//! request back when the queue is full, and the batch driver drains a
//! wave before retrying.

use crate::job::SolveRequest;
use parking_lot::Mutex;
use std::collections::BinaryHeap;

/// A request admitted into the queue, stamped with its submission
/// sequence number (the deterministic tie-breaker and the index of its
/// response slot in a batch).
#[derive(Clone, Debug)]
pub struct QueuedJob {
    /// Submission sequence (0-based, per batch).
    pub seq: usize,
    /// Effective priority (admission may have demoted the request's).
    pub priority: u8,
    /// When the job entered the queue — the anchor for the
    /// `service_queue_wait_ns` and `service_total_ns` latency
    /// histograms *and* for the job's deadline. Not part of the job's
    /// identity (excluded from equality and ordering).
    pub enqueued_at: std::time::Instant,
    /// Execution attempts already consumed (0 on first admission;
    /// incremented each time the retry layer re-enqueues the job).
    /// Excluded from equality and ordering: a retried job keeps its
    /// original priority and sequence, so it neither jumps nor loses its
    /// place in the deterministic order.
    pub attempts: u32,
    /// One entry per failed attempt (`"attempt N: <error>"`), attached to
    /// the terminal failure when the job is quarantined.
    pub fault_history: Vec<String>,
    /// The work itself.
    pub request: SolveRequest,
}

/// Heap ordering: max priority first, then min sequence.
impl PartialEq for QueuedJob {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for QueuedJob {}

impl PartialOrd for QueuedJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueuedJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Error returned by [`JobQueue::push`] on a full queue; carries the job
/// back to the caller.
#[derive(Debug)]
pub struct QueueFull(pub QueuedJob);

/// The bounded priority queue.
#[derive(Debug)]
pub struct JobQueue {
    capacity: usize,
    heap: Mutex<BinaryHeap<QueuedJob>>,
}

impl JobQueue {
    /// An empty queue holding at most `capacity` jobs (minimum 1).
    pub fn new(capacity: usize) -> JobQueue {
        JobQueue {
            capacity: capacity.max(1),
            heap: Mutex::new(BinaryHeap::new()),
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.heap.lock().len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.lock().is_empty()
    }

    /// Enqueues a job, or returns it in [`QueueFull`] when the bound is
    /// reached.
    // The "large" Err is the point: backpressure hands the whole job
    // back to the caller instead of dropping it.
    #[allow(clippy::result_large_err)]
    pub fn push(&self, job: QueuedJob) -> Result<(), QueueFull> {
        let mut heap = self.heap.lock();
        if heap.len() >= self.capacity {
            return Err(QueueFull(job));
        }
        heap.push(job);
        Ok(())
    }

    /// Pops the highest-priority (then earliest-submitted) job.
    pub fn pop(&self) -> Option<QueuedJob> {
        self.heap.lock().pop()
    }

    /// Re-enqueues a job for a retry attempt, **exempt from the
    /// capacity bound**. A retried job already holds a response slot in
    /// the running wave; refusing it would strand that slot and could
    /// deadlock the wave, so retries always land. Fresh admissions still
    /// go through the bounded [`JobQueue::push`].
    pub fn push_retry(&self, job: QueuedJob) {
        self.heap.lock().push(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Workload;

    fn job(seq: usize, priority: u8) -> QueuedJob {
        QueuedJob {
            seq,
            priority,
            enqueued_at: std::time::Instant::now(),
            attempts: 0,
            fault_history: Vec::new(),
            request: SolveRequest::new(
                format!("j{seq}"),
                Workload::SyntheticPauli {
                    n: 4,
                    qubits: 2,
                    seed: seq as u64,
                },
            ),
        }
    }

    #[test]
    fn pops_by_priority_then_submission_order() {
        let q = JobQueue::new(16);
        for (seq, pri) in [(0, 1u8), (1, 5), (2, 1), (3, 9), (4, 5)] {
            q.push(job(seq, pri)).unwrap();
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|j| j.seq).collect();
        // 9 first, then the two 5s FIFO, then the two 1s FIFO.
        assert_eq!(order, vec![3, 1, 4, 0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn bound_is_backpressure_not_loss() {
        let q = JobQueue::new(2);
        q.push(job(0, 1)).unwrap();
        q.push(job(1, 1)).unwrap();
        let QueueFull(back) = q.push(job(2, 7)).unwrap_err();
        assert_eq!(back.seq, 2, "the refused job comes back intact");
        assert_eq!(q.len(), 2);
        // Draining one slot admits it.
        assert_eq!(q.pop().unwrap().seq, 0);
        q.push(back).unwrap();
        assert_eq!(q.pop().unwrap().seq, 2, "priority 7 beats the leftover");
    }

    #[test]
    fn retries_bypass_the_bound_and_keep_their_place_in_order() {
        let q = JobQueue::new(2);
        q.push(job(0, 5)).unwrap();
        q.push(job(1, 5)).unwrap();
        // A retry of seq 0 lands even though the queue is full…
        let mut retry = job(0, 5);
        retry.attempts = 2;
        retry.fault_history = vec!["attempt 1: injected".into()];
        q.push_retry(retry);
        assert_eq!(q.len(), 3);
        // …and attempts/history don't perturb the deterministic order:
        // both seq-0 entries pop before seq 1 at equal priority.
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 1);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let q = JobQueue::new(0);
        assert_eq!(q.capacity(), 1);
        q.push(job(0, 1)).unwrap();
        assert!(q.push(job(1, 1)).is_err());
    }
}
