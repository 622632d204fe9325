//! The shared recording store behind the replay backend.
//!
//! A replay sweep must record each distinct `(workload, scale,
//! max_insts)` tuple **at most once** and replay it for every
//! configuration cell — that is the backend's whole point. [`TraceStore`]
//! is that guarantee: a thread-safe map from tuple to a once-filled slot
//! holding the shared [`RecordedWorkload`]. Recording is lazy: the first
//! [`TraceStore::get`] for a tuple records it, outside the map lock, so
//! two workers record two workloads at the same time, and a worker that
//! wants a tuple already being recorded waits on that tuple's slot alone.
//! A sweep whose cells all hit the result cache records nothing. The
//! recorded/reused counters feed the sweep footer's `trace:` segment —
//! observability only, never the results.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cpe_core::RecordedWorkload;
use cpe_workloads::{Scale, Workload};

use crate::job::Job;

type TraceKey = (Workload, Scale, Option<u64>);
/// One tuple's recording, filled by whichever caller asks for it first.
type Slot = Arc<OnceLock<Arc<RecordedWorkload>>>;

/// Recorded traces shared across the cells of one replay run.
#[derive(Debug, Default)]
pub struct TraceStore {
    slots: Mutex<HashMap<TraceKey, Slot>>,
    recorded: AtomicU64,
    reused: AtomicU64,
}

impl TraceStore {
    /// An empty store.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// The recording for `job`'s tuple, and whether this call made it.
    /// The map lock covers only the slot lookup; recording runs under the
    /// slot's own once-guard.
    fn recording(&self, job: &Job) -> (Arc<RecordedWorkload>, bool) {
        let key = (job.workload, job.scale, job.max_insts);
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("trace store lock")
                .entry(key)
                .or_default(),
        );
        let mut made = false;
        let recorded = slot.get_or_init(|| {
            let recorded = RecordedWorkload::record(job.workload, job.scale, job.max_insts);
            made = true;
            self.recorded.fetch_add(1, Ordering::Relaxed);
            Arc::new(recorded)
        });
        (Arc::clone(recorded), made)
    }

    /// Record every distinct `(workload, scale, max_insts)` tuple in
    /// `jobs` that is not already in the store, in job order. Returns how
    /// many recordings this call made.
    pub fn record_all(&self, jobs: &[Job]) -> u64 {
        jobs.iter().filter(|job| self.recording(job).1).count() as u64
    }

    /// The recording for `job`'s tuple, recording it first if the store
    /// does not hold it yet (or waiting while another caller records it).
    pub fn get(&self, job: &Job) -> Arc<RecordedWorkload> {
        let (recorded, _) = self.recording(job);
        self.reused.fetch_add(1, Ordering::Relaxed);
        recorded
    }

    /// `(recorded, reused)`: how many recordings were made, and how many
    /// [`TraceStore::get`] calls replayed one — every call, including the
    /// one that triggered the recording.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.recorded.load(Ordering::Relaxed),
            self.reused.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpe_core::SimConfig;

    fn job(workload: Workload, max_insts: Option<u64>) -> Job {
        Job {
            config: SimConfig::dual_port(),
            workload,
            scale: Scale::Test,
            max_insts,
            backend: cpe_core::BackendKind::Replay,
        }
    }

    #[test]
    fn record_all_records_each_tuple_exactly_once() {
        let store = TraceStore::new();
        let jobs = vec![
            job(Workload::Sort, Some(2_000)),
            job(Workload::Sort, Some(2_000)),
            job(Workload::Compress, Some(2_000)),
            job(Workload::Sort, Some(1_000)),
        ];
        assert_eq!(store.record_all(&jobs), 3, "distinct tuples only");
        assert_eq!(store.record_all(&jobs), 0, "idempotent");
        assert_eq!(store.counts(), (3, 0));
    }

    #[test]
    fn get_reuses_prerecorded_traces_and_shares_them() {
        let store = TraceStore::new();
        let jobs = vec![job(Workload::Sort, Some(2_000))];
        store.record_all(&jobs);
        let a = store.get(&jobs[0]);
        let b = store.get(&jobs[0]);
        assert!(Arc::ptr_eq(&a, &b), "one recording, shared");
        assert_eq!(store.counts(), (1, 2));
    }

    #[test]
    fn get_records_on_the_fly_when_not_prepopulated() {
        let store = TraceStore::new();
        let first = job(Workload::Compress, None);
        let recorded = store.get(&first);
        assert_eq!(store.counts(), (1, 1), "the recording call replays too");
        assert!(
            recorded.trace().complete(),
            "uncapped recording runs to halt"
        );
        store.get(&first);
        assert_eq!(store.counts(), (1, 2));
    }

    #[test]
    fn concurrent_gets_of_one_tuple_share_a_single_recording() {
        let store = TraceStore::new();
        let wanted = job(Workload::Sort, Some(2_000));
        let gate = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let get = || {
                gate.wait();
                store.get(&wanted)
            };
            let first = scope.spawn(get);
            let second = scope.spawn(get);
            (
                first.join().expect("first getter"),
                second.join().expect("second getter"),
            )
        });
        assert!(Arc::ptr_eq(&a, &b), "one recording, shared");
        assert_eq!(store.counts(), (1, 2));
    }

    #[test]
    fn record_all_fills_the_slots_get_reads() {
        let store = TraceStore::new();
        let sort = job(Workload::Sort, Some(2_000));
        let first = store.get(&sort);
        assert_eq!(store.record_all(std::slice::from_ref(&sort)), 0);
        assert!(Arc::ptr_eq(&first, &store.get(&sort)));
        assert_eq!(store.counts(), (1, 2));
    }
}
