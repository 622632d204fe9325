//! Observation never moves a result byte: over the headline grid (the
//! naive and combined single-port designs and the dual-port baseline,
//! every paper workload at `Scale::Test`), a profiled run with the event
//! ring attached produces the same schema-3 metrics document as one
//! without, outside the host-side `self_profile`. The ring is opt-in, so
//! this is what lets sweep cells drop it.

use cpe_core::{
    profile_json, ProfileOptions, ProfiledRun, RecordedWorkload, SimConfig, Simulator,
    DEFAULT_RING_CAPACITY,
};
use cpe_workloads::{Scale, Workload};

/// The document with its `self_profile` member (always the last one)
/// cut off.
fn without_self_profile(document: &str) -> &str {
    let at = document
        .find(",\"self_profile\":")
        .expect("profiled documents carry a self_profile");
    &document[..at]
}

fn profile(
    simulator: &Simulator,
    recorded: &RecordedWorkload,
    ring_capacity: usize,
) -> ProfiledRun {
    simulator
        .try_profile_recorded(
            recorded,
            None,
            ProfileOptions {
                ring_capacity,
                ..ProfileOptions::default()
            },
        )
        .expect("profiled run completes")
}

#[test]
fn the_event_ring_never_moves_a_result_byte() {
    let configs = [
        SimConfig::naive_single_port(),
        SimConfig::combined_single_port(),
        SimConfig::dual_port(),
    ];
    for workload in Workload::ALL {
        let recorded = RecordedWorkload::record(workload, Scale::Test, None);
        for config in &configs {
            let simulator = Simulator::new(config.clone());
            let bare = profile(&simulator, &recorded, 0);
            let ringed = profile(&simulator, &recorded, DEFAULT_RING_CAPACITY);
            let cell = format!("{} × {}", workload.name(), config.name);

            assert!(
                !bare.self_profile.capture_enabled,
                "{cell}: no ring asked for"
            );
            assert!(bare.self_profile.ring.is_none() && bare.events.is_empty());
            assert_eq!(
                ringed.self_profile.capture_enabled,
                cfg!(feature = "trace"),
                "{cell}: a ring is attached whenever capture is compiled in"
            );

            let bare_doc = profile_json(&bare, simulator.config());
            let ringed_doc = profile_json(&ringed, simulator.config());
            assert!(
                without_self_profile(&bare_doc) == without_self_profile(&ringed_doc),
                "{cell}: attaching the ring changed the metrics document"
            );
            assert!(bare_doc.contains("\"capture_enabled\":false,\"ring\":null"));
        }
    }
}
