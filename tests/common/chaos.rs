//! Helpers shared by the chaos acceptance binaries
//! (`tests/chaos.rs`, `tests/chaos_threads.rs`).

use geostreams::dsms::protocol::{ClientRequest, OutputFormat};
use geostreams::satsim::FaultPlan;

pub fn req(q: &str, format: OutputFormat) -> ClientRequest {
    ClientRequest { query: q.to_string(), format, sectors: 0 }
}

/// The canonical degraded downlink of the acceptance criteria: ≥5%
/// dropped rows, duplicated elements, out-of-order elements, plus a
/// sprinkle of dropped points and lost end markers.
pub fn chaos_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed)
        .with_dropped_rows(0.08)
        .with_dropped_points(0.03)
        .with_dropped_end_markers(0.05)
        .with_duplicates(0.05)
        .with_reordering(0.05)
}

/// Threads of this process (Linux); used to prove the runtime joins
/// everything it spawns.
pub fn thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find(|l| l.starts_with("Threads:"))?.split_whitespace().nth(1)?.parse().ok()
}
