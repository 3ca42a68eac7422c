//! The three workloads. Each round is one `run_supervised` call over a
//! seeded scanner; its per-query outputs are reduced to digests and
//! checked against round 1 (the warm-up round), against the pinned
//! digests for the default seed, and for `swarm` against the unshared
//! path.

use geostreams_core::model::GeoStream;
use geostreams_dsms::protocol::{ClientRequest, OutputFormat};
use geostreams_dsms::{run_supervised, IngestStats, QueryResult, RuntimeConfig, ServerMetrics};
use geostreams_satsim::{goes_like, FaultPlan, Scanner};
use geostreams_store::{Archive, ArchiveConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed whose digests are pinned in `pinned_digests.txt`.
pub const DEFAULT_SEED: u64 = 1;

const PINNED: &str = include_str!("../pinned_digests.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Live,
    Swarm,
    Backfill,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "live" => Some(Kind::Live),
            "swarm" => Some(Kind::Swarm),
            "backfill" => Some(Kind::Backfill),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Live => "live",
            Kind::Swarm => "swarm",
            Kind::Backfill => "backfill",
        }
    }
}

/// Input sizes. `smoke` shrinks everything to one tiny round's worth.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Visible-band sector width and height (IR bands are 1/4 per axis).
    /// `backfill` is smaller: at the archive's default 64-column tiles
    /// its 3-sector cold window is 6 x 240 x 3 = 4320 tiles, just over
    /// the 4096-tile decoded cache (a cold tile costs the same at any
    /// size, so a larger window only lengthens the round).
    pub vis_w: u32,
    pub vis_h: u32,
    /// Live sectors per `live` round.
    pub live_sectors: u64,
    /// Live sectors per `swarm` round.
    pub swarm_sectors: u64,
    /// Subscribers per distinct `swarm` plan.
    pub swarm_subs_per_plan: usize,
    /// Archived b1 sectors the `backfill` cold replay reads.
    pub cold_sectors: u64,
    /// Archived b4 sectors the `backfill` hot replay reads.
    pub hot_sectors: u64,
    /// `live` archive retention in bytes.
    pub live_retention_bytes: u64,
}

impl Sizes {
    pub fn new(kind: Kind, smoke: bool) -> Sizes {
        if smoke {
            Sizes {
                vis_w: 64,
                vis_h: 32,
                live_sectors: 1,
                swarm_sectors: 1,
                swarm_subs_per_plan: 4,
                cold_sectors: 3,
                hot_sectors: 4,
                live_retention_bytes: 1 << 16,
            }
        } else {
            Sizes {
                vis_w: if kind == Kind::Backfill { 384 } else { 512 },
                vis_h: if kind == Kind::Backfill { 240 } else { 256 },
                live_sectors: 1,
                swarm_sectors: 1,
                swarm_subs_per_plan: 64,
                cold_sectors: 3,
                hot_sectors: 4,
                live_retention_bytes: 4 << 20,
            }
        }
    }
}

/// A named query: `name` is the ops-probe pipeline it runs (the same
/// name means the same operator pipeline in every workload).
#[derive(Debug, Clone)]
pub struct NamedQuery {
    pub name: &'static str,
    pub text: String,
    pub format: OutputFormat,
}

fn q(name: &'static str, text: &str, format: OutputFormat) -> NamedQuery {
    NamedQuery { name, text: text.to_string(), format }
}

/// Every distinct operator pipeline the workloads run, by ops-probe name.
pub fn op_pipelines() -> Vec<NamedQuery> {
    vec![
        q(
            "restrict",
            "restrict_space(goes-sim.b1-vis, bbox(-105, 30, -95, 40), \"latlon\")",
            OutputFormat::Stats,
        ),
        q("ndvi", "ndvi(goes-sim.b2-nir, downsample(goes-sim.b1-vis, 4))", OutputFormat::Stats),
        q("stretch", "stretch(goes-sim.b4-ir, \"linear\", \"frame\")", OutputFormat::Stats),
        q("focal", "focal(goes-sim.b5-ir, \"mean\", 3)", OutputFormat::Stats),
        q("value", "restrict_value(goes-sim.b3-wv, 0.3, 0.9)", OutputFormat::Stats),
        q("png", "restrict_value(goes-sim.b4-ir, 0, 1)", OutputFormat::PngThermal),
        q(
            "focal3",
            "focal(focal(focal(scale(goes-sim.b4-ir, 2, 0), \"mean\", 5), \"max\", 5), \"min\", 5)",
            OutputFormat::Stats,
        ),
        q(
            "restrict_ir",
            "restrict_space(goes-sim.b5-ir, bbox(-105, 30, -95, 40), \"latlon\")",
            OutputFormat::Stats,
        ),
        q("downsample_ir", "downsample(goes-sim.b5-ir, 2)", OutputFormat::Stats),
    ]
}

fn pipeline(name: &str) -> NamedQuery {
    op_pipelines().into_iter().find(|p| p.name == name).expect("known pipeline")
}

/// The six unshared `live` dashboard queries.
fn live_queries() -> Vec<NamedQuery> {
    ["restrict", "ndvi", "stretch", "focal", "value", "png"].iter().map(|n| pipeline(n)).collect()
}

/// The four distinct `swarm` plans: IR bands only, so synthesis stays
/// small next to fan-out, and each plan delivers a different point
/// count, so a subscriber served the wrong plan fails its digest.
pub fn swarm_plans() -> Vec<NamedQuery> {
    ["focal3", "value", "restrict_ir", "downsample_ir"].iter().map(|n| pipeline(n)).collect()
}

/// Band indices each workload's downlink carries (and the ops probes
/// pre-render).
pub fn bands(kind: Kind) -> &'static [usize] {
    match kind {
        Kind::Live => &[0, 1, 2, 3, 4],
        Kind::Swarm => &[2, 3, 4],
        Kind::Backfill => &[0, 3],
    }
}

/// The backfill round's queries at "now" = `now`.
fn backfill_queries(sizes: &Sizes, now: u64) -> Vec<NamedQuery> {
    vec![
        q(
            "cold",
            &format!("restrict_time(goes-sim.b1-vis, interval(0, {}))", sizes.cold_sectors),
            OutputFormat::Stats,
        ),
        q(
            "hot",
            &format!("restrict_time(goes-sim.b4-ir, interval(0, {}))", sizes.hot_sectors),
            OutputFormat::Stats,
        ),
        q(
            "hybrid",
            &format!("restrict_time(goes-sim.b4-ir, interval({}, {}))", now - 2, now + 2),
            OutputFormat::Stats,
        ),
    ]
}

/// A GOES-like 5-band scanner over a stationary scene: the cloud field
/// does not move between sectors, so every round sees the same pixels
/// while sector ids (and the archive) advance, and round 1's digests
/// are the reference for every later round.
pub fn scanner(sizes: &Sizes, seed: u64) -> Scanner {
    let mut s = goes_like(sizes.vis_w, sizes.vis_h, seed);
    s.instrument.sector_period = 0;
    s
}

/// The light seeded downlink degradation of `live`.
pub fn live_fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::seeded(seed).with_dropped_points(0.002).with_duplicates(0.002)
}

/// FNV-1a, 64-bit.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    pub fn bytes(mut self, b: &[u8]) -> Fnv {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }
    pub fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }
}

/// One query's outcome in one round.
#[derive(Debug, Clone, Default)]
pub struct QueryOut {
    /// `None` when the query errored, was rejected or was cancelled.
    pub digest: Option<u64>,
    /// Points delivered (pixels of delivered frames for PNG queries).
    pub points: u64,
    pub frames: u64,
    /// Points that entered the query's repair stages (all sources).
    pub repaired_points: u64,
    pub gaps: u64,
    pub dup_points: u64,
}

/// Digest of one query result: points, sectors, elements, per-source
/// repair counts, and each delivered frame's size and PNG bytes (FNV). Sector
/// ids and timestamps are left out: they advance between rounds.
pub fn digest(r: &QueryResult) -> u64 {
    let mut h = Fnv::new().u64(r.points);
    if let Some(rep) = &r.report {
        h = h.u64(rep.sectors).u64(rep.elements).u64(rep.points_delivered);
    }
    // Per-source repair facts, in source-name order (the runtime lists
    // sources in no fixed order).
    let mut repair: Vec<_> = r.repair.iter().collect();
    repair.sort_by(|a, b| a.source.cmp(&b.source));
    for s in repair {
        let st = &s.stats;
        h = h.u64(st.gaps).u64(st.duplicate_points).u64(st.received_points).u64(st.expected_points);
    }
    h = h.u64(r.frames.len() as u64);
    for f in &r.frames {
        h = h.u64(u64::from(f.width)).u64(u64::from(f.height)).u64(Fnv::new().bytes(&f.png).0);
    }
    h.0
}

fn query_out(r: &geostreams_core::Result<QueryResult>) -> QueryOut {
    let Ok(r) = r else { return QueryOut::default() };
    let pixels: u64 = r.frames.iter().map(|f| u64::from(f.width) * u64::from(f.height)).sum();
    QueryOut {
        digest: (!r.cancelled).then(|| digest(r)),
        points: if r.frames.is_empty() { r.points } else { pixels },
        frames: r.frames.len() as u64,
        repaired_points: r.repair.iter().map(|s| s.stats.received_points).sum(),
        gaps: r.repair.iter().map(|s| s.stats.gaps).sum(),
        dup_points: r.repair.iter().map(|s| s.stats.duplicate_points).sum(),
    }
}

/// One round's outcome.
pub struct RoundOut {
    pub wall: Duration,
    pub queries: Vec<QueryOut>,
    pub stats: IngestStats,
}

impl RoundOut {
    pub fn points(&self) -> u64 {
        self.queries.iter().map(|q| q.points).sum()
    }

    /// Any point shed anywhere in the fan-out.
    pub fn shed(&self) -> u64 {
        self.stats.shed_elements + self.stats.shed_per_tenant.iter().map(|(_, n)| n).sum::<u64>()
    }
}

/// A set-up workload, ready for timed rounds.
pub struct Workload {
    pub kind: Kind,
    pub sizes: Sizes,
    pub seed: u64,
    pub scanner: Scanner,
    pub archive: Option<Arc<Archive>>,
    /// The live feed's first sector in the next round ("now").
    next_sector: u64,
    /// Per-query reference digests: round 1 of this run.
    reference: Vec<Option<u64>>,
    /// Per-query digests pinned for the default seed.
    pinned: Option<Vec<u64>>,
    /// `swarm`: per-subscriber digest of its plan on the unshared path.
    oracle: Option<Vec<Option<u64>>>,
}

impl Workload {
    /// Builds the workload's state in `dir` and runs the warm-up round,
    /// whose digests become the reference.
    pub fn setup(kind: Kind, seed: u64, smoke: bool, dir: &Path) -> Result<Workload, String> {
        let sizes = Sizes::new(kind, smoke);
        let scanner = scanner(&sizes, seed);
        let mut w = Workload {
            kind,
            sizes,
            seed,
            scanner,
            archive: None,
            next_sector: 0,
            reference: Vec::new(),
            pinned: None,
            oracle: None,
        };
        match kind {
            Kind::Live => {
                let archive =
                    Archive::create(ArchiveConfig::new(dir)).map_err(|e| e.to_string())?;
                w.archive = Some(Arc::new(archive));
            }
            Kind::Swarm => {
                // The unshared path, one subscriber per plan: every
                // shared subscriber must match its plan's result.
                let plans = swarm_plans();
                let requests: Vec<ClientRequest> = plans.iter().map(request).collect();
                let config = RuntimeConfig::default();
                let (results, _) =
                    run_supervised(&w.scanner, sizes.swarm_sectors, &requests, &config)
                        .map_err(|e| e.to_string())?;
                let per_plan: Vec<Option<u64>> =
                    results.iter().map(|r| query_out(r).digest).collect();
                let n = plans.len() * sizes.swarm_subs_per_plan;
                w.oracle = Some((0..n).map(|i| per_plan[i % plans.len()]).collect());
            }
            Kind::Backfill => {
                let archive =
                    Archive::create(ArchiveConfig::new(dir)).map_err(|e| e.to_string())?;
                seed_archive(&archive, &w.scanner, 0, sizes.cold_sectors)?;
                seed_archive(&archive, &w.scanner, 3, sizes.hot_sectors)?;
                w.archive = Some(Arc::new(archive));
                w.next_sector = sizes.hot_sectors;
            }
        }
        let warm = w.round(None)?;
        w.reference = warm.queries.iter().map(|q| q.digest).collect();
        if seed == DEFAULT_SEED && !smoke {
            w.pinned = pinned(kind);
        }
        Ok(w)
    }

    /// The round's requests.
    pub fn queries(&self) -> Vec<NamedQuery> {
        match self.kind {
            Kind::Live => live_queries(),
            Kind::Swarm => {
                let plans = swarm_plans();
                (0..plans.len() * self.sizes.swarm_subs_per_plan)
                    .map(|i| plans[i % plans.len()].clone())
                    .collect()
            }
            Kind::Backfill => backfill_queries(&self.sizes, self.next_sector),
        }
    }

    /// The live feed's first sector in the next round ("now").
    pub fn next_sector(&self) -> u64 {
        self.next_sector
    }

    fn live_sectors(&self) -> u64 {
        match self.kind {
            Kind::Live => self.sizes.live_sectors,
            Kind::Swarm => self.sizes.swarm_sectors,
            Kind::Backfill => 2,
        }
    }

    /// The runtime configuration of the next round: defaults except
    /// for the fields that define this workload's traffic.
    fn config(&self, metrics: Option<&Arc<ServerMetrics>>) -> RuntimeConfig {
        let base = RuntimeConfig { metrics: metrics.cloned(), ..RuntimeConfig::default() };
        match self.kind {
            Kind::Live => RuntimeConfig {
                fault_plan: Some(live_fault_plan(self.seed)),
                archive: self.archive.clone(),
                start_sector: self.next_sector,
                archive_max_bytes: Some(self.sizes.live_retention_bytes),
                ..base
            },
            Kind::Swarm => RuntimeConfig { share_plans: true, ..base },
            Kind::Backfill => RuntimeConfig {
                archive: self.archive.clone(),
                start_sector: self.next_sector,
                ..base
            },
        }
    }

    /// Runs one round: one `run_supervised` call, timed from the call
    /// to its return.
    pub fn round(&mut self, metrics: Option<&Arc<ServerMetrics>>) -> Result<RoundOut, String> {
        let requests: Vec<ClientRequest> = self.queries().iter().map(request).collect();
        let config = self.config(metrics);
        let n = self.live_sectors();
        let t0 = Instant::now();
        let (results, stats) =
            run_supervised(&self.scanner, n, &requests, &config).map_err(|e| e.to_string())?;
        let wall = t0.elapsed();
        if self.kind != Kind::Swarm {
            self.next_sector += n;
        }
        Ok(RoundOut { wall, queries: results.iter().map(query_out).collect(), stats })
    }

    /// Failed query-rounds of `r`: errors, rejections, cancellations,
    /// any shed point (charged to every query of the round), and digest
    /// mismatches against round 1, the pinned digests and the oracle.
    pub fn failures(&self, r: &RoundOut) -> u64 {
        let shed = r.shed() > 0;
        r.queries
            .iter()
            .enumerate()
            .filter(|(i, q)| {
                let Some(d) = q.digest else { return true };
                shed || self.reference.get(*i).copied().flatten() != Some(d)
                    || self.pinned.as_ref().is_some_and(|p| p.get(*i) != Some(&d))
                    || self.oracle.as_ref().is_some_and(|o| o.get(*i).copied().flatten() != Some(d))
            })
            .count() as u64
    }

    /// Corrupts the reference digest of query 0 (self-test of the check).
    pub fn perturb_reference(&mut self) {
        if let Some(Some(d)) = self.reference.first_mut() {
            *d ^= 1;
        }
    }

    /// Round-1 digests in the `pinned_digests.txt` format.
    pub fn reference_lines(&self) -> String {
        self.reference
            .iter()
            .enumerate()
            .map(|(i, d)| format!("{} {i} {:016x}\n", self.kind.name(), d.unwrap_or(0)))
            .collect()
    }
}

fn request(q: &NamedQuery) -> ClientRequest {
    ClientRequest { query: q.text.clone(), format: q.format, sectors: 0 }
}

/// Ingests sectors `[0, n)` of `band_idx` straight into the archive,
/// as the runtime's pumps would.
pub fn seed_archive(
    archive: &Archive,
    scanner: &Scanner,
    band_idx: usize,
    n: u64,
) -> Result<(), String> {
    let mut stream = scanner.band_stream(band_idx, n);
    let band = stream.schema().band;
    archive.bind_band(stream.schema()).map_err(|e| e.to_string())?;
    while let Some(item) = stream.next_chunk(geostreams_core::model::DEFAULT_CHUNK_BUDGET) {
        archive.ingest_chunk(band, &item).map_err(|e| e.to_string())?;
        item.recycle();
    }
    archive.flush().map_err(|e| e.to_string())
}

fn pinned(kind: Kind) -> Option<Vec<u64>> {
    let mut out = Vec::new();
    for line in PINNED.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let mut f = line.split_whitespace();
        if f.next() != Some(kind.name()) {
            continue;
        }
        let _index = f.next()?;
        out.push(u64::from_str_radix(f.next()?, 16).ok()?);
    }
    (!out.is_empty()).then_some(out)
}
