//! The archive's read path: [`ArchiveReplay`], a `GeoStream`-compatible
//! source that replays an indexed `[t0, t1) × region` slice in lattice
//! order, and [`SpliceStream`], which splices such a backfill onto the
//! live feed exactly once at the recorded watermark.

use crate::archive::{Archive, PlannedFrame, PlannedSector, ReplayPlan};
use crate::codec::{decode_stripe, DecodedStripe};
use crate::vfs::{crc32, VfsFile};
use geostreams_core::exec::{OrderedCollector, WorkerPool};
use geostreams_core::model::{
    pack_queue, ChunkOrMarker, Element, FrameEnd, FrameInfo, Marker, PointRecord, SectorEnd,
    StreamSchema,
};
use geostreams_core::stats::OpStats;
use geostreams_core::{GeoStream, Result};
use geostreams_geo::{Cell, CellBox, Rect};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// A decoded tile kept in the shared cache, in one allocation: its `n`
/// lanes, then a presence bitmask of `ceil(n / 32)` words.
#[derive(Clone)]
pub(crate) struct TileData(Arc<[u32]>);

impl TileData {
    fn new(d: &DecodedStripe) -> TileData {
        let mask = d
            .present
            .chunks(32)
            .map(|bits| bits.iter().enumerate().fold(0u32, |w, (i, &p)| w | u32::from(p) << i));
        TileData(d.lanes.iter().copied().chain(mask).collect())
    }

    /// `(lanes, presence bitmask)`. The length is `n + ceil(n / 32)`,
    /// which puts `n` at `len - ceil(len / 33)`.
    fn split(&self) -> (&[u32], &[u32]) {
        self.0.split_at(self.0.len() - self.0.len().div_ceil(33))
    }
}

/// Shared decoded-tile cache, keyed by `(band, sector, frame, tile_x)`.
/// Overlapping replays (many late-joining subscribers over one
/// downlink) hit instead of re-reading and re-decoding the chain.
///
/// Eviction is a segmented LRU, O(1) per `get` and `put`. A tile enters
/// the *probation* segment; a second reference (a hit, or a re-insert
/// by a concurrent replay) moves it to the *protected* segment, which
/// holds at most 4/5 of the capacity and demotes its LRU tile back to
/// probation when full. The victim is probation's LRU tile. A one-pass
/// scan of a window larger than the cache therefore cycles through
/// probation only, and a window read at least twice survives it.
/// Both segments are doubly linked lists threaded through one slab of
/// at most `cap` slots.
pub(crate) struct TileCache {
    cap: usize,
    protected_cap: usize,
    map: HashMap<TileKey, usize>,
    slots: Vec<Slot>,
    /// `[probation, protected]`.
    lists: [List; 2],
}

/// `(band, sector, frame, tile_x)`.
type TileKey = (u16, u64, u64, u32);

const PROBATION: usize = 0;
const PROTECTED: usize = 1;
const NIL: usize = usize::MAX;

struct Slot {
    key: TileKey,
    data: TileData,
    list: usize,
    /// Toward the MRU end.
    prev: usize,
    /// Toward the LRU end.
    next: usize,
}

#[derive(Clone, Copy)]
struct List {
    mru: usize,
    lru: usize,
    len: usize,
}

impl TileCache {
    pub(crate) fn new(cap: usize) -> TileCache {
        let empty = List { mru: NIL, lru: NIL, len: 0 };
        TileCache {
            cap,
            protected_cap: cap * 4 / 5,
            map: HashMap::new(),
            slots: Vec::new(),
            lists: [empty; 2],
        }
    }

    fn get(&mut self, key: TileKey) -> Option<TileData> {
        let i = *self.map.get(&key)?;
        self.promote(i);
        Some(self.slots[i].data.clone())
    }

    fn put(&mut self, key: TileKey, data: TileData) {
        if self.cap == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].data = data;
            self.promote(i);
            return;
        }
        let i = if self.slots.len() < self.cap {
            self.slots.push(Slot { key, data, list: PROBATION, prev: NIL, next: NIL });
            self.slots.len() - 1
        } else {
            let from = if self.lists[PROBATION].len > 0 { PROBATION } else { PROTECTED };
            let i = self.lists[from].lru;
            self.unlink(i);
            self.map.remove(&self.slots[i].key);
            self.slots[i].key = key;
            self.slots[i].data = data;
            i
        };
        self.map.insert(key, i);
        self.push_mru(PROBATION, i);
    }

    /// Number of cached tiles (never above the capacity).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    /// Moves slot `i` to the protected MRU end, demoting protected's LRU
    /// tile to probation's MRU end while protected is over its share.
    fn promote(&mut self, i: usize) {
        self.unlink(i);
        self.push_mru(PROTECTED, i);
        if self.lists[PROTECTED].len > self.protected_cap {
            let lru = self.lists[PROTECTED].lru;
            self.unlink(lru);
            self.push_mru(PROBATION, lru);
        }
    }

    fn unlink(&mut self, i: usize) {
        let Slot { list, prev, next, .. } = self.slots[i];
        match prev {
            NIL => self.lists[list].mru = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.lists[list].lru = prev,
            n => self.slots[n].prev = prev,
        }
        self.lists[list].len -= 1;
    }

    fn push_mru(&mut self, list: usize, i: usize) {
        let head = self.lists[list].mru;
        let slot = &mut self.slots[i];
        slot.list = list;
        slot.prev = NIL;
        slot.next = head;
        match head {
            NIL => self.lists[list].lru = i,
            h => self.slots[h].prev = i,
        }
        self.lists[list].mru = i;
        self.lists[list].len += 1;
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A `GeoStream` source replaying an archived slice in lattice order.
///
/// Construction snapshots the index and opens the referenced segment
/// files, so concurrent ingest and even segment eviction cannot corrupt
/// the replay. Only tiles intersecting the requested region are decoded
/// (restriction pushdown into the store); cells the downlink never
/// delivered replay as honest gaps.
pub struct ArchiveReplay {
    band: u16,
    schema: StreamSchema,
    value_range: (f64, f64),
    sectors: VecDeque<PlannedSector>,
    current: Option<SectorCursor>,
    files: HashMap<u64, Arc<dyn VfsFile>>,
    cache: Arc<Mutex<TileCache>>,
    metrics: Option<crate::metrics::StoreMetrics>,
    pool: Option<Arc<WorkerPool>>,
    out: VecDeque<Element<f32>>,
    stats: OpStats,
    done: bool,
    failed: bool,
}

struct SectorCursor {
    sector_id: u64,
    emit_box: Option<CellBox>,
    frames: VecDeque<PlannedFrame>,
    chains: HashMap<u32, TileData>,
}

impl Archive {
    /// Opens a replay of `band` over `[lo, hi)` (`None` = unbounded)
    /// restricted to `region` in the source CRS.
    pub fn replay(
        &self,
        band: u16,
        lo: Option<i64>,
        hi: Option<i64>,
        region: Option<&Rect>,
    ) -> Result<ArchiveReplay> {
        let plan = self.plan_replay(band, lo, hi, region)?;
        Ok(ArchiveReplay::from_plan(plan, Arc::clone(&self.cache), self.metrics().cloned()))
    }
}

/// Archive replay is a source: tiles are decoded and emitted in lattice
/// order with a synthesized, well-bracketed marker sequence.
pub fn replay_contract() -> geostreams_core::ops::ProtocolContract {
    geostreams_core::ops::ProtocolContract::source("replay-from-archive")
}

/// A splice is a source to everything downstream: replay hands off to
/// live exactly once at the watermark, and both halves emit bracketed,
/// lattice-ordered sectors (the seam is deduplicated by `StreamRepair`).
pub fn splice_contract() -> geostreams_core::ops::ProtocolContract {
    geostreams_core::ops::ProtocolContract::source("replay-hybrid")
}

impl ArchiveReplay {
    /// Protocol contract (see [`replay_contract`]).
    pub fn declared_contract(&self) -> geostreams_core::ops::ProtocolContract {
        replay_contract()
    }

    pub(crate) fn from_plan(
        plan: ReplayPlan,
        cache: Arc<Mutex<TileCache>>,
        metrics: Option<crate::metrics::StoreMetrics>,
    ) -> ArchiveReplay {
        let value_range = plan.schema.value_range;
        ArchiveReplay {
            band: plan.band,
            schema: plan.schema,
            value_range,
            sectors: plan.sectors.into(),
            current: None,
            files: plan.files,
            cache,
            metrics,
            pool: None,
            out: VecDeque::new(),
            stats: OpStats::default(),
            done: false,
            failed: false,
        }
    }

    /// True when the replay ended on an error rather than exhaustion.
    /// A splice must check this before handing off to live: a failed
    /// backfill means the gap below the watermark was never delivered.
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// Number of sectors the replay will visit.
    pub fn planned_sectors(&self) -> usize {
        self.sectors.len() + usize::from(self.current.is_some())
    }

    /// Decodes independent tiles of each frame on `pool` when it has at
    /// least two workers. A frame's tiles share no delta-chain state
    /// (chains link equal `tile_x` across frames), so cache-missed
    /// stripes decode concurrently and merge back in tile order. Payload
    /// reads and CRC checks stay on the replay thread; output and error
    /// selection are byte-identical to the serial path. A pool of fewer
    /// workers decodes inline: handing every frame to one worker and
    /// waiting for it only adds a round trip.
    pub fn with_decode_pool(mut self, pool: Arc<WorkerPool>) -> ArchiveReplay {
        self.pool = Some(pool);
        self
    }

    /// Decodes one frame's selected tiles, advancing the delta chains;
    /// returns the decoded stripes when the frame should be emitted.
    ///
    /// Three passes: (1) serial cache probes, payload reads and CRC
    /// checks; (2) chain decodes of the misses — fanned out to the
    /// decode pool when one with at least two workers is attached and
    /// more than one tile missed, inline otherwise (a frame's stripes are chain-independent:
    /// chains link equal `tile_x` across frames, and `tile_x` is
    /// unique within a frame); (3) serial chain advance and stripe
    /// assembly in tile order. Errors surface for the first failing
    /// tile in tile order on both decode paths.
    fn decode_frame(
        &mut self,
        cursor_sector: u64,
        chains: &mut HashMap<u32, TileData>,
        frame: &PlannedFrame,
    ) -> Result<Vec<(CellBox, TileData)>> {
        struct PendingDecode {
            idx: usize,
            payload: Vec<u8>,
            prev: Option<TileData>,
        }
        let mut decoded: Vec<Option<TileData>> = vec![None; frame.tiles.len()];
        let mut pending: Vec<PendingDecode> = Vec::new();
        for (idx, t) in frame.tiles.iter().enumerate() {
            let key = (self.band, cursor_sector, frame.frame_id, t.tile_x);
            if let Some(d) = lock(&self.cache).get(key) {
                if let Some(m) = &self.metrics {
                    m.cache_hits.inc();
                }
                decoded[idx] = Some(d);
                continue;
            }
            if let Some(m) = &self.metrics {
                m.cache_misses.inc();
            }
            let Some(file) = self.files.get(&frame.segment) else {
                return Err(geostreams_core::CoreError::Storage(format!(
                    "replay references unopened segment {}",
                    frame.segment
                )));
            };
            let mut payload = vec![0u8; t.len as usize];
            file.read_exact_at(&mut payload, t.offset).map_err(|e| {
                geostreams_core::CoreError::Storage(format!(
                    "read segment {} @{}: {e}",
                    frame.segment, t.offset
                ))
            })?;
            // Verify the payload against the checksum recorded at
            // write time: a rotted tile must never be decoded into
            // pixels.
            if crc32(&payload) != t.crc {
                if let Some(m) = &self.metrics {
                    m.corruption_detected.inc();
                }
                return Err(geostreams_core::CoreError::Corruption(format!(
                    "tile payload CRC mismatch in segment {} @{} ({} bytes, band {} \
                     sector {} frame {} tile {})",
                    frame.segment,
                    t.offset,
                    t.len,
                    self.band,
                    cursor_sector,
                    frame.frame_id,
                    t.tile_x
                )));
            }
            pending.push(PendingDecode { idx, payload, prev: chains.get(&t.tile_x).cloned() });
        }
        match &self.pool {
            Some(pool) if pool.workers() >= 2 && pending.len() > 1 => {
                let order: Vec<usize> = pending.iter().map(|p| p.idx).collect();
                let collector: Arc<OrderedCollector<Result<TileData>>> =
                    Arc::new(OrderedCollector::new());
                for (seq, p) in pending.into_iter().enumerate() {
                    let t = &frame.tiles[p.idx];
                    let (codec, n, keyframe) = (t.codec, t.cells.len() as usize, t.keyframe);
                    let collector = Arc::clone(&collector);
                    pool.submit(move |_| {
                        let res = decode_stripe(
                            codec,
                            &p.payload,
                            n,
                            p.prev.as_ref().map(|d| d.split().0),
                            keyframe,
                        );
                        collector.push(seq as u64, res.map(|d| TileData::new(&d)));
                    });
                }
                for idx in order {
                    let data = collector.wait_next()?;
                    let t = &frame.tiles[idx];
                    let key = (self.band, cursor_sector, frame.frame_id, t.tile_x);
                    lock(&self.cache).put(key, data.clone());
                    decoded[idx] = Some(data);
                }
            }
            _ => {
                for p in pending {
                    let t = &frame.tiles[p.idx];
                    let dec = decode_stripe(
                        t.codec,
                        &p.payload,
                        t.cells.len() as usize,
                        p.prev.as_ref().map(|d| d.split().0),
                        t.keyframe,
                    )?;
                    let data = TileData::new(&dec);
                    let key = (self.band, cursor_sector, frame.frame_id, t.tile_x);
                    lock(&self.cache).put(key, data.clone());
                    decoded[p.idx] = Some(data);
                }
            }
        }
        let mut stripes = Vec::with_capacity(frame.tiles.len());
        for (idx, t) in frame.tiles.iter().enumerate() {
            let Some(data) = decoded[idx].take() else {
                return Err(geostreams_core::CoreError::Storage(
                    "tile decode produced no stripe (driver bug)".into(),
                ));
            };
            chains.insert(t.tile_x, data.clone());
            stripes.push((t.cells, data));
        }
        Ok(stripes)
    }

    /// Refills the output queue with the next batch of elements.
    fn refill(&mut self) -> Result<()> {
        while self.out.is_empty() {
            let Some(cursor) = self.current.as_mut() else {
                let Some(sector) = self.sectors.pop_front() else {
                    self.done = true;
                    return Ok(());
                };
                self.out.push_back(Element::SectorStart(sector.info.clone()));
                self.current = Some(SectorCursor {
                    sector_id: sector.info.sector_id,
                    emit_box: sector.emit_box,
                    frames: sector.frames.into(),
                    chains: HashMap::new(),
                });
                continue;
            };
            let Some(frame) = cursor.frames.pop_front() else {
                let sector_id = cursor.sector_id;
                self.current = None;
                self.out.push_back(Element::SectorEnd(SectorEnd { sector_id }));
                continue;
            };
            let sector_id = cursor.sector_id;
            let emit_box = cursor.emit_box;
            let mut chains = std::mem::take(&mut cursor.chains);
            let stripes = self.decode_frame(sector_id, &mut chains, &frame)?;
            if let Some(cursor) = self.current.as_mut() {
                cursor.chains = chains;
            }
            if !frame.emit {
                continue; // chain prefix only
            }
            let emit_cells = match emit_box {
                None => Some(frame.cells),
                Some(eb) => frame.cells.intersect(&eb),
            };
            let Some(emit_cells) = emit_cells else { continue };
            self.out.push_back(Element::FrameStart(FrameInfo {
                frame_id: frame.frame_id,
                sector_id,
                timestamp: geostreams_core::model::Timestamp::new(frame.timestamp),
                cells: emit_cells,
                // The archive persists no synthesis tick (GSSTORE1 is
                // format-frozen), so a replayed frame is "fresh as of
                // replay": lag measures replay → delivery.
                synth_ns: geostreams_core::obs::now_ns(),
            }));
            let codec = frame.tiles.first().map_or(crate::codec::Codec::Quant16, |t| t.codec);
            // Lattice (row-major) order across the frame's stripes.
            for row in emit_cells.row_min..=emit_cells.row_max {
                for (cells, data) in &stripes {
                    if row < cells.row_min || row > cells.row_max {
                        continue;
                    }
                    let (lanes, present) = data.split();
                    let lo = cells.col_min.max(emit_cells.col_min);
                    let hi = cells.col_max.min(emit_cells.col_max);
                    for col in lo..=hi {
                        let idx = (row - cells.row_min) as usize * cells.width() as usize
                            + (col - cells.col_min) as usize;
                        if present[idx / 32] >> (idx % 32) & 1 != 0 {
                            let value = codec.value(lanes[idx], self.value_range);
                            self.out.push_back(Element::Point(PointRecord {
                                cell: Cell::new(col, row),
                                value,
                            }));
                        }
                    }
                }
            }
            self.out.push_back(Element::FrameEnd(FrameEnd { frame_id: frame.frame_id, sector_id }));
            self.stats.frames_out += 1;
        }
        Ok(())
    }

    /// Refills an empty output queue. A torn replay must not masquerade
    /// as a clean end: the error is surfaced once, then the stream ends.
    fn fill(&mut self) {
        if !self.out.is_empty() || self.done {
            return;
        }
        if let Err(e) = self.refill() {
            self.done = true;
            self.failed = true;
            self.out.clear();
            self.stats.stalls += 1;
            eprintln!("archive replay error: {e}");
        }
    }
}

impl GeoStream for ArchiveReplay {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_element(&mut self) -> Option<Element<f32>> {
        self.fill();
        let el = self.out.pop_front()?;
        if el.is_point() {
            self.stats.points_out += 1;
        }
        Some(el)
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        self.fill();
        // Tiles decode frame-at-a-time into the queue; packing it into
        // runs batches the per-point stats into one add.
        let item = pack_queue(&mut self.out, budget)?;
        self.stats.points_out += item.point_count() as u64;
        Some(item)
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }
}

/// Splices an archive backfill onto the live feed: emits the whole
/// replay first, then live elements, skipping any live sector at or
/// below the recorded watermark so the seam has no overlap. Wrap the
/// result in `StreamRepair` to also deduplicate frame ids under faulty
/// downlinks.
pub struct SpliceStream {
    replay: Option<ArchiveReplay>,
    live: Box<dyn GeoStream<V = f32> + Send>,
    schema: StreamSchema,
    /// Skip live sectors with `sector_id <= watermark_sector`.
    watermark_sector: Option<u64>,
    skipping_live_sector: bool,
    started: std::time::Instant,
    on_switch: Option<Box<dyn FnOnce(u64) + Send>>,
    stats: OpStats,
    /// Set when the backfill failed: the splice ends rather than hand
    /// off across an unverified gap (live data would silently paper
    /// over the frames the replay never delivered).
    refused: bool,
}

impl SpliceStream {
    /// Builds a splice; `watermark_sector` is the last archived sector
    /// (from [`Archive::watermark`]) and `on_switch` observes the
    /// backfill latency in nanoseconds at the handoff.
    pub fn new(
        replay: ArchiveReplay,
        live: Box<dyn GeoStream<V = f32> + Send>,
        watermark_sector: Option<u64>,
        on_switch: Option<Box<dyn FnOnce(u64) + Send>>,
    ) -> SpliceStream {
        let schema = live.schema().clone();
        SpliceStream {
            replay: Some(replay),
            live,
            schema,
            watermark_sector,
            skipping_live_sector: false,
            started: std::time::Instant::now(),
            on_switch,
            stats: OpStats::default(),
            refused: false,
        }
    }

    /// Protocol contract (see [`splice_contract`]).
    pub fn declared_contract(&self) -> geostreams_core::ops::ProtocolContract {
        splice_contract()
    }

    /// True when the splice ended by refusing the live handoff after a
    /// failed backfill.
    pub fn refused_handoff(&self) -> bool {
        self.refused
    }

    /// Retires the exhausted replay half. Returns `true` when the
    /// handoff to live is refused because the backfill failed.
    fn finish_replay(&mut self) -> bool {
        let Some(replay) = self.replay.take() else {
            return false;
        };
        if replay.failed() {
            if let Some(m) = &replay.metrics {
                m.splice_refused.inc();
            }
            eprintln!(
                "splice refused: backfill replay of band {} failed before the watermark; \
                 not handing off to live across an unrecovered gap",
                replay.band
            );
            self.refused = true;
            return true;
        }
        if let Some(f) = self.on_switch.take() {
            let ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            f(ns);
        }
        false
    }
}

impl GeoStream for SpliceStream {
    type V = f32;

    fn schema(&self) -> &StreamSchema {
        &self.schema
    }

    fn next_element(&mut self) -> Option<Element<f32>> {
        if self.refused {
            return None;
        }
        if let Some(replay) = self.replay.as_mut() {
            if let Some(el) = replay.next_element() {
                if el.is_point() {
                    self.stats.points_out += 1;
                }
                return Some(el);
            }
            if self.finish_replay() {
                return None;
            }
        }
        loop {
            let el = self.live.next_element()?;
            match &el {
                Element::SectorStart(info) => {
                    self.skipping_live_sector =
                        self.watermark_sector.is_some_and(|wm| info.sector_id <= wm);
                }
                Element::SectorEnd(_) if self.skipping_live_sector => {
                    self.skipping_live_sector = false;
                    continue;
                }
                _ => {}
            }
            if self.skipping_live_sector {
                continue;
            }
            if el.is_point() {
                self.stats.points_out += 1;
            }
            return Some(el);
        }
    }

    fn next_chunk(&mut self, budget: usize) -> Option<ChunkOrMarker<f32>> {
        if self.refused {
            return None;
        }
        if let Some(replay) = self.replay.as_mut() {
            if let Some(item) = replay.next_chunk(budget) {
                self.stats.points_out += item.point_count() as u64;
                return Some(item);
            }
            if self.finish_replay() {
                return None;
            }
        }
        loop {
            match self.live.next_chunk(budget)? {
                ChunkOrMarker::Marker(m) => {
                    match &m {
                        Marker::SectorStart(info) => {
                            self.skipping_live_sector =
                                self.watermark_sector.is_some_and(|wm| info.sector_id <= wm);
                        }
                        Marker::SectorEnd(_) if self.skipping_live_sector => {
                            self.skipping_live_sector = false;
                            continue;
                        }
                        _ => {}
                    }
                    if self.skipping_live_sector {
                        continue;
                    }
                    return Some(ChunkOrMarker::Marker(m));
                }
                ChunkOrMarker::Chunk(mut c) => {
                    if self.skipping_live_sector {
                        // The run belongs to a sector at or below the
                        // watermark: drop its points; only a boundary
                        // marker can change the skip state.
                        match c.end.take() {
                            Some(Marker::SectorEnd(_)) => {
                                self.skipping_live_sector = false;
                                c.recycle();
                                continue;
                            }
                            Some(Marker::SectorStart(info)) => {
                                self.skipping_live_sector =
                                    self.watermark_sector.is_some_and(|wm| info.sector_id <= wm);
                                c.recycle();
                                if self.skipping_live_sector {
                                    continue;
                                }
                                return Some(ChunkOrMarker::Marker(Marker::SectorStart(info)));
                            }
                            _ => {
                                c.recycle();
                                continue;
                            }
                        }
                    }
                    // Live sector passes; a trailing SectorStart at or
                    // below the watermark starts a skip and is swallowed.
                    if let Some(Marker::SectorStart(info)) = &c.end {
                        if self.watermark_sector.is_some_and(|wm| info.sector_id <= wm) {
                            self.skipping_live_sector = true;
                            c.end = None;
                        }
                    }
                    self.stats.points_out += c.points.len() as u64;
                    return Some(ChunkOrMarker::Chunk(c));
                }
            }
        }
    }

    fn op_stats(&self) -> OpStats {
        self.stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> TileData {
        TileData::new(&DecodedStripe { present: vec![true], lanes: vec![0] })
    }

    fn key(i: u64) -> TileKey {
        (1, 0, i, 0)
    }

    /// `get`, then `put` on a miss, as a replay does; true on a hit.
    fn touch(c: &mut TileCache, i: u64) -> bool {
        let hit = c.get(key(i)).is_some();
        if !hit {
            c.put(key(i), tile());
        }
        assert!(c.len() <= c.cap);
        let (prob, prot) = (c.lists[PROBATION].len, c.lists[PROTECTED].len);
        assert_eq!(prob + prot, c.len());
        assert!(prot <= c.protected_cap);
        hit
    }

    #[test]
    fn lru_order_within_each_segment() {
        let mut c = TileCache::new(5); // protected holds 4
        let (a, b, d, e, f, g, h, i, j) = (0, 1, 3, 4, 5, 6, 7, 8, 9);
        for k in 0..5 {
            c.put(key(k), tile());
        }
        c.put(key(f), tile()); // probation LRU `a` goes
        assert!(c.get(key(a)).is_none());
        assert!(c.get(key(b)).is_some()); // b → protected
        c.put(key(g), tile()); // probation LRU is now `2`, not b
        assert!(!c.map.contains_key(&key(2)));
        assert!(c.get(key(d)).is_some()); // protected: d b
        assert!(c.get(key(b)).is_some()); // protected: b d
        c.put(key(h), tile()); // probation: h g f e → e goes
        assert!(!c.map.contains_key(&key(e)));
        c.put(key(i), tile()); // f goes
        assert!(!c.map.contains_key(&key(f)));
        for k in [g, h, i] {
            assert!(c.get(key(k)).is_some());
        }
        // Protected overflowed: its LRU tile d was demoted to probation
        // (then probation's only tile), b stayed.
        c.put(key(j), tile());
        assert!(!c.map.contains_key(&key(d)));
        for k in [b, g, h, i, j] {
            assert!(c.map.contains_key(&key(k)), "tile {k} evicted");
        }
    }

    #[test]
    fn a_reread_window_survives_cyclic_scans_larger_than_the_cache() {
        let mut c = TileCache::new(4096);
        let hot = 0..512u64;
        let cold = 10_000..14_320u64; // 4320 tiles > capacity
        for k in hot.clone().chain(hot.clone()) {
            touch(&mut c, k);
        }
        for _ in 0..4 {
            for k in cold.clone() {
                touch(&mut c, k);
            }
            let hits = hot.clone().filter(|&k| touch(&mut c, k)).count();
            assert_eq!(hits, 512, "hot window evicted by the scan");
        }
    }

    #[test]
    fn capacity_zero_stores_nothing() {
        let mut c = TileCache::new(0);
        for k in 0..3 {
            assert!(!touch(&mut c, k));
            assert!(!touch(&mut c, k));
        }
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn length_never_exceeds_capacity() {
        for cap in [1, 2, 7, 64] {
            let mut c = TileCache::new(cap);
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..5000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                touch(&mut c, x % (3 * cap as u64));
            }
        }
    }
}
