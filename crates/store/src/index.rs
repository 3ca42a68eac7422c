//! The archive's in-memory tile index: one compact entry per sector.
//!
//! A sector's frames live in one byte log, in frame-id order. Every
//! field is a zigzag varint delta against the previous frame (or tile),
//! except the tile CRC, which is stored raw. A row-by-row frame cut into
//! two 64-column tiles costs ~35 bytes of log, where a map node per
//! frame plus a heap-allocated tile vector cost ~220. The entry also
//! keeps the frames' timestamp span, so replay planning skips a sector
//! disjoint from its window without decoding it.
//!
//! The log is append-only in the common case (frame ids arrive
//! increasing). A frame that arrives out of order, or re-arrives with an
//! id already indexed (a sector re-ingested after a restart), rebuilds
//! the log with the frame in place: the last write wins, as it does for
//! the segment bytes. Eviction rebuilds only sectors that hold a frame
//! of the evicted segment.

use crate::codec::Codec;
use geostreams_core::model::SectorInfo;
use geostreams_geo::CellBox;

/// One stored tile. Every tile of a frame lives in the frame's segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TileRef {
    /// Byte offset of the payload in the segment file.
    pub(crate) offset: u64,
    pub(crate) len: u32,
    pub(crate) tile_x: u32,
    pub(crate) cells: CellBox,
    pub(crate) keyframe: bool,
    pub(crate) codec: Codec,
    /// CRC-32 of the payload, re-verified on every read.
    pub(crate) crc: u32,
}

/// One indexed frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FrameEntry {
    pub(crate) frame_id: u64,
    pub(crate) timestamp: i64,
    pub(crate) cells: CellBox,
    pub(crate) segment: u64,
    pub(crate) tiles: Vec<TileRef>,
}

/// Delta-coder state: the fields of the last frame and tile coded.
#[derive(Debug, Clone, Copy, Default)]
struct Cursor {
    frame_id: u64,
    timestamp: i64,
    cells: [u32; 4],
    segment: u64,
    tile_x: u32,
    /// End offset (payload offset + length) of the last tile.
    end: u64,
}

/// The index entry of one sector.
pub(crate) struct SectorIndex {
    pub(crate) info: SectorInfo,
    log: Vec<u8>,
    frames: usize,
    /// Timestamp span of the indexed frames (`MAX..MIN` when empty).
    min_ts: i64,
    max_ts: i64,
    /// Oldest segment holding an indexed frame (`MAX` when empty).
    min_segment: u64,
    /// Coder state after the last frame of the log.
    tail: Cursor,
}

impl SectorIndex {
    pub(crate) fn new(info: SectorInfo) -> SectorIndex {
        SectorIndex {
            info,
            log: Vec::new(),
            frames: 0,
            min_ts: i64::MAX,
            max_ts: i64::MIN,
            min_segment: u64::MAX,
            tail: Cursor::default(),
        }
    }

    /// Number of indexed frames.
    pub(crate) fn len(&self) -> usize {
        self.frames
    }

    /// True when some frame's timestamp lies in `[lo, hi)`, judged from
    /// the span alone (an overlapping span may still hold no such frame).
    pub(crate) fn may_overlap(&self, lo: i64, hi: i64) -> bool {
        self.max_ts >= lo && self.min_ts < hi
    }

    /// Heap bytes held by the log.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.log.capacity()
    }

    /// Releases the log's spare capacity (once the sector is complete).
    pub(crate) fn shrink(&mut self) {
        self.log.shrink_to_fit();
    }

    /// Indexes `frame`; returns false when it replaced a frame with the
    /// same id rather than adding one.
    pub(crate) fn insert(&mut self, frame: &FrameEntry) -> bool {
        if self.frames == 0 || frame.frame_id > self.tail.frame_id {
            self.append(frame);
            return true;
        }
        let mut frames = self.frames();
        let added = match frames.binary_search_by_key(&frame.frame_id, |f| f.frame_id) {
            Ok(i) => {
                frames[i] = frame.clone();
                false
            }
            Err(i) => {
                frames.insert(i, frame.clone());
                true
            }
        };
        self.rebuild(&frames);
        added
    }

    /// Drops every frame stored in `segment`; returns how many.
    pub(crate) fn evict_segment(&mut self, segment: u64) -> usize {
        if self.min_segment > segment {
            return 0;
        }
        let mut frames = self.frames();
        frames.retain(|f| f.segment != segment);
        let removed = self.frames - frames.len();
        self.rebuild(&frames);
        self.shrink();
        removed
    }

    /// Decodes every frame, in frame-id order.
    pub(crate) fn frames(&self) -> Vec<FrameEntry> {
        let mut r = Reader { buf: &self.log, at: 0 };
        let mut c = Cursor::default();
        let mut out = Vec::with_capacity(self.frames);
        for _ in 0..self.frames {
            c.frame_id = r.delta(c.frame_id);
            c.timestamp = r.delta(c.timestamp as u64) as i64;
            for v in &mut c.cells {
                *v = r.delta(u64::from(*v)) as u32;
            }
            c.segment = r.delta(c.segment);
            let cells = CellBox::new(c.cells[0], c.cells[1], c.cells[2], c.cells[3]);
            let n = r.varint() as usize;
            let mut tiles = Vec::with_capacity(n);
            for _ in 0..n {
                c.tile_x = r.delta(u64::from(c.tile_x)) as u32;
                let mut tc = [0u32; 4];
                for (v, f) in tc.iter_mut().zip(c.cells) {
                    *v = r.delta(u64::from(f)) as u32;
                }
                let offset = r.delta(c.end);
                let len = r.varint() as u32;
                let crc = u32::from_le_bytes([r.byte(), r.byte(), r.byte(), r.byte()]);
                let flags = r.byte();
                c.end = offset + u64::from(len);
                tiles.push(TileRef {
                    offset,
                    len,
                    tile_x: c.tile_x,
                    cells: CellBox::new(tc[0], tc[1], tc[2], tc[3]),
                    keyframe: flags & 1 != 0,
                    // Written from a valid codec by `append`.
                    codec: Codec::from_u8(flags >> 1).unwrap_or_default(),
                    crc,
                });
            }
            out.push(FrameEntry {
                frame_id: c.frame_id,
                timestamp: c.timestamp,
                cells,
                segment: c.segment,
                tiles,
            });
        }
        out
    }

    fn rebuild(&mut self, frames: &[FrameEntry]) {
        let info = self.info.clone();
        *self = SectorIndex::new(info);
        for f in frames {
            self.append(f);
        }
    }

    /// Codes `frame` at the end of the log (its id must exceed the last).
    fn append(&mut self, frame: &FrameEntry) {
        let c = &mut self.tail;
        let out = &mut self.log;
        put_delta(out, c.frame_id, frame.frame_id);
        put_delta(out, c.timestamp as u64, frame.timestamp as u64);
        let cells = corners(frame.cells);
        for (prev, cur) in c.cells.iter().zip(cells) {
            put_delta(out, u64::from(*prev), u64::from(cur));
        }
        put_delta(out, c.segment, frame.segment);
        put_varint(out, frame.tiles.len() as u64);
        for t in &frame.tiles {
            put_delta(out, u64::from(c.tile_x), u64::from(t.tile_x));
            for (f, v) in cells.iter().zip(corners(t.cells)) {
                put_delta(out, u64::from(*f), u64::from(v));
            }
            put_delta(out, c.end, t.offset);
            put_varint(out, u64::from(t.len));
            out.extend_from_slice(&t.crc.to_le_bytes());
            out.push(u8::from(t.keyframe) | t.codec.to_u8() << 1);
            c.tile_x = t.tile_x;
            c.end = t.offset + u64::from(t.len);
        }
        c.frame_id = frame.frame_id;
        c.timestamp = frame.timestamp;
        c.cells = cells;
        c.segment = frame.segment;
        self.frames += 1;
        self.min_ts = self.min_ts.min(frame.timestamp);
        self.max_ts = self.max_ts.max(frame.timestamp);
        self.min_segment = self.min_segment.min(frame.segment);
    }
}

fn corners(b: CellBox) -> [u32; 4] {
    [b.col_min, b.row_min, b.col_max, b.row_max]
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Codes `cur - prev` (wrapping) as a zigzag varint.
fn put_delta(out: &mut Vec<u8>, prev: u64, cur: u64) {
    let d = cur.wrapping_sub(prev) as i64;
    put_varint(out, ((d << 1) ^ (d >> 63)) as u64);
}

/// Reads a log written by [`SectorIndex::append`]; the frame count
/// bounds every read, so running off the end would be a coder bug.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        let b = self.buf.get(self.at).copied();
        debug_assert!(b.is_some(), "index log overrun");
        self.at += 1;
        b.unwrap_or(0)
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 || shift >= 63 {
                return v;
            }
            shift += 7;
        }
    }

    fn delta(&mut self, prev: u64) -> u64 {
        let z = self.varint();
        let d = (z >> 1) as i64 ^ -((z & 1) as i64);
        prev.wrapping_add(d as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geostreams_core::model::Timestamp;
    use geostreams_core::Organization;
    use geostreams_geo::{Crs, LatticeGeoref, Rect};

    fn info() -> SectorInfo {
        SectorInfo {
            sector_id: 7,
            lattice: LatticeGeoref::north_up(Crs::LatLon, Rect::new(0.0, 0.0, 1.0, 1.0), 96, 4),
            band: 1,
            organization: Organization::RowByRow,
            timestamp: Timestamp::new(7),
        }
    }

    /// Row `row` of a 96-column lattice cut into 64-column stripes.
    fn frame(frame_id: u64, row: u32, segment: u64, offset: u64) -> FrameEntry {
        let tile = |tile_x: u32, col_min, col_max, offset| TileRef {
            offset,
            len: 150 + tile_x,
            tile_x,
            cells: CellBox::new(col_min, row, col_max, row),
            keyframe: tile_x == 0,
            codec: Codec::LosslessF32,
            crc: 0xdead_beef ^ frame_id as u32,
        };
        FrameEntry {
            frame_id,
            timestamp: 7,
            cells: CellBox::new(0, row, 95, row),
            segment,
            tiles: vec![tile(0, 0, 63, offset), tile(1, 64, 95, offset + 200)],
        }
    }

    #[test]
    fn log_round_trips_and_orders_by_frame_id() {
        let mut s = SectorIndex::new(info());
        let mut want = Vec::new();
        for i in 0..4u64 {
            let f = frame(100 + i, i as u32, 3 + i / 2, 1000 * i);
            assert!(s.insert(&f));
            want.push(f);
        }
        assert_eq!(s.frames(), want);
        // Out of order, then a re-ingested id: sorted, last write wins.
        let late = frame(99, 3, 9, 5);
        assert!(s.insert(&late));
        want.insert(0, late);
        let again = frame(101, 1, 9, 7000);
        assert!(!s.insert(&again));
        want[2] = again;
        assert_eq!(s.frames(), want);
        assert_eq!(s.len(), 5);
        assert!(s.may_overlap(7, 8) && !s.may_overlap(8, 9) && !s.may_overlap(0, 7));
    }

    #[test]
    fn eviction_drops_only_the_segment() {
        let mut s = SectorIndex::new(info());
        for i in 0..6u64 {
            s.insert(&frame(i, i as u32 % 4, 1 + i / 3, 300 * i));
        }
        assert_eq!(s.evict_segment(0), 0);
        assert_eq!(s.evict_segment(1), 3);
        assert!(s.frames().iter().all(|f| f.segment == 2));
        assert_eq!(s.evict_segment(2), 3);
        assert_eq!(s.len(), 0);
        assert!(!s.may_overlap(i64::MIN, i64::MAX));
    }
}
