//! The Region Stripe Table (RST) — paper Sec. III-E, Fig. 6.
//!
//! The RST records, per file region, the optimal stripe width on *each
//! server class* of the cluster (`widths[k]` is the stripe size on class
//! `k`, in `ClusterConfig::classes` order). The paper's two-tier layout is
//! the `K = 2` special case — `widths[0]` is the HServer stripe size and
//! `widths[1]` the SServer stripe size — and serialises in the legacy
//! `(h, s)` form so tables written by older builds load unchanged. It is
//! consulted by the metadata server during placement and by the middleware
//! to route each request to its region's physical file. Two paper
//! behaviours are implemented:
//!
//! * *"if adjacent regions have the same optimal stripe sizes, the two
//!   regions are combined into a larger region"* — [`RegionStripeTable::merge_adjacent`];
//! * the RST is persisted next to the application (JSON here) and loaded
//!   at startup — [`RegionStripeTable::save_to_path`] /
//!   [`RegionStripeTable::load_from_path`].

use crate::errors::LoadError;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One row of the RST (paper Fig. 6: region #, file offset, one stripe
/// size per server class — plus the region length, which Fig. 6 leaves
/// implicit in the next row's offset).
///
/// Rows are constructed through [`RstEntry::new`]; the widths vector is
/// not directly assignable so every row goes through the same shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RstEntry {
    /// First byte of the region in the logical file.
    pub offset: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Per-class stripe sizes (0 ⇒ the class holds none of this region).
    widths: Vec<u64>,
}

impl RstEntry {
    /// Build a row from per-class stripe widths.
    pub fn new(offset: u64, len: u64, widths: Vec<u64>) -> Self {
        RstEntry {
            offset,
            len,
            widths,
        }
    }

    /// One past the last byte of the region.
    #[inline]
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// Stripe width per server class, in `ClusterConfig::classes` order.
    #[inline]
    pub fn widths(&self) -> &[u64] {
        &self.widths
    }

    /// Stripe width of one class (0 for classes past the row's tier count,
    /// so a two-tier row reads as zero on a hypothetical third class).
    #[inline]
    pub fn width(&self, class: usize) -> u64 {
        self.widths.get(class).copied().unwrap_or(0)
    }

    /// Number of server classes this row stripes over.
    #[inline]
    pub fn classes(&self) -> usize {
        self.widths.len()
    }
}

// Hand-written serde: the two-class row keeps the paper-era `(h, s)` JSON
// shape byte-for-byte (committed goldens and on-disk tables predate the
// widths vector); any other class count serialises the widths array.
impl Serialize for RstEntry {
    fn serialize(&self) -> serde::Value {
        let mut map = serde::Map::new();
        map.insert("offset".to_string(), self.offset.serialize());
        map.insert("len".to_string(), self.len.serialize());
        if let [h, s] = self.widths.as_slice() {
            map.insert("h".to_string(), h.serialize());
            map.insert("s".to_string(), s.serialize());
        } else {
            map.insert("widths".to_string(), self.widths.serialize());
        }
        serde::Value::Object(map)
    }
}

impl Deserialize for RstEntry {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        let map = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "RstEntry"))?;
        let field = |name: &str| -> Result<u64, serde::Error> {
            map.get(name)
                .ok_or_else(|| serde::Error::missing_field(name, "RstEntry"))?
                .as_u64()
                .ok_or_else(|| serde::Error::expected("unsigned integer", "RstEntry"))
        };
        let offset = field("offset")?;
        let len = field("len")?;
        let widths = match map.get("widths") {
            Some(w) => {
                if map.contains_key("h") || map.contains_key("s") {
                    return Err(serde::Error::custom(
                        "RST row mixes `widths` with legacy `h`/`s` keys",
                    ));
                }
                Vec::<u64>::deserialize(w)?
            }
            None => vec![field("h")?, field("s")?],
        };
        Ok(RstEntry::new(offset, len, widths))
    }
}

/// The full table: entries sorted by offset, tiling `[0, file_size)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionStripeTable {
    entries: Vec<RstEntry>,
}

impl RegionStripeTable {
    /// Build from entries, validating the tiling.
    ///
    /// # Panics
    /// Panics if entries are empty, unsorted, overlapping, gapped, not
    /// starting at 0, or any entry has all-zero widths, zero length, or a
    /// class count differing from row 0's.
    #[expect(
        clippy::panic,
        reason = "RegionStripeTable::new documents its panic on invalid tilings (# Panics); \
                  fallible callers use try_new/load_from_path, which return LoadError"
    )]
    pub fn new(entries: Vec<RstEntry>) -> Self {
        Self::try_new(entries).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// Build from entries, reporting a validation failure instead of
    /// panicking — the load path for tables read from disk.
    pub fn try_new(entries: Vec<RstEntry>) -> Result<Self, String> {
        if entries.is_empty() {
            return Err("RST must have at least one region".into());
        }
        if entries[0].offset != 0 {
            return Err(format!(
                "RST must start at offset 0, first region starts at {}",
                entries[0].offset
            ));
        }
        let classes = entries[0].classes();
        for (i, e) in entries.iter().enumerate() {
            if e.len == 0 {
                return Err(format!("zero-length RST region at {} (row {i})", e.offset));
            }
            if e.widths.iter().all(|&w| w == 0) {
                return Err(format!(
                    "RST region at {} (row {i}) has no capacity",
                    e.offset
                ));
            }
            if e.classes() != classes {
                return Err(format!(
                    "RST rows disagree on class count: row {i} has {} classes but row 0 has {classes}",
                    e.classes()
                ));
            }
        }
        for (i, w) in entries.windows(2).enumerate() {
            if w[0].end() != w[1].offset {
                return Err(format!(
                    "RST regions must tile contiguously: row {i} ends at {} but row {} starts at {}",
                    w[0].end(),
                    i + 1,
                    w[1].offset
                ));
            }
        }
        Ok(RegionStripeTable { entries })
    }

    /// A single-region table covering `[0, file_size)` — what a
    /// traditional fixed-stripe layout looks like in RST form.
    pub fn uniform(file_size: u64, widths: Vec<u64>) -> Self {
        RegionStripeTable::new(vec![RstEntry::new(0, file_size, widths)])
    }

    /// The rows.
    pub fn entries(&self) -> &[RstEntry] {
        &self.entries
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Never true (construction requires ≥ 1 region); provided for API
    /// completeness alongside [`len`](Self::len).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of server classes every row stripes over.
    pub fn classes(&self) -> usize {
        self.entries.first().map_or(0, RstEntry::classes)
    }

    /// Total bytes covered.
    pub fn file_size(&self) -> u64 {
        self.entries.last().map_or(0, |e| e.end())
    }

    /// Replace one row's widths in place (re-plan adoption). The region
    /// geometry (offset/len) is untouched, so the tiling stays valid.
    ///
    /// # Panics
    /// Panics if the new widths are all zero or change the class count —
    /// the same invariants [`try_new`](Self::try_new) enforces.
    #[expect(
        clippy::panic,
        reason = "set_region_widths documents its panics on zero-capacity rows and class-count \
                  changes (# Panics); fallible table construction goes through try_new"
    )]
    pub fn set_region_widths(&mut self, region: usize, widths: Vec<u64>) {
        if widths.iter().all(|&w| w == 0) {
            panic!("RST region at row {region} would have no capacity");
        }
        if widths.len() != self.classes() {
            panic!(
                "RST rows disagree on class count: row {region} would have {} classes but the table has {}",
                widths.len(),
                self.classes()
            );
        }
        self.entries[region].widths = widths;
    }

    /// Apply a batch of per-region width updates in one pass, in the given
    /// (canonical) order. Updates whose widths equal the row's current
    /// widths are skipped as no-ops; the return value is the number of
    /// rows actually rewritten. This is the planning service's tick-time
    /// apply: per-tenant churn is coalesced upstream so the table is
    /// touched O(dirty regions) times, not O(tenants × regions).
    ///
    /// # Panics
    /// Panics on the same invariant violations as
    /// [`set_region_widths`](Self::set_region_widths) (all-zero widths or
    /// a class-count change).
    pub fn apply_batch(&mut self, updates: &[(usize, Vec<u64>)]) -> usize {
        let mut applied = 0;
        for (region, widths) in updates {
            if self.entries[*region].widths() == widths.as_slice() {
                continue;
            }
            self.set_region_widths(*region, widths.clone());
            applied += 1;
        }
        applied
    }

    /// Index of the region containing `offset`.
    ///
    /// Offsets past the end fall into the last region (files can grow; the
    /// tail region's layout extends).
    pub fn region_of(&self, offset: u64) -> usize {
        match self.entries.binary_search_by(|e| {
            if offset < e.offset {
                std::cmp::Ordering::Greater
            } else if offset >= e.end() {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => i,
            Err(_) => self.entries.len() - 1,
        }
    }

    /// The entry containing `offset`.
    pub fn lookup(&self, offset: u64) -> &RstEntry {
        &self.entries[self.region_of(offset)]
    }

    /// Split a logical request `[offset, offset+len)` into per-region
    /// pieces `(region_index, region_relative_offset, piece_len)`.
    ///
    /// Requests may span region boundaries; each piece is served from its
    /// region's physical file.
    pub fn split_request(&self, offset: u64, len: u64) -> Vec<(usize, u64, u64)> {
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let idx = self.region_of(pos);
            let e = &self.entries[idx];
            let piece_end = if idx + 1 < self.entries.len() {
                e.end().min(end)
            } else {
                end // last region extends indefinitely
            };
            out.push((idx, pos - e.offset, piece_end - pos));
            pos = piece_end;
        }
        out
    }

    /// Approximate metadata footprint of the table: one row of
    /// `2 + classes` u64 fields per region (offset, length, one width per
    /// class — the paper's Fig. 6 structure at `K = 2`). Algorithm 1's
    /// threshold adaptation exists precisely to bound this (Sec. III-C:
    /// "substantial extra metadata management overhead").
    pub fn metadata_bytes(&self) -> u64 {
        (self.entries.len() * (2 + self.classes()) * std::mem::size_of::<u64>()) as u64
    }

    /// Merge adjacent regions with identical stripe widths (paper
    /// Sec. III-E).
    pub fn merge_adjacent(&mut self) {
        let mut merged: Vec<RstEntry> = Vec::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            match merged.last_mut() {
                Some(prev) if prev.widths == e.widths => {
                    prev.len += e.len;
                }
                _ => merged.push(e),
            }
        }
        self.entries = merged;
    }

    /// Persist as pretty JSON.
    pub fn save_to_path(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Load from JSON produced by [`save_to_path`](Self::save_to_path).
    ///
    /// Errors carry the file, the line (for syntax errors) and the reason;
    /// the table is re-validated because files on disk can be edited.
    pub fn load_from_path(path: &Path) -> Result<Self, LoadError> {
        let table: RegionStripeTable = crate::errors::read_json(path)?;
        RegionStripeTable::try_new(table.entries)
            .map_err(|reason| LoadError::whole_file(path, reason))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RegionStripeTable {
        // The example of paper Fig. 6 (lengths inferred from offsets).
        RegionStripeTable::new(vec![
            RstEntry::new(0, 128 << 20, vec![16 * 1024, 64 * 1024]),
            RstEntry::new(128 << 20, 64 << 20, vec![36 * 1024, 144 * 1024]),
            RstEntry::new(192 << 20, 64 << 20, vec![26 * 1024, 80 * 1024]),
        ])
    }

    #[test]
    fn lookup_by_offset() {
        let t = table();
        assert_eq!(t.region_of(0), 0);
        assert_eq!(t.region_of((128 << 20) - 1), 0);
        assert_eq!(t.region_of(128 << 20), 1);
        assert_eq!(t.region_of(200 << 20), 2);
        // Past the end: last region.
        assert_eq!(t.region_of(1 << 40), 2);
    }

    #[test]
    fn split_within_one_region() {
        let t = table();
        let pieces = t.split_request(10, 100);
        assert_eq!(pieces, vec![(0, 10, 100)]);
    }

    #[test]
    fn split_across_regions() {
        let t = table();
        let boundary = 128u64 << 20;
        let pieces = t.split_request(boundary - 50, 100);
        assert_eq!(pieces, vec![(0, boundary - 50, 50), (1, 0, 50)]);
        let total: u64 = pieces.iter().map(|&(_, _, l)| l).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn split_past_end_stays_in_last_region() {
        let t = table();
        let file_end = t.file_size();
        let pieces = t.split_request(file_end - 10, 100);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].0, 2);
        assert_eq!(pieces[0].2, 100);
    }

    #[test]
    fn merge_adjacent_same_stripes() {
        let mut t = RegionStripeTable::new(vec![
            RstEntry::new(0, 100, vec![4, 8]),
            RstEntry::new(100, 50, vec![4, 8]),
            RstEntry::new(150, 50, vec![16, 8]),
        ]);
        t.merge_adjacent();
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0].len, 150);
        assert_eq!(t.file_size(), 200);
    }

    #[test]
    fn merge_is_idempotent() {
        let mut t = table();
        t.merge_adjacent();
        let once = t.clone();
        t.merge_adjacent();
        assert_eq!(t, once);
    }

    #[test]
    #[should_panic(expected = "tile contiguously")]
    fn gaps_rejected() {
        RegionStripeTable::new(vec![
            RstEntry::new(0, 10, vec![1, 1]),
            RstEntry::new(20, 10, vec![1, 1]),
        ]);
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn zero_capacity_region_rejected() {
        RegionStripeTable::new(vec![RstEntry::new(0, 10, vec![0, 0])]);
    }

    #[test]
    #[should_panic(expected = "disagree on class count")]
    fn mixed_class_counts_rejected() {
        RegionStripeTable::new(vec![
            RstEntry::new(0, 10, vec![1, 1]),
            RstEntry::new(10, 10, vec![1, 1, 1]),
        ]);
    }

    #[test]
    fn set_region_widths_replaces_in_place() {
        let mut t = table();
        t.set_region_widths(1, vec![40 * 1024, 160 * 1024]);
        assert_eq!(t.entries()[1].widths(), &[40 * 1024, 160 * 1024]);
        assert_eq!(t.entries()[1].offset, 128 << 20);
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn set_region_widths_rejects_zero() {
        table().set_region_widths(0, vec![0, 0]);
    }

    #[test]
    fn apply_batch_skips_noops_and_counts_rewrites() {
        let mut t = table();
        let current = t.entries()[0].widths().to_vec();
        let applied = t.apply_batch(&[
            (0, current), // no-op: row already carries these widths
            (1, vec![40 * 1024, 160 * 1024]),
            (1, vec![48 * 1024, 192 * 1024]), // later update wins
        ]);
        assert_eq!(applied, 2);
        assert_eq!(t.entries()[1].widths(), &[48 * 1024, 192 * 1024]);
    }

    #[test]
    fn file_round_trip() {
        let t = table();
        let dir = std::env::temp_dir().join("harl-rst-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rst.json");
        t.save_to_path(&path).unwrap();
        let back = RegionStripeTable::load_from_path(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_class_rows_keep_legacy_json_shape() {
        // The exact key set and order the pre-widths builds wrote: tables
        // and goldens on disk must stay byte-identical.
        let e = RstEntry::new(0, 1024, vec![4, 8]);
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(json, r#"{"offset":0,"len":1024,"h":4,"s":8}"#);
        let back: RstEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn three_class_rows_round_trip_widths_form() {
        let e = RstEntry::new(0, 1024, vec![4, 8, 16]);
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(json, r#"{"offset":0,"len":1024,"widths":[4,8,16]}"#);
        let back: RstEntry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn legacy_and_widths_forms_deserialise_identically() {
        let legacy: RstEntry =
            serde_json::from_str(r#"{"offset":0,"len":64,"h":4,"s":8}"#).unwrap();
        let vector: RstEntry =
            serde_json::from_str(r#"{"offset":0,"len":64,"widths":[4,8]}"#).unwrap();
        assert_eq!(legacy, vector);
    }

    #[test]
    fn mixed_form_row_rejected() {
        let err = serde_json::from_str::<RstEntry>(r#"{"offset":0,"len":64,"h":4,"widths":[4,8]}"#)
            .unwrap_err();
        assert!(err.to_string().contains("mixes"), "{err}");
    }

    #[test]
    fn malformed_json_reports_file_and_line() {
        let dir = std::env::temp_dir().join("harl-rst-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rst-malformed.json");
        std::fs::write(&path, "{\n  \"entries\": [\n    {\"offset\": }\n  ]\n}").unwrap();
        let err = RegionStripeTable::load_from_path(&path).unwrap_err();
        assert_eq!(err.path, path);
        assert_eq!(err.line, Some(3), "syntax error is on line 3: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edited_file_failing_validation_reports_reason() {
        // Syntactically valid JSON whose regions leave a gap: the load
        // path must reject it with the offending rows, not panic.
        let dir = std::env::temp_dir().join("harl-rst-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rst-gapped.json");
        let gapped = RegionStripeTable {
            entries: vec![
                RstEntry::new(0, 10, vec![1, 1]),
                RstEntry::new(20, 10, vec![1, 1]),
            ],
        };
        std::fs::write(&path, serde_json::to_string_pretty(&gapped).unwrap()).unwrap();
        let err = RegionStripeTable::load_from_path(&path).unwrap_err();
        assert!(err.reason.contains("tile contiguously"), "{err}");
        assert!(err.reason.contains("row 0"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_reports_path() {
        let err =
            RegionStripeTable::load_from_path(Path::new("/nonexistent/rst.json")).unwrap_err();
        assert!(err.reason.contains("cannot read file"), "{err}");
        assert!(err.to_string().contains("/nonexistent/rst.json"));
    }

    #[test]
    fn metadata_scales_with_regions_and_classes() {
        let t = table();
        assert_eq!(t.metadata_bytes(), 3 * 32);
        assert_eq!(
            RegionStripeTable::uniform(1024, vec![4, 8]).metadata_bytes(),
            32
        );
        // A third tier widens every row by one u64.
        let three = RegionStripeTable::uniform(1024, vec![4, 8, 16]);
        assert_eq!(three.metadata_bytes(), 40);
    }

    #[test]
    fn single_region_table() {
        let t = RegionStripeTable::uniform(1 << 30, vec![64 * 1024, 64 * 1024]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.file_size(), 1 << 30);
    }
}
