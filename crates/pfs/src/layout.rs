//! File layouts: which servers hold a file and with what stripe widths.
//!
//! A [`FileLayout`] binds a [`GroupLayout`]
//! to concrete [`ServerId`]s. The three shapes the paper evaluates:
//!
//! * **fixed-size stripe** over all servers (the traditional scheme,
//!   Fig. 2(a)) — [`FileLayout::fixed`];
//! * **varied-size stripe**: one width per server class in class order
//!   (one HARL region; the paper's two-class Fig. 2(b) at `K = 2`) —
//!   [`FileLayout::for_classes`];
//! * arbitrary per-server widths — [`FileLayout::custom`].

use crate::cluster::{ClusterConfig, ServerId};
use crate::geometry::GroupLayout;
use serde::{Deserialize, Serialize};

/// A physical file's placement: participating servers plus group geometry.
///
/// Servers with zero stripe width are dropped at construction, so
/// `servers()` lists exactly the servers that hold data — the paper's
/// `{0 KB, 64 KB}` layout (Fig. 9) yields a layout whose server list
/// contains only the SServers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FileLayout {
    servers: Vec<ServerId>,
    group: GroupLayout,
}

impl FileLayout {
    /// Build from explicit `(server, width)` pairs, dropping zero widths.
    ///
    /// # Panics
    /// Panics if every width is zero, or a server id repeats. Layouts
    /// arriving from outside the process should go through
    /// [`Self::try_custom`].
    pub fn custom(pairs: Vec<(ServerId, u64)>) -> Self {
        #[expect(
            clippy::panic,
            reason = "FileLayout::{new,custom} document their panics (# Panics) and delegate \
                      validation to try_new/try_custom; fallible callers use the try_ variants"
        )]
        match Self::try_custom(pairs) {
            Ok(l) => l,
            Err(reason) => panic!("{reason}"),
        }
    }

    /// [`Self::custom`] with a descriptive error instead of a panic — the
    /// entry point for layouts parsed from scenario files or loaded from
    /// disk.
    pub fn try_custom(pairs: Vec<(ServerId, u64)>) -> Result<Self, String> {
        let kept: Vec<(ServerId, u64)> = pairs.into_iter().filter(|&(_, w)| w > 0).collect();
        if kept.is_empty() {
            return Err("file layout with no capacity (every stripe width is zero)".into());
        }
        let mut ids: Vec<ServerId> = kept.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != kept.len() {
            return Err(format!(
                "duplicate server in file layout ({} pairs, {} distinct ids)",
                kept.len(),
                ids.len()
            ));
        }
        let servers = kept.iter().map(|&(id, _)| id).collect();
        let group = GroupLayout::try_new(kept.iter().map(|&(_, w)| w).collect())?;
        Ok(FileLayout { servers, group })
    }

    /// Fixed-size striping over all servers of `cluster`, round-robin from
    /// server 0 — the PFS default the paper compares against.
    pub fn fixed(cluster: &ClusterConfig, stripe: u64) -> Self {
        assert!(stripe > 0, "fixed stripe must be positive");
        FileLayout::custom(cluster.all_servers().map(|id| (id, stripe)).collect())
    }

    /// Per-class varied-size striping: `widths[k]` on every server of
    /// class `k`, in the cluster's class order (matching the paper's
    /// "0 to M+N-1 round-robin"; `widths = [h, s]` reproduces the
    /// two-class Fig. 2(b) layout exactly).
    ///
    /// Any width may be zero (that class then holds no data); all zero
    /// panics.
    ///
    /// # Panics
    /// Panics unless `widths` has exactly one entry per cluster class.
    pub fn for_classes(cluster: &ClusterConfig, widths: &[u64]) -> Self {
        assert_eq!(
            widths.len(),
            cluster.classes.len(),
            "one stripe width per server class"
        );
        let mut pairs = Vec::with_capacity(cluster.server_count());
        for (k, &w) in widths.iter().enumerate() {
            pairs.extend(cluster.class_servers(k).map(|id| (id, w)));
        }
        FileLayout::custom(pairs)
    }

    /// The servers holding data, in group order.
    #[inline]
    pub fn servers(&self) -> &[ServerId] {
        &self.servers
    }

    /// The group geometry.
    #[inline]
    pub fn group(&self) -> &GroupLayout {
        &self.group
    }

    /// Stripe group size `S`.
    #[inline]
    pub fn group_size(&self) -> u64 {
        self.group.group_size()
    }

    /// Split a byte range into per-server sub-requests `(server, bytes)`.
    pub fn split(&self, offset: u64, len: u64) -> Vec<(ServerId, u64)> {
        self.group
            .split(offset, len)
            .into_iter()
            .map(|(slot, bytes)| (self.servers[slot], bytes))
            .collect()
    }

    /// The stripe width assigned to `server`, 0 if it holds nothing.
    pub fn width_of(&self, server: ServerId) -> u64 {
        self.servers
            .iter()
            .position(|&id| id == server)
            .map_or(0, |slot| self.group.width(slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_uses_all_servers() {
        let c = ClusterConfig::paper_default();
        let l = FileLayout::fixed(&c, 64 * 1024);
        assert_eq!(l.servers(), (0..8).collect::<Vec<_>>().as_slice());
        assert_eq!(l.group_size(), 8 * 64 * 1024);
    }

    #[test]
    fn two_class_widths() {
        let c = ClusterConfig::paper_default();
        let l = FileLayout::for_classes(&c, &[32 * 1024, 160 * 1024]);
        assert_eq!(l.width_of(0), 32 * 1024);
        assert_eq!(l.width_of(5), 32 * 1024);
        assert_eq!(l.width_of(6), 160 * 1024);
        assert_eq!(l.width_of(7), 160 * 1024);
        assert_eq!(l.group_size(), 6 * 32 * 1024 + 2 * 160 * 1024);
    }

    #[test]
    fn zero_h_drops_hservers() {
        let c = ClusterConfig::paper_default();
        let l = FileLayout::for_classes(&c, &[0, 64 * 1024]);
        assert_eq!(l.servers(), &[6, 7]);
        assert_eq!(l.width_of(0), 0);
        // A 128 KiB request is served entirely by the two SServers.
        let split = l.split(0, 128 * 1024);
        assert_eq!(split, vec![(6, 64 * 1024), (7, 64 * 1024)]);
    }

    #[test]
    fn zero_s_drops_sservers() {
        let c = ClusterConfig::paper_default();
        let l = FileLayout::for_classes(&c, &[64 * 1024, 0]);
        assert_eq!(l.servers(), &[0, 1, 2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn both_zero_rejected() {
        let c = ClusterConfig::paper_default();
        FileLayout::for_classes(&c, &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "duplicate server")]
    fn duplicate_server_rejected() {
        FileLayout::custom(vec![(0, 10), (0, 20)]);
    }

    #[test]
    fn split_conservation_two_class() {
        let c = ClusterConfig::hybrid(6, 2);
        let l = FileLayout::for_classes(&c, &[36 * 1024, 148 * 1024]);
        for (o, r) in [(0u64, 512 * 1024u64), (123_456, 512 * 1024), (7, 1)] {
            let total: u64 = l.split(o, r).iter().map(|&(_, b)| b).sum();
            assert_eq!(total, r);
        }
    }

    #[test]
    fn for_classes_three_tier() {
        let c =
            ClusterConfig::hybrid(2, 2).with_extra_class(1, harl_devices::object_store_preset());
        let l = FileLayout::for_classes(&c, &[16 * 1024, 64 * 1024, 1024 * 1024]);
        assert_eq!(l.width_of(0), 16 * 1024);
        assert_eq!(l.width_of(2), 64 * 1024);
        assert_eq!(l.width_of(4), 1024 * 1024);
        assert_eq!(l.group_size(), 2 * 16 * 1024 + 2 * 64 * 1024 + 1024 * 1024);
    }

    #[test]
    fn try_custom_reports_errors() {
        let err = FileLayout::try_custom(vec![(0, 0), (1, 0)]).unwrap_err();
        assert!(err.contains("no capacity"), "got: {err}");
        let err = FileLayout::try_custom(vec![(0, 10), (0, 20)]).unwrap_err();
        assert!(err.contains("duplicate server"), "got: {err}");
    }

    #[test]
    fn custom_k_class() {
        let l = FileLayout::custom(vec![(0, 100), (3, 200), (9, 400)]);
        assert_eq!(l.servers(), &[0, 3, 9]);
        assert_eq!(l.width_of(3), 200);
        assert_eq!(l.width_of(1), 0);
        let split = l.split(0, 700);
        assert_eq!(split, vec![(0, 100), (3, 200), (9, 400)]);
    }
}
