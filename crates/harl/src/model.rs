//! The data-access cost model of Sec. III-D (Table I, Eqs. 1–8), for any
//! number of server classes.
//!
//! Under per-class stripe widths `w_k` on `count_k` servers, one file
//! request costs
//!
//! ```text
//! T = T_X + T_S + T_T
//! T_X = max_k s_k · t                              (network, Eq. 1)
//! T_S = max_k α_min,k + m_k/(m_k+1)·(α_max,k − α_min,k)
//!                                                  (startup, Eqs. 3–5)
//! T_T = max_k s_k · β_k                            (transfer, Eq. 6)
//! ```
//!
//! where `s_k` is the largest per-server load on class `k` and `m_k` how
//! many of its servers the request touches (the startup term of an
//! untouched class is 0). The paper states the two-class case — `h` on `M`
//! HServers, `s` on `N` SServers — and derives `(s_m, s_n, m, n)` through
//! the case analysis of Figs. 4–5; we compute every class's pair *exactly*
//! from the round-robin geometry in O(1) (`class_span_loads`): every
//! server's load is a per-group base plus a step-function correction from
//! the two endpoint fragments, so only the segment boundaries need case
//! analysis, never the individual servers. The paper's two-class
//! vocabulary survives as [`server_loads`] and its case-(a) table as
//! [`case_a_params`], so tests can confirm the closed form and the table
//! agree on the table's domain.
//!
//! [`MultiProfileModel`] holds the platform parameters; [`CostKernel`] is
//! the library's one implementation of Eqs. 1–8, built once per search
//! from a model: Eq. 5 is tabulated per class and op by servers touched,
//! and each candidate's class offsets within a group ([`ClassSpans`]) are
//! computed once rather than per request.

use crate::cast::{i64_to_u64, i64_to_usize, u64_to_i64, u64_to_usize, usize_to_i64, usize_to_u64};
use harl_devices::{CalibrationConfig, NetworkProfile, OpKind, OpParams, StorageProfile};
use harl_pfs::ClusterConfig;
use serde::{Deserialize, Serialize};

/// One server class in the model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassParams {
    /// Servers in the class.
    pub count: usize,
    /// Read-path parameters.
    pub read: OpParams,
    /// Write-path parameters.
    pub write: OpParams,
}

/// The platform model (paper Table I) over K server classes.
///
/// Usually built from *calibrated* profiles
/// ([`MultiProfileModel::from_cluster_calibrated`]) so the optimizer works
/// from measurements, exactly as the paper's Analysis Phase does.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiProfileModel {
    /// Per-class parameters, in server-id order.
    pub classes: Vec<ClassParams>,
    /// Network per-byte time (seconds/byte).
    pub t_s_per_byte: f64,
}

impl MultiProfileModel {
    /// Build from a cluster's ground-truth profiles, any number of classes.
    pub fn from_cluster(cluster: &ClusterConfig) -> Self {
        MultiProfileModel::new(
            &cluster.network,
            cluster
                .classes
                .iter()
                .map(|c| (c.count, c.profile.clone()))
                .collect(),
        )
    }

    /// Build from a cluster but with *measured* (calibrated) device
    /// parameters for every class and the network — the faithful
    /// reproduction of the paper's Analysis Phase pipeline.
    pub fn from_cluster_calibrated(cluster: &ClusterConfig, cfg: &CalibrationConfig) -> Self {
        MultiProfileModel::new(
            &harl_devices::calibrate_network(&cluster.network, cfg),
            cluster
                .classes
                .iter()
                .map(|c| (c.count, harl_devices::calibrate_storage(&c.profile, cfg)))
                .collect(),
        )
    }

    /// Build from explicit profiles.
    pub fn new(network: &NetworkProfile, classes: Vec<(usize, StorageProfile)>) -> Self {
        MultiProfileModel {
            classes: classes
                .into_iter()
                .map(|(count, p)| ClassParams {
                    count,
                    read: p.read,
                    write: p.write,
                })
                .collect(),
            t_s_per_byte: network.t_s_per_byte,
        }
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// True when some populated class has a non-zero width.
    pub(crate) fn has_capacity(&self, widths: &[u64]) -> bool {
        self.classes
            .iter()
            .zip(widths)
            .any(|(c, &w)| c.count > 0 && w > 0)
    }
}

/// One class of a [`CostKernel`], for one op.
#[derive(Debug, Clone)]
struct KernelClass {
    count: usize,
    /// Eq. 6 per-byte transfer time.
    beta: f64,
    /// Eq. 5 startup by servers touched (`0..=count`; an untouched class
    /// starts nothing).
    startup: Vec<f64>,
}

/// Eqs. 1–8 precomputed for one [`MultiProfileModel`] — the library's one
/// cost-model implementation, shared by the `K = 2` grid, the `K ≥ 3`
/// descent, the on-line monitor and every baseline that costs a layout.
#[derive(Debug, Clone)]
pub struct CostKernel {
    t_s_per_byte: f64,
    /// The classes in order, per op (indexed by [`op_index`]).
    ops: [Vec<KernelClass>; 2],
}

/// One candidate's round-robin geometry under a [`CostKernel`]: the group
/// size `Σ count_k·w_k` and each class's `(base, width)` within a group.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassSpans {
    group: u64,
    spans: Vec<(u64, u64)>,
}

impl ClassSpans {
    /// The round-robin group size `Σ count_k·w_k`: a request's cost depends
    /// on its offset only modulo this.
    #[inline]
    pub fn group(&self) -> u64 {
        self.group
    }
}

#[inline]
fn op_index(op: OpKind) -> usize {
    match op {
        OpKind::Read => 0,
        OpKind::Write => 1,
    }
}

impl CostKernel {
    /// Tabulate a model.
    pub fn new(model: &MultiProfileModel) -> Self {
        // The expected maximum of `k` i.i.d. uniform draws on
        // `[α_min, α_max]` (Eqs. 3–4).
        let classes = |op: fn(&ClassParams) -> &OpParams| -> Vec<KernelClass> {
            model
                .classes
                .iter()
                .map(|c| {
                    let p = op(c);
                    let startup = (0..=c.count)
                        .map(|k| {
                            if k == 0 {
                                0.0
                            } else {
                                let k = k as f64;
                                p.alpha_min_s + k / (k + 1.0) * (p.alpha_max_s - p.alpha_min_s)
                            }
                        })
                        .collect();
                    KernelClass {
                        count: c.count,
                        beta: p.beta_s_per_byte,
                        startup,
                    }
                })
                .collect()
        };
        CostKernel {
            t_s_per_byte: model.t_s_per_byte,
            ops: [classes(|c| &c.read), classes(|c| &c.write)],
        }
    }

    /// Lay out `widths` into `out`, reusing its allocation.
    ///
    /// # Panics
    /// Panics unless there is one width per class and some populated
    /// class has a non-zero width.
    #[inline]
    pub fn place(&self, widths: &[u64], out: &mut ClassSpans) {
        let classes = &self.ops[0];
        assert_eq!(widths.len(), classes.len(), "one width per class");
        if out.spans.len() != classes.len() {
            out.spans = vec![(0, 0); classes.len()];
        }
        let mut base = 0u64;
        for ((c, &w), span) in classes.iter().zip(widths).zip(&mut out.spans) {
            *span = (base, w);
            base += usize_to_u64(c.count) * w;
        }
        assert!(base > 0, "layout has no capacity");
        out.group = base;
    }

    /// [`Self::place`] into a fresh [`ClassSpans`].
    pub fn spans(&self, widths: &[u64]) -> ClassSpans {
        let mut out = ClassSpans::default();
        self.place(widths, &mut out);
        out
    }

    /// Cost (seconds) of one request at region-relative `offset` of `size`
    /// bytes under the placed widths — Eq. 7 (reads) / Eq. 8 (writes).
    /// Zero-size requests cost nothing.
    #[inline(always)]
    pub fn cost(&self, at: &ClassSpans, offset: u64, size: u64, op: OpKind) -> f64 {
        if size == 0 {
            return 0.0;
        }
        let group = at.group;
        let end = offset + size;
        // One division pair per endpoint, shared by every class.
        let dq = end / group - offset / group;
        let (r_o, r_e) = (offset % group, end % group);
        // One class's (largest load, Eq. 5 startup, Eq. 6 transfer).
        let term = |c: &KernelClass, base: u64, w: u64| -> (u64, f64, f64) {
            let (load, touched) = class_span_loads(dq, r_o, r_e, base, w, c.count);
            (load, c.startup[touched], load as f64 * c.beta)
        };
        // Every term is non-negative, so the maxima may start from any
        // class. The paper's two classes are unrolled (the grid's hot
        // path, where the first class always starts a group); any other
        // class count folds from zero.
        let classes = &self.ops[op_index(op)];
        let (max_load, t_s, t_t) = match (classes.as_slice(), at.spans.as_slice()) {
            ([h, s], [(_, w_h), (base_s, w_s)]) => {
                let (load_h, start_h, xfer_h) = term(h, 0, *w_h);
                let (load_s, start_s, xfer_s) = term(s, *base_s, *w_s);
                (load_h.max(load_s), start_h.max(start_s), xfer_h.max(xfer_s))
            }
            (classes, spans) => classes.iter().zip(spans).fold(
                (0, 0.0, 0.0),
                |(load, start, xfer): (u64, f64, f64), (c, &(base, w))| {
                    let (l, s, x) = term(c, base, w);
                    (load.max(l), start.max(s), xfer.max(x))
                },
            ),
        };
        // Eq. 1 (the slowest sub-request on the wire) + Eq. 5 + Eq. 6.
        max_load as f64 * self.t_s_per_byte + t_s + t_t
    }

    /// [`Self::cost`] under `widths`, placed for this one request.
    pub fn request_cost(&self, offset: u64, size: u64, op: OpKind, widths: &[u64]) -> f64 {
        self.cost(&self.spans(widths), offset, size, op)
    }
}

/// The four critical parameters of the paper's case analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerLoads {
    /// Largest per-HServer load (bytes).
    pub s_m: u64,
    /// Number of HServers touched.
    pub m: usize,
    /// Largest per-SServer load (bytes).
    pub s_n: u64,
    /// Number of SServers touched.
    pub n: usize,
}

/// Exact `(s_m, m, s_n, n)` for a request `[offset, offset+size)` under the
/// round-robin two-class layout — the paper's Fig. 5 vocabulary, in O(1)
/// over the group geometry.
///
/// Property-tested against a per-server scan; independent of `M + N`,
/// like every class term of [`CostKernel::cost`].
///
/// # Panics
/// Panics if both classes have zero capacity (`M·h + N·s == 0`) for a
/// non-empty request.
pub fn server_loads(
    offset: u64,
    size: u64,
    m_servers: usize,
    h: u64,
    n_servers: usize,
    s: u64,
) -> ServerLoads {
    if size == 0 {
        return ServerLoads {
            s_m: 0,
            m: 0,
            s_n: 0,
            n: 0,
        };
    }
    let group = usize_to_u64(m_servers) * h + usize_to_u64(n_servers) * s;
    assert!(group > 0, "layout has no capacity (M*h + N*s == 0)");
    let end = offset + size;
    // One division pair per endpoint, shared by both classes.
    let dq = end / group - offset / group;
    let (r_o, r_e) = (offset % group, end % group);
    let (s_m, m) = class_span_loads(dq, r_o, r_e, 0, h, m_servers);
    let (s_n, n) = class_span_loads(dq, r_o, r_e, usize_to_u64(m_servers) * h, s, n_servers);
    ServerLoads { s_m, m, s_n, n }
}

/// `(max_load, servers_touched)` for one server class occupying
/// `[base0, base0 + count·w)` of each round-robin group, for a byte span
/// crossing `dq` group boundaries with endpoint group-residues `r_o`/`r_e`
/// — O(1).
///
/// Server `k` of the class holds `D + f_k(r_e) − f_k(r_o)` bytes, where
/// `D = dq·w` is the uniform full-group contribution and
/// `f_k(r) = clamp(r − base0 − k·w, 0, w)` is the endpoint-fragment step
/// function: `w` for servers strictly below the fragment index `k_r`, the
/// partial `p_r = (r − base0) mod w` at `k_r`, and `0` above it. Both
/// endpoints therefore split the class into at most five constant-load
/// segments, resolved by comparing the two fragment indices (endpoints
/// outside the class span clamp to the virtual indices `−1` / `count`).
pub(crate) fn class_span_loads(
    dq: u64,
    r_o: u64,
    r_e: u64,
    base0: u64,
    w: u64,
    count: usize,
) -> (u64, usize) {
    if w == 0 || count == 0 {
        return (0, 0);
    }
    let c = usize_to_u64(count);
    // Signed 64-bit intermediates: valid for byte spans below 2^63, the
    // same implicit domain as the scan's `offset + size` arithmetic.
    let d = u64_to_i64(dq * w);

    // Fragment index and partial bytes of one endpoint residue, with
    // virtual indices −1 (before the class span) and `count` (at/after it).
    let point = |r: u64| -> (i64, i64) {
        if r <= base0 {
            (-1, 0)
        } else if r >= base0 + c * w {
            (u64_to_i64(c), 0)
        } else {
            let q = (r - base0) / w;
            (u64_to_i64(q), u64_to_i64(r - base0 - q * w))
        }
    };
    let (k_o, p_o) = point(r_o);
    let (k_e, p_e) = point(r_e);

    // Real servers strictly between indices `a` and `b` (exclusive).
    let between = |a: i64, b: i64| -> u64 {
        let lo = (a + 1).max(0);
        let hi = (b - 1).min(u64_to_i64(c) - 1);
        if hi >= lo {
            i64_to_u64(hi - lo + 1)
        } else {
            0
        }
    };
    let real = |k: i64| -> u64 { u64::from(k >= 0 && k < u64_to_i64(c)) };

    // (load, how many servers hold it) — at most four segments.
    let mut segs = [(0i64, 0u64); 4];
    let w = u64_to_i64(w);
    if k_o < k_e {
        segs[0] = (d, between(-1, k_o) + between(k_e, u64_to_i64(c)));
        segs[1] = (d + w - p_o, real(k_o));
        segs[2] = (d + w, between(k_o, k_e));
        segs[3] = (d + p_e, real(k_e));
    } else if k_o > k_e {
        segs[0] = (d, between(-1, k_e) + between(k_o, u64_to_i64(c)));
        segs[1] = (d + p_e - w, real(k_e));
        segs[2] = (d - w, between(k_e, k_o));
        segs[3] = (d - p_o, real(k_o));
    } else {
        segs[0] = (d, c - real(k_o));
        segs[1] = (d + p_e - p_o, real(k_o));
    }

    let mut max_load = 0i64;
    let mut touched = 0u64;
    for &(load, n) in &segs {
        if n > 0 && load > 0 {
            touched += n;
            max_load = max_load.max(load);
        }
    }
    (i64_to_u64(max_load), u64_to_usize(touched))
}

/// The paper's Fig. 5 case-(a) table: `(s_m, s_n, m, n)` when both the
/// beginning and ending sub-requests fall on HServers.
///
/// Returns `None` when the request is not in case (a) (it begins or ends on
/// an SServer) or hits a degenerate fragment the table does not define
/// (an ending offset exactly on a stripe boundary). Implemented for
/// cross-validation against [`server_loads`]; the paper presents only this
/// case and leaves the others to "the same arguments".
///
/// **Reproduction note:** two rows of the table are imprecise outside a
/// restricted domain. The third Δr≥1 row (`s_m = Δr·h`) is exact only when
/// the beginning server index is *greater* than the ending server index
/// (`n_b > n_e`); when `n_b < n_e` the beginning server actually holds
/// `s_b + Δr·h` bytes, which the row under-counts. Its server count
/// `m = M + 1 + Δc` is exact only for `Δr = 1`: with `Δr ≥ 2` a full
/// middle stripe group touches all `M` HServers. Our optimizer therefore
/// uses the exact [`server_loads`]; the property tests check table-vs-exact
/// agreement on the table's valid domain and bound the divergence outside
/// it.
pub fn case_a_params(
    offset: u64,
    size: u64,
    m_servers: usize,
    h: u64,
    n_servers: usize,
    s: u64,
) -> Option<ServerLoads> {
    if size == 0 || h == 0 {
        return None;
    }
    let m_total = usize_to_u64(m_servers) * h;
    let group = m_total + usize_to_u64(n_servers) * s;
    let end = offset + size;

    let r_b = offset / group;
    let r_e = end / group;
    let l_b = offset - r_b * group;
    let l_e = end - r_e * group;
    // Case (a): both endpoints inside the HServer span of their groups.
    if l_b >= m_total || l_e > m_total {
        return None;
    }
    // Degenerate ending fragment (boundary-aligned): the table's fragment
    // arithmetic assumes a strictly interior endpoint.
    if l_e.is_multiple_of(h) {
        return None;
    }
    let n_b = u64_to_usize(l_b / h);
    let n_e = u64_to_usize(l_e / h);
    let s_b = h - l_b % h; // remaining bytes of the beginning stripe
    let s_e = l_e % h; // bytes consumed of the ending stripe
    let d_r = r_e - r_b;
    let d_c = usize_to_i64(n_e) - usize_to_i64(n_b);

    let loads = if d_r == 0 {
        let (s_m, m) = match d_c {
            0 => (size, 1),
            1 => (s_b.max(s_e), 2),
            c if c > 1 => (h, i64_to_usize(c + 1)),
            _ => return None, // negative Δc impossible within one group
        };
        ServerLoads {
            s_m,
            m,
            s_n: 0,
            n: 0,
        }
    } else {
        // Δr ≥ 1: the request crosses group boundaries; every SServer gets
        // Δr full stripes.
        let s_n = d_r * s;
        let n = if s == 0 { 0 } else { n_servers };
        if d_c == 0 && n_b == n_e {
            ServerLoads {
                s_m: (d_r * h - h + s_b + s_e).max(d_r * h),
                m: m_servers,
                s_n,
                n,
            }
        } else if n_b + 1 == m_servers && n_e == 0 {
            ServerLoads {
                s_m: (d_r * h - h + s_b).max(d_r * h - h + s_e),
                m: if d_r == 1 { 2 } else { m_servers },
                s_n,
                n,
            }
        } else {
            ServerLoads {
                s_m: d_r * h,
                m: if d_c < -1 {
                    i64_to_usize(usize_to_i64(m_servers) + 1 + d_c)
                } else {
                    m_servers
                },
                s_n,
                n,
            }
        }
    };
    Some(loads)
}

#[cfg(test)]
mod tests {
    // Tests assert exact values: outputs are deterministic by design.
    #![allow(clippy::float_cmp)]

    use super::*;
    use harl_devices::{hdd_2015_preset, nvme_2020_preset, ssd_2015_preset, NetworkProfile};

    const KB: u64 = 1024;

    fn paper_model() -> MultiProfileModel {
        MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            vec![(6, hdd_2015_preset()), (2, ssd_2015_preset())],
        )
    }

    fn paper_kernel() -> CostKernel {
        CostKernel::new(&paper_model())
    }

    #[test]
    fn loads_conserve_nothing_lost() {
        // Whole-request bytes must be distributed somewhere; check via the
        // exact per-server accounting against GroupLayout.
        let loads = server_loads(0, 512 * KB, 6, 64 * KB, 2, 64 * KB);
        assert_eq!(loads.m, 6);
        assert_eq!(loads.n, 2);
        assert_eq!(loads.s_m, 64 * KB);
        assert_eq!(loads.s_n, 64 * KB);
    }

    #[test]
    fn loads_with_h_zero() {
        let loads = server_loads(0, 128 * KB, 6, 0, 2, 64 * KB);
        assert_eq!(loads.m, 0);
        assert_eq!(loads.s_m, 0);
        assert_eq!(loads.n, 2);
        assert_eq!(loads.s_n, 64 * KB);
    }

    #[test]
    fn loads_with_s_zero() {
        let loads = server_loads(0, 128 * KB, 4, 32 * KB, 2, 0);
        assert_eq!(loads.n, 0);
        assert_eq!(loads.m, 4);
        assert_eq!(loads.s_m, 32 * KB);
    }

    #[test]
    #[should_panic(expected = "no capacity")]
    fn zero_capacity_panics() {
        server_loads(0, 1, 4, 0, 2, 0);
    }

    #[test]
    fn zero_size_request_is_free() {
        let k = paper_kernel();
        assert_eq!(
            k.request_cost(123, 0, OpKind::Read, &[64 * KB, 64 * KB]),
            0.0
        );
    }

    #[test]
    fn cost_increases_with_size() {
        let k = paper_kernel();
        let c1 = k.request_cost(0, 128 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        let c2 = k.request_cost(0, 512 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        let c3 = k.request_cost(0, 2048 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        assert!(c1 < c2 && c2 < c3);
    }

    #[test]
    fn writes_cost_more_than_reads() {
        let k = paper_kernel();
        let r = k.request_cost(0, 512 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        let w = k.request_cost(0, 512 * KB, OpKind::Write, &[64 * KB, 64 * KB]);
        assert!(w > r, "write {w} should exceed read {r}");
    }

    #[test]
    fn balanced_varied_beats_fixed_for_512k() {
        // The heart of the paper: at 512 KiB requests on 6H+2S the model
        // must prefer a small-h / large-s layout over uniform 64 KiB.
        let k = paper_kernel();
        let fixed = k.request_cost(0, 512 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        let varied = k.request_cost(0, 512 * KB, OpKind::Read, &[32 * KB, 160 * KB]);
        assert!(varied < fixed, "varied {varied} should beat fixed {fixed}");
    }

    #[test]
    fn small_requests_prefer_ssd_only() {
        // Fig. 9: at 128 KiB the optimal layout is {0, 64K} — any HServer
        // involvement pays the big HDD startup.
        let k = paper_kernel();
        let ssd_only = k.request_cost(0, 128 * KB, OpKind::Read, &[0, 64 * KB]);
        let mixed = k.request_cost(0, 128 * KB, OpKind::Read, &[16 * KB, 16 * KB]);
        let fixed = k.request_cost(0, 128 * KB, OpKind::Read, &[64 * KB, 64 * KB]);
        assert!(ssd_only < mixed);
        assert!(ssd_only < fixed);
    }

    #[test]
    fn startup_order_statistic() {
        let p = OpParams {
            alpha_min_s: 1.0,
            alpha_max_s: 3.0,
            beta_s_per_byte: 0.0,
        };
        let model = MultiProfileModel {
            classes: vec![ClassParams {
                count: 1000,
                read: p,
                write: p,
            }],
            t_s_per_byte: 0.0,
        };
        let table = &CostKernel::new(&model).ops[0][0].startup;
        assert_eq!(table[0], 0.0);
        assert!((table[1] - 2.0).abs() < 1e-12);
        // k → ∞ approaches α_max.
        assert!((table[1000] - 3.0).abs() < 0.01);
    }

    #[test]
    fn spans_lay_classes_out_in_order() {
        let model = MultiProfileModel::new(
            &NetworkProfile::gigabit_ethernet(),
            vec![
                (2, hdd_2015_preset()),
                (2, ssd_2015_preset()),
                (1, nvme_2020_preset()),
            ],
        );
        let spans = CostKernel::new(&model).spans(&[16 * KB, 64 * KB, 128 * KB]);
        assert_eq!(spans.group, 288 * KB);
        assert_eq!(
            spans.spans,
            vec![(0, 16 * KB), (32 * KB, 64 * KB), (160 * KB, 128 * KB)]
        );
    }

    #[test]
    #[should_panic(expected = "one width per class")]
    fn width_count_mismatch_panics() {
        paper_kernel().spans(&[4 * KB]);
    }

    #[test]
    fn case_a_single_stripe() {
        // Request wholly inside one HServer stripe.
        let got = case_a_params(10 * KB, 20 * KB, 6, 64 * KB, 2, 64 * KB).unwrap();
        assert_eq!(
            got,
            ServerLoads {
                s_m: 20 * KB,
                m: 1,
                s_n: 0,
                n: 0
            }
        );
        assert_eq!(got, server_loads(10 * KB, 20 * KB, 6, 64 * KB, 2, 64 * KB));
    }

    #[test]
    fn case_a_two_adjacent_stripes() {
        // Crosses one stripe boundary within the HServer span.
        let (h, s) = (64 * KB, 64 * KB);
        let got = case_a_params(48 * KB, 32 * KB, 6, h, 2, s).unwrap();
        let exact = server_loads(48 * KB, 32 * KB, 6, h, 2, s);
        assert_eq!(got, exact);
        assert_eq!(got.m, 2);
        assert_eq!(got.s_m, 16 * KB);
    }

    #[test]
    fn case_a_rejects_sserver_endpoints() {
        // A request beginning in the SServer span is not case (a).
        let (h, s) = (64 * KB, 64 * KB);
        // HServer span = 384 KiB; offset inside SServer span.
        assert!(case_a_params(400 * KB, 8 * KB, 6, h, 2, s).is_none());
    }

    #[test]
    fn case_a_multi_group_matches_exact_when_nb_gt_ne() {
        // Group = 6*32 + 2*96 = 384 KiB, HServer span 192 KiB. Request from
        // server 3 of group 0 to server 1 of group 1 (n_b=3 > n_e=1): the
        // table's third row domain, where it is exact.
        let (h, s) = (32 * KB, 96 * KB);
        let offset = 106 * KB; // n_b = 3, s_b = 22 KiB
        let size = 320 * KB; // ends at 426 KiB; l_e = 42 KiB, n_e = 1
        let got = case_a_params(offset, size, 6, h, 2, s).unwrap();
        let exact = server_loads(offset, size, 6, h, 2, s);
        assert_eq!(got, exact);
        assert_eq!(got.s_m, 32 * KB);
        assert_eq!(got.m, 5); // M + 1 + Δc = 6 + 1 - 2
        assert_eq!(got.s_n, 96 * KB);
    }

    #[test]
    fn case_a_row3_undercounts_when_nb_lt_ne() {
        // Documented paper divergence: with n_b < n_e the beginning server
        // holds s_b + Δr·h bytes, more than the table's Δr·h.
        let (h, s) = (32 * KB, 96 * KB);
        let offset = 10 * KB; // n_b = 0, s_b = 22 KiB
        let size = 434 * KB; // ends at 444 KiB; l_e = 60 KiB, n_e = 1
        let table = case_a_params(offset, size, 6, h, 2, s).unwrap();
        let exact = server_loads(offset, size, 6, h, 2, s);
        assert_eq!(table.s_m, 32 * KB, "table row 3 value");
        // Server 0 (the beginning server) holds s_b + Δr·h = 54 KiB and
        // server 1 holds a full stripe in each group = 60 KiB; both exceed
        // the table's Δr·h.
        assert_eq!(exact.s_m, 60 * KB, "true maximum per-server load");
        assert!(exact.s_m > table.s_m);
    }

    #[test]
    fn from_cluster_matches_manual() {
        let p = MultiProfileModel::from_cluster(&ClusterConfig::paper_default());
        assert_eq!(p.class_count(), 2);
        assert_eq!((p.classes[0].count, p.classes[1].count), (6, 2));
        assert_eq!(p, paper_model());
    }

    #[test]
    fn calibrated_model_close_to_truth() {
        let cluster = ClusterConfig::paper_default();
        let truth = CostKernel::new(&MultiProfileModel::from_cluster(&cluster));
        let cal = CostKernel::new(&MultiProfileModel::from_cluster_calibrated(
            &cluster,
            &CalibrationConfig::default(),
        ));
        let ct = truth.request_cost(0, 512 * KB, OpKind::Read, &[32 * KB, 160 * KB]);
        let cc = cal.request_cost(0, 512 * KB, OpKind::Read, &[32 * KB, 160 * KB]);
        assert!(
            (ct - cc).abs() / ct < 0.1,
            "calibrated cost {cc} vs truth {ct}"
        );
    }

    #[test]
    fn calibration_covers_every_class() {
        let cluster = ClusterConfig::hybrid(4, 2).with_extra_class(2, nvme_2020_preset());
        let cal =
            MultiProfileModel::from_cluster_calibrated(&cluster, &CalibrationConfig::default());
        assert_eq!(cal.class_count(), 3);
        for (c, truth) in cal.classes.iter().zip(&cluster.classes) {
            assert_eq!(c.count, truth.count);
            let (got, want) = (c.read.beta_s_per_byte, truth.profile.read.beta_s_per_byte);
            assert!((got - want).abs() / want < 0.1, "β {got} vs truth {want}");
        }
    }
}
