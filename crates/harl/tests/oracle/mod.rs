//! Plain reference implementations shared by the property tests: the
//! per-server load scan and the per-request Eqs. 1–8 formula built on it.
//! They trade the library's O(1) geometry and precomputed tables for the
//! most direct arithmetic, so agreement to the last bit is evidence, not
//! tautology.

// Each test crate that includes this module uses a different subset.
#![allow(dead_code)]

use harl_core::{MultiProfileModel, ServerLoads};
use harl_devices::OpKind;

/// Bytes of `[0, x)` on the server whose segment is `[base, base+w)`
/// within a group of size `group`.
fn bytes_below(x: u64, group: u64, base: u64, w: u64) -> u64 {
    if w == 0 {
        return 0;
    }
    (x / group) * w + (x % group).saturating_sub(base).min(w)
}

/// Per-class `(max_load, servers_touched)` of the request
/// `[offset, offset+size)` by visiting every server, O(Σ count).
///
/// # Panics
/// Panics if the layout has no capacity and the request is non-empty.
pub fn class_loads_scan(
    counts: &[usize],
    widths: &[u64],
    offset: u64,
    size: u64,
) -> Vec<(u64, usize)> {
    assert_eq!(counts.len(), widths.len(), "one width per class");
    if size == 0 {
        return vec![(0, 0); counts.len()];
    }
    let group: u64 = counts.iter().zip(widths).map(|(&c, &w)| c as u64 * w).sum();
    assert!(group > 0, "layout has no capacity");
    let end = offset + size;
    let mut base = 0u64;
    let mut out = Vec::with_capacity(counts.len());
    for (&count, &w) in counts.iter().zip(widths) {
        let (mut max_load, mut touched) = (0u64, 0usize);
        for _ in 0..count {
            let b = bytes_below(end, group, base, w) - bytes_below(offset, group, base, w);
            if b > 0 {
                touched += 1;
                max_load = max_load.max(b);
            }
            base += w;
        }
        out.push((max_load, touched));
    }
    out
}

/// The two-class `(s_m, m, s_n, n)` of [`harl_core::server_loads`], by scan.
pub fn server_loads_scan(
    offset: u64,
    size: u64,
    m_servers: usize,
    h: u64,
    n_servers: usize,
    s: u64,
) -> ServerLoads {
    let loads = class_loads_scan(&[m_servers, n_servers], &[h, s], offset, size);
    ServerLoads {
        s_m: loads[0].0,
        m: loads[0].1,
        s_n: loads[1].0,
        n: loads[1].1,
    }
}

/// One request's cost under per-class `widths`, straight from Eqs. 1–8:
/// the slowest class on the wire, the slowest expected startup among the
/// touched classes, and the slowest device transfer.
pub fn plain_cost(
    model: &MultiProfileModel,
    offset: u64,
    size: u64,
    op: OpKind,
    widths: &[u64],
) -> f64 {
    if size == 0 {
        return 0.0;
    }
    let counts: Vec<usize> = model.classes.iter().map(|c| c.count).collect();
    let loads = class_loads_scan(&counts, widths, offset, size);
    let (mut t_x, mut t_s, mut t_t) = (0.0f64, 0.0f64, 0.0f64);
    for (c, &(load, touched)) in model.classes.iter().zip(&loads) {
        let p = match op {
            OpKind::Read => &c.read,
            OpKind::Write => &c.write,
        };
        t_x = t_x.max(load as f64 * model.t_s_per_byte);
        if touched > 0 {
            let k = touched as f64;
            t_s = t_s.max(p.alpha_min_s + k / (k + 1.0) * (p.alpha_max_s - p.alpha_min_s));
        }
        t_t = t_t.max(load as f64 * p.beta_s_per_byte);
    }
    t_x + t_s + t_t
}

/// A sample's summed cost: a left fold of [`plain_cost`] in sample order.
pub fn total_cost(model: &MultiProfileModel, sample: &[(u64, u64, OpKind)], widths: &[u64]) -> f64 {
    harl_core::fold::sum_f64(
        sample
            .iter()
            .map(|&(o, r, op)| plain_cost(model, o, r, op, widths)),
    )
}
