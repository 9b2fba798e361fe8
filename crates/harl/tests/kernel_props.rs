//! Bit-identity of the cost kernel against the plain per-request formula.
//!
//! [`CostKernel`] tabulates Eq. 5, places each candidate's class spans once
//! and computes loads in closed form; the oracle (`oracle/mod.rs`) scans
//! every server and evaluates Eqs. 1–8 directly. Both must return the same
//! bits for K ∈ {1, 2, 3, 4}, including zero-width and zero-count classes,
//! zero-size requests, and a reused [`ClassSpans`] scratch.

mod oracle;

use harl_core::{ClassSpans, CostKernel, MultiProfileModel};
use harl_devices::{
    hdd_2015_preset, nvme_2020_preset, object_store_preset, ssd_2015_preset, NetworkProfile, OpKind,
};
use proptest::prelude::*;

prop_compose! {
    /// 1–4 classes drawn from the device presets with 0..=4 servers each
    /// and widths that are zero, a 4 KiB multiple or an arbitrary byte
    /// count; at least one class is populated with a non-zero width.
    fn layout()(
        classes in prop::collection::vec(
            (0usize..4, 0usize..=4, 0usize..3, 1u64..=64, 1u64..(1 << 18)),
            1..5,
        ),
    ) -> (MultiProfileModel, Vec<u64>) {
        let presets = [hdd_2015_preset, ssd_2015_preset, nvme_2020_preset, object_store_preset];
        let mut classes: Vec<_> = classes
            .into_iter()
            .map(|(p, n, kind, pages, bytes)| (n, presets[p](), [0, pages * 4096, bytes][kind]))
            .collect();
        if !classes.iter().any(|&(n, _, w)| n > 0 && w > 0) {
            classes[0].0 = classes[0].0.max(1);
            classes[0].2 = classes[0].2.max(4096);
        }
        let widths = classes.iter().map(|c| c.2).collect();
        let profiles = classes.into_iter().map(|(n, p, _)| (n, p)).collect();
        (MultiProfileModel::new(&NetworkProfile::gigabit_ethernet(), profiles), widths)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn kernel_matches_formula(
        (model, widths) in layout(),
        reqs in prop::collection::vec((0u64..(1 << 40), 0u64..(8 << 20), any::<bool>()), 1..24),
    ) {
        let kernel = CostKernel::new(&model);
        // A scratch placed first under other widths, as the searches reuse it.
        let mut spans = ClassSpans::default();
        let other: Vec<u64> = widths.iter().map(|w| w + 4096).collect();
        kernel.place(&other, &mut spans);
        kernel.place(&widths, &mut spans);
        for (o, r, read) in reqs {
            let size = if r % 7 == 0 { 0 } else { r };
            let op = if read { OpKind::Read } else { OpKind::Write };
            let want = oracle::plain_cost(&model, o, size, op, &widths);
            let got = kernel.cost(&spans, o, size, op);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "kernel {} vs formula {}", got, want);
            prop_assert_eq!(kernel.request_cost(o, size, op, &widths).to_bits(), want.to_bits());
        }
    }
}
