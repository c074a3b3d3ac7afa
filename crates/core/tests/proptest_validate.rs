//! Property test of the admission-validation contract: on well-formed
//! request shapes (aligned sequence lengths within the configured maxima,
//! finite features), `validate_group` accepts a group **iff** the frozen
//! forward scores it without panicking. This is the guarantee the serving
//! engine's admission edge relies on — `Ok(())` means no worker will hit
//! an out-of-range table row.
//!
//! Ids, by contrast, are drawn from *twice* their valid ranges, so about
//! half the generated groups are invalid in some way.
//!
//! One asymmetry: a candidate-free group short-circuits `score_group`
//! (it returns empty before touching any table), so for those only the
//! soundness direction (`validated → scores without panicking`) holds —
//! validation still rejects bad ids a later non-empty request would trip
//! over.

use odnet_core::{FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant, XST_DIM};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

fn frozen() -> &'static FrozenOdNet {
    static FIX: OnceLock<FrozenOdNet> = OnceLock::new();
    FIX.get_or_init(|| {
        let ds = od_data::FliggyDataset::generate(od_data::FliggyConfig::tiny());
        OdNetModel::new(
            Variant::Odnet,
            OdnetConfig::tiny(),
            ds.world.num_users(),
            ds.world.num_cities(),
            Some(ds.hsg()),
        )
        .freeze()
    })
}

/// An aligned (origins, dests, days) sequence triple of length `0..=max`,
/// with city ids drawn from twice the valid range.
fn seq_triple(
    city_bound: u32,
    max: usize,
) -> impl Strategy<Value = (Vec<od_hsg::CityId>, Vec<od_hsg::CityId>, Vec<u32>)> {
    prop::collection::vec((0..city_bound, 0..city_bound, 0u32..400), 0..=max).prop_map(|v| {
        let origins = v.iter().map(|&(o, _, _)| od_hsg::CityId(o)).collect();
        let dests = v.iter().map(|&(_, d, _)| od_hsg::CityId(d)).collect();
        let days = v.iter().map(|&(_, _, t)| t).collect();
        (origins, dests, days)
    })
}

fn group_strategy() -> impl Strategy<Value = GroupInput> {
    let m = frozen();
    let user_bound = (2 * m.num_users()) as u32;
    let city_bound = (2 * m.num_cities()) as u32;
    let cfg = m.config();
    let candidate = (0..city_bound, 0..city_bound, -1.0f32..1.0).prop_map(|(o, d, x)| {
        odnet_core::CandidateInput {
            origin: od_hsg::CityId(o),
            dest: od_hsg::CityId(d),
            xst_o: [x; XST_DIM],
            xst_d: [-x; XST_DIM],
            label_o: 0.0,
            label_d: 1.0,
        }
    });
    (
        0..user_bound,
        0u32..400,
        0..city_bound,
        seq_triple(city_bound, cfg.max_long_seq),
        seq_triple(city_bound, cfg.max_short_seq),
        prop::collection::vec(candidate, 0..4),
    )
        .prop_map(|(user, day, cc, lt, st, candidates)| GroupInput {
            user: od_hsg::UserId(user),
            day,
            current_city: od_hsg::CityId(cc),
            lt_origins: lt.0,
            lt_dests: lt.1,
            lt_days: lt.2,
            st_origins: st.0,
            st_dests: st.1,
            st_days: st.2,
            candidates,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn validated_iff_scorable(group in group_strategy()) {
        let m = frozen();
        let validated = m.validate_group(&group).is_ok();
        // Expected panics (index out of range) would spam stderr through
        // the default hook; silence it around the probe.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let scored = catch_unwind(AssertUnwindSafe(|| m.score_group(&group))).is_ok();
        std::panic::set_hook(prev);
        if validated {
            prop_assert!(scored, "validate_group accepted a group that panics: {:?}", &group);
        } else if !group.candidates.is_empty() {
            prop_assert!(
                !scored,
                "validate_group rejected a group the forward scores fine: {:?}",
                &group
            );
        }
    }
}
