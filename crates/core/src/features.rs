//! Shared feature extraction: turning dataset records into model inputs.
//!
//! All models (ODNET, its variants, and the baselines) consume the same
//! [`GroupInput`] structure — one (user, decision-day) context with all the
//! candidate OD pairs scored under it. Grouping matters for speed (the
//! user-side trunk of the network is computed once per group, not once per
//! sample) and mirrors serving, where one request scores many candidates.

use od_data::{CheckinDataset, FliggyDataset, OdSample, Side};
use od_hsg::{CityId, UserId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Width of the `x_st` temporal-statistics vector per candidate city:
/// 4 global city statistics (visit volume over windows) plus 4 per-user
/// statistics (the user's own historical/recent engagement with the city —
/// the paper describes `x_st` as capturing "the temporal preferences of
/// users to cities", which requires the per-user half).
pub const XST_DIM: usize = od_data::TEMPORAL_FEATURES + 4;

/// The `x_st` feature vector of one candidate city.
pub type Xst = [f32; XST_DIM];

/// One candidate OD pair within a group, with its temporal features and
/// per-side labels.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CandidateInput {
    /// Candidate origin city.
    pub origin: CityId,
    /// Candidate destination city.
    pub dest: CityId,
    /// Temporal statistics `x_st` of the candidate origin.
    pub xst_o: Xst,
    /// Temporal statistics `x_st` of the candidate destination.
    pub xst_d: Xst,
    /// 1.0 iff `origin` is the true next origin.
    pub label_o: f32,
    /// 1.0 iff `dest` is the true next destination.
    pub label_d: f32,
}

/// Per-user temporal statistics of a candidate city at decision day `day`:
/// 1. log1p(times the user's long-term history hits the city on this side),
/// 2. whether the most recent long-term event hits it,
/// 3. log1p(times the user's short-term clicks hit it),
/// 4. recency decay `exp(−Δdays/60)` of the last long-term hit.
fn user_city_features(
    lt_side: &[CityId],
    lt_days: &[u32],
    st_side: &[CityId],
    city: CityId,
    day: u32,
) -> [f32; 4] {
    let lt_count = lt_side.iter().filter(|&&c| c == city).count() as f32;
    let is_last = lt_side.last() == Some(&city);
    let st_count = st_side.iter().filter(|&&c| c == city).count() as f32;
    let last_hit_day = lt_side
        .iter()
        .zip(lt_days)
        .rev()
        .find(|(&c, _)| c == city)
        .map(|(_, &d)| d);
    let recency = match last_hit_day {
        Some(d) => (-(day.saturating_sub(d) as f32) / 60.0).exp(),
        None => 0.0,
    };
    [
        lt_count.ln_1p(),
        is_last as u32 as f32,
        st_count.ln_1p(),
        recency,
    ]
}

/// Assemble an [`Xst`] from the global half and the per-user half.
fn assemble_xst(global: [f32; od_data::TEMPORAL_FEATURES], user: [f32; 4]) -> Xst {
    let mut out = [0.0; XST_DIM];
    out[..od_data::TEMPORAL_FEATURES].copy_from_slice(&global);
    out[od_data::TEMPORAL_FEATURES..].copy_from_slice(&user);
    out
}

/// Why a [`GroupInput`] was turned away at the serving edge — the typed
/// admission-control taxonomy of [`validate_group`]. Each variant names the
/// offending field and the bound it violated, so callers can log actionable
/// diagnostics instead of a worker panicking deep inside table indexing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InvalidInput {
    /// The user id does not exist in the model's user universe.
    UserOutOfRange {
        /// Offending user id.
        user: u32,
        /// Users the model was built with.
        num_users: usize,
    },
    /// A city id (current city, history entry, or candidate side) does not
    /// exist in the model's city universe.
    CityOutOfRange {
        /// Which field carried the id.
        field: &'static str,
        /// Offending city id.
        city: u32,
        /// Cities the model was built with.
        num_cities: usize,
    },
    /// A history city sequence and its aligned day sequence disagree in
    /// length.
    MisalignedSequence {
        /// Which pair of fields disagrees.
        field: &'static str,
        /// City-sequence length.
        cities: usize,
        /// Day-sequence length.
        days: usize,
    },
    /// A history sequence exceeds the length the model was trained with —
    /// rejecting it bounds per-request compute at the admission edge.
    SequenceTooLong {
        /// Which field is oversized.
        field: &'static str,
        /// Submitted length.
        len: usize,
        /// Maximum the model accepts.
        max: usize,
    },
    /// A candidate's temporal feature vector carries NaN or ±∞, which would
    /// silently propagate into every score of its group.
    NonFiniteFeature {
        /// Index of the offending candidate.
        candidate: usize,
    },
}

impl std::fmt::Display for InvalidInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InvalidInput::UserOutOfRange { user, num_users } => {
                write!(
                    f,
                    "user id {user} out of range (model has {num_users} users)"
                )
            }
            InvalidInput::CityOutOfRange {
                field,
                city,
                num_cities,
            } => write!(
                f,
                "city id {city} in {field} out of range (model has {num_cities} cities)"
            ),
            InvalidInput::MisalignedSequence {
                field,
                cities,
                days,
            } => write!(f, "{field}: {cities} cities but {days} aligned day entries"),
            InvalidInput::SequenceTooLong { field, len, max } => {
                write!(f, "{field} holds {len} entries, model maximum is {max}")
            }
            InvalidInput::NonFiniteFeature { candidate } => {
                write!(f, "candidate {candidate} carries non-finite x_st features")
            }
        }
    }
}

impl std::error::Error for InvalidInput {}

/// Validate one scoring request against a model universe of `num_users` ×
/// `num_cities` and the trained sequence limits. `Ok(())` guarantees the
/// frozen forward will not panic on this input (the `validated == scored`
/// property test in `tests/proptest_validate.rs`).
pub fn validate_group(
    group: &GroupInput,
    num_users: usize,
    num_cities: usize,
    max_long: usize,
    max_short: usize,
) -> Result<(), InvalidInput> {
    if group.user.index() >= num_users {
        return Err(InvalidInput::UserOutOfRange {
            user: group.user.0,
            num_users,
        });
    }
    let city_ok = |field: &'static str, cities: &[CityId]| -> Result<(), InvalidInput> {
        for c in cities {
            if c.index() >= num_cities {
                return Err(InvalidInput::CityOutOfRange {
                    field,
                    city: c.0,
                    num_cities,
                });
            }
        }
        Ok(())
    };
    city_ok("current_city", std::slice::from_ref(&group.current_city))?;
    for (field, cities, days, max) in [
        ("lt_origins", &group.lt_origins, &group.lt_days, max_long),
        ("lt_dests", &group.lt_dests, &group.lt_days, max_long),
        ("st_origins", &group.st_origins, &group.st_days, max_short),
        ("st_dests", &group.st_dests, &group.st_days, max_short),
    ] {
        if cities.len() != days.len() {
            return Err(InvalidInput::MisalignedSequence {
                field,
                cities: cities.len(),
                days: days.len(),
            });
        }
        if cities.len() > max {
            return Err(InvalidInput::SequenceTooLong {
                field,
                len: cities.len(),
                max,
            });
        }
        city_ok(field, cities)?;
    }
    for (i, cand) in group.candidates.iter().enumerate() {
        city_ok("candidate origin", std::slice::from_ref(&cand.origin))?;
        city_ok("candidate dest", std::slice::from_ref(&cand.dest))?;
        if !cand.xst_o.iter().chain(&cand.xst_d).all(|v| v.is_finite()) {
            return Err(InvalidInput::NonFiniteFeature { candidate: i });
        }
    }
    Ok(())
}

/// One (user, day) decision context with its candidates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GroupInput {
    /// The deciding user.
    pub user: UserId,
    /// Decision day.
    pub day: u32,
    /// The user's current city (LBS feature).
    pub current_city: CityId,
    /// Long-term booked *origin* city sequence (most recent last, truncated).
    pub lt_origins: Vec<CityId>,
    /// Long-term booked *destination* city sequence.
    pub lt_dests: Vec<CityId>,
    /// Days of the long-term events (aligned with `lt_origins`/`lt_dests`) —
    /// the RNN baselines' temporal gates consume inter-event intervals.
    pub lt_days: Vec<u32>,
    /// Short-term clicked origin city sequence.
    pub st_origins: Vec<CityId>,
    /// Short-term clicked destination city sequence.
    pub st_dests: Vec<CityId>,
    /// Days of the short-term events (aligned with `st_*`).
    pub st_days: Vec<u32>,
    /// Candidate OD pairs to score.
    pub candidates: Vec<CandidateInput>,
}

/// Extracts [`GroupInput`]s from datasets under sequence-length limits.
#[derive(Clone, Copy, Debug)]
pub struct FeatureExtractor {
    /// Maximum long-term sequence length (keep the most recent).
    pub max_long: usize,
    /// Maximum short-term sequence length.
    pub max_short: usize,
}

impl FeatureExtractor {
    /// New extractor with the given truncation limits.
    pub fn new(max_long: usize, max_short: usize) -> Self {
        assert!(max_long > 0 && max_short > 0, "limits must be positive");
        FeatureExtractor {
            max_long,
            max_short,
        }
    }

    /// Build the user-side context of a group (no candidates yet).
    fn context(&self, ds: &FliggyDataset, user: UserId, day: u32) -> GroupInput {
        let lt = ds.long_term(user, day);
        let st = ds.short_term(user, day);
        let tail = |n: usize, len: usize| len.saturating_sub(n);
        let lt_tail = &lt[tail(self.max_long, lt.len())..];
        let st_tail = &st[tail(self.max_short, st.len())..];
        GroupInput {
            user,
            day,
            current_city: ds.current_city(user, day),
            lt_origins: lt_tail.iter().map(|b| b.origin).collect(),
            lt_dests: lt_tail.iter().map(|b| b.dest).collect(),
            lt_days: lt_tail.iter().map(|b| b.day).collect(),
            st_origins: st_tail.iter().map(|c| c.origin).collect(),
            st_dests: st_tail.iter().map(|c| c.dest).collect(),
            st_days: st_tail.iter().map(|c| c.day).collect(),
            candidates: Vec::new(),
        }
    }

    fn candidate(
        &self,
        ds: &FliggyDataset,
        ctx: &GroupInput,
        origin: CityId,
        dest: CityId,
        label_o: f32,
        label_d: f32,
    ) -> CandidateInput {
        let day = ctx.day;
        CandidateInput {
            origin,
            dest,
            xst_o: assemble_xst(
                ds.temporal.features(origin, Side::Origin, day),
                user_city_features(&ctx.lt_origins, &ctx.lt_days, &ctx.st_origins, origin, day),
            ),
            xst_d: assemble_xst(
                ds.temporal.features(dest, Side::Dest, day),
                user_city_features(&ctx.lt_dests, &ctx.lt_days, &ctx.st_dests, dest, day),
            ),
            label_o,
            label_d,
        }
    }

    /// Group labelled samples by (user, day) into training inputs.
    pub fn groups_from_samples(&self, ds: &FliggyDataset, samples: &[OdSample]) -> Vec<GroupInput> {
        let mut index: HashMap<(u32, u32), usize> = HashMap::new();
        let mut groups: Vec<GroupInput> = Vec::new();
        for s in samples {
            let key = (s.user.0, s.day);
            let gi = *index.entry(key).or_insert_with(|| {
                groups.push(self.context(ds, s.user, s.day));
                groups.len() - 1
            });
            let cand = self.candidate(ds, &groups[gi], s.origin, s.dest, s.label_o, s.label_d);
            groups[gi].candidates.push(cand);
        }
        groups
    }

    /// Build one scoring group from an evaluation case (labels are not used
    /// for scoring; they encode which candidate is the truth).
    pub fn group_from_eval_case(&self, ds: &FliggyDataset, case: &od_data::EvalCase) -> GroupInput {
        let mut g = self.context(ds, case.user, case.day);
        for (i, &(o, d)) in case.candidates.iter().enumerate() {
            let is_true = i == case.true_index;
            let cand = self.candidate(ds, &g, o, d, is_true as u32 as f32, is_true as u32 as f32);
            g.candidates.push(cand);
        }
        g
    }

    /// Build one ad-hoc scoring group for serving: arbitrary candidate pairs
    /// under the user's current context.
    pub fn group_for_serving(
        &self,
        ds: &FliggyDataset,
        user: UserId,
        day: u32,
        candidates: &[(CityId, CityId)],
    ) -> GroupInput {
        let mut g = self.context(ds, user, day);
        g.candidates.reserve_exact(candidates.len());
        for &(o, d) in candidates {
            let cand = self.candidate(ds, &g, o, d, 0.0, 0.0);
            g.candidates.push(cand);
        }
        g
    }

    // ---- LBSN (check-in) extraction --------------------------------------

    /// Context for a check-in dataset: destination-only histories. The
    /// "origin" side is the *previous POI* sequence (how STOD-PPA frames
    /// origin-aware POI recommendation); candidates pair the user's last
    /// POI as origin with the candidate POI as destination.
    fn checkin_context(&self, ds: &CheckinDataset, user: UserId, day: u32) -> GroupInput {
        let hist = ds.history_before(user, day);
        let pois: Vec<CityId> = hist.iter().map(|c| c.poi).collect();
        let days: Vec<u32> = hist.iter().map(|c| c.day).collect();
        let tail = |n: usize, len: usize| len.saturating_sub(n);
        let lt_cut = tail(self.max_long, pois.len());
        let lt_dests: Vec<CityId> = pois[lt_cut..].to_vec();
        let lt_days: Vec<u32> = days[lt_cut..].to_vec();
        // Previous-POI sequence: shift by one (the origin of visit i is
        // visit i−1). The first visit has no origin and is dropped.
        let lt_origins: Vec<CityId> = if pois.len() >= 2 {
            let shifted = &pois[..pois.len() - 1];
            shifted[tail(self.max_long, shifted.len())..].to_vec()
        } else {
            Vec::new()
        };
        let st_cut = tail(self.max_short, pois.len());
        let st_dests: Vec<CityId> = pois[st_cut..].to_vec();
        let st_days: Vec<u32> = days[st_cut..].to_vec();
        let current = pois.last().copied().unwrap_or(CityId(0));
        GroupInput {
            user,
            day,
            current_city: current,
            lt_origins,
            lt_dests,
            lt_days,
            st_origins: Vec::new(),
            st_dests,
            st_days,
            candidates: Vec::new(),
        }
    }

    /// Group check-in training samples by (user, day).
    pub fn checkin_groups(
        &self,
        ds: &CheckinDataset,
        samples: &[od_data::PoiSample],
    ) -> Vec<GroupInput> {
        let mut index: HashMap<(u32, u32), usize> = HashMap::new();
        let mut groups: Vec<GroupInput> = Vec::new();
        for s in samples {
            let key = (s.user.0, s.day);
            let gi = *index.entry(key).or_insert_with(|| {
                groups.push(self.checkin_context(ds, s.user, s.day));
                groups.len() - 1
            });
            let ctx = &groups[gi];
            let origin = ctx.current_city;
            let xst_d = assemble_xst(
                [0.0; od_data::TEMPORAL_FEATURES],
                user_city_features(&ctx.lt_dests, &ctx.lt_days, &ctx.st_dests, s.poi, s.day),
            );
            groups[gi].candidates.push(CandidateInput {
                origin,
                dest: s.poi,
                xst_o: [0.0; XST_DIM],
                xst_d,
                label_o: s.label,
                label_d: s.label,
            });
        }
        groups
    }

    /// Build one scoring group from a check-in evaluation case.
    pub fn checkin_eval_group(
        &self,
        ds: &CheckinDataset,
        case: &od_data::PoiEvalCase,
    ) -> GroupInput {
        let mut g = self.checkin_context(ds, case.user, case.day);
        let origin = g.current_city;
        for (i, &poi) in case.candidates.iter().enumerate() {
            let label = (i == case.true_index) as u32 as f32;
            let xst_d = assemble_xst(
                [0.0; od_data::TEMPORAL_FEATURES],
                user_city_features(&g.lt_dests, &g.lt_days, &g.st_dests, poi, case.day),
            );
            g.candidates.push(CandidateInput {
                origin,
                dest: poi,
                xst_o: [0.0; XST_DIM],
                xst_d,
                label_o: label,
                label_d: label,
            });
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_data::{CheckinConfig, FliggyConfig};

    fn fliggy() -> FliggyDataset {
        FliggyDataset::generate(FliggyConfig::tiny())
    }

    #[test]
    fn groups_collect_all_samples() {
        let ds = fliggy();
        let fx = FeatureExtractor::new(8, 5);
        let groups = fx.groups_from_samples(&ds, &ds.train);
        let total: usize = groups.iter().map(|g| g.candidates.len()).sum();
        assert_eq!(total, ds.train.len());
        // Every group carries the paper's 7-sample bundle (1 pos + 4 partial
        // + 2 full) — unless two bookings collide on the same day.
        assert!(groups.iter().all(|g| g.candidates.len() % 7 == 0));
    }

    #[test]
    fn sequences_respect_truncation_and_order() {
        let ds = fliggy();
        let fx = FeatureExtractor::new(3, 2);
        let groups = fx.groups_from_samples(&ds, &ds.train);
        for g in &groups {
            assert!(g.lt_origins.len() <= 3);
            assert!(g.st_dests.len() <= 2);
            assert_eq!(g.lt_origins.len(), g.lt_dests.len());
            // Truncation keeps the most recent bookings.
            let lt = ds.long_term(g.user, g.day);
            if lt.len() >= 3 {
                assert_eq!(g.lt_dests.last().copied(), lt.last().map(|b| b.dest));
            }
        }
    }

    #[test]
    fn eval_group_labels_mark_only_truth() {
        let ds = fliggy();
        let fx = FeatureExtractor::new(8, 5);
        let case = &ds.eval_cases[0];
        let g = fx.group_from_eval_case(&ds, case);
        assert_eq!(g.candidates.len(), case.candidates.len());
        let positives: Vec<usize> = g
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.label_o > 0.5)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(positives, vec![case.true_index]);
    }

    #[test]
    fn serving_group_has_unlabelled_candidates() {
        let ds = fliggy();
        let fx = FeatureExtractor::new(8, 5);
        let pairs = [(CityId(0), CityId(1)), (CityId(2), CityId(3))];
        let g = fx.group_for_serving(&ds, UserId(0), ds.train_end_day(), &pairs);
        assert_eq!(g.candidates.len(), 2);
        assert!(g.candidates.iter().all(|c| c.label_o == 0.0));
        assert_eq!(g.candidates[1].origin, CityId(2));
    }

    #[test]
    fn checkin_context_shifts_origin_sequence() {
        let ds = CheckinDataset::generate(CheckinConfig::tiny());
        let fx = FeatureExtractor::new(6, 3);
        // Find a user with ≥ 3 check-ins and form the context at the last
        // check-in day.
        let (u, hist) = ds
            .histories
            .iter()
            .enumerate()
            .find(|(_, h)| h.len() >= 3)
            .expect("some user has 3+ check-ins");
        let day = hist.last().unwrap().day;
        let g = fx.checkin_context(&ds, UserId(u as u32), day);
        // Origins are the destinations shifted by one.
        assert_eq!(g.lt_origins.len() + 1, g.lt_dests.len().max(1));
        assert!(g.st_origins.is_empty());
        // Current city is the most recent visible POI.
        let visible = ds.history_before(UserId(u as u32), day);
        assert_eq!(g.current_city, visible.last().unwrap().poi);
    }

    #[test]
    fn checkin_eval_group_is_well_formed() {
        let ds = CheckinDataset::generate(CheckinConfig::tiny());
        let fx = FeatureExtractor::new(6, 3);
        let case = &ds.eval_cases[0];
        let g = fx.checkin_eval_group(&ds, case);
        assert_eq!(g.candidates.len(), case.candidates.len());
        assert_eq!(g.candidates.iter().filter(|c| c.label_d > 0.5).count(), 1);
        // All candidates share the same origin (the user's location).
        assert!(g.candidates.iter().all(|c| c.origin == g.current_city));
    }

    #[test]
    #[should_panic(expected = "limits must be positive")]
    fn rejects_zero_limits() {
        FeatureExtractor::new(0, 5);
    }
}
