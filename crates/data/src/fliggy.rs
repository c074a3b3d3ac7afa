//! The Fliggy-like OD booking dataset.
//!
//! Substitutes the proprietary 2.6M-user production dataset (paper Table I)
//! with a scaled-down synthetic equivalent rolled out from the ground-truth
//! [`World`]: per-user booking histories over a two-year horizon, short-term
//! click streams in the 7 days before each booking, and training samples in
//! the paper's exact 1 : 4 : 2 mix of positive, partially-negative and fully
//! negative forms.

use crate::stats::TemporalStats;
use crate::world::{Booking, Click, Context, World};
use od_hsg::{CityId, Hsg, HsgBuilder, Interaction, UserId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Generation parameters. Defaults produce a laptop-scale dataset with the
/// same *structure* as Table I (ratios, windows), not the same magnitude.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FliggyConfig {
    /// Number of users to simulate.
    pub num_users: usize,
    /// Number of cities (the paper uses 200 origin + 200 destination; ours
    /// is one shared universe).
    pub num_cities: usize,
    /// Simulation horizon in days (paper: 2 years of long-term behaviour).
    pub horizon_days: u32,
    /// Bookings inside the trailing window become test positives (paper:
    /// bookings of March 2021).
    pub test_window_days: u32,
    /// Click lookback for short-term behaviour (paper: last 7 days).
    pub short_term_days: u32,
    /// Min/max bookings per user over the horizon.
    pub bookings_per_user: (usize, usize),
    /// Min/max clicks generated before each booking.
    pub clicks_per_booking: (usize, usize),
    /// Partially negative samples per positive, split evenly between the
    /// `(O⁺, D⁻)` and `(O⁻, D⁺)` forms (paper: 4).
    pub partial_negatives: usize,
    /// Fully negative `(O⁻, D⁻)` samples per positive (paper: 2).
    pub full_negatives: usize,
    /// Negative OD pairs ranked against each true pair at evaluation time.
    pub eval_negatives: usize,
    /// Gumbel temperature of the booking choice (higher = noisier users).
    pub choice_temperature: f32,
    /// Gumbel temperature of click generation (noisier than bookings).
    pub click_temperature: f32,
    /// Master seed.
    pub seed: u64,
}

impl Default for FliggyConfig {
    fn default() -> Self {
        FliggyConfig {
            num_users: 1000,
            num_cities: 50,
            horizon_days: 720,
            test_window_days: 45,
            short_term_days: 7,
            bookings_per_user: (4, 10),
            clicks_per_booking: (2, 6),
            partial_negatives: 4,
            full_negatives: 2,
            eval_negatives: 49,
            choice_temperature: 1.0,
            click_temperature: 2.5,
            seed: 0xF11667,
        }
    }
}

impl FliggyConfig {
    /// A miniature configuration for fast tests.
    pub fn tiny() -> Self {
        FliggyConfig {
            num_users: 60,
            num_cities: 15,
            horizon_days: 400,
            bookings_per_user: (3, 6),
            eval_negatives: 19,
            ..Self::default()
        }
    }

    /// The paper's production magnitude (Table I): 2.6M users over a 200
    /// origin / 200 destination city universe. Generation is linear in
    /// users (histories, samples, and eval cases all scale per-user; only
    /// the price model is quadratic, and only in the 200 cities), so a
    /// full roll-out fits in memory on a large host — but the intended use
    /// is freezing paper-scale *artifacts*, where only the [`World`]'s
    /// universe sizes matter, not the behavioural roll-out.
    pub fn paper_scale() -> Self {
        FliggyConfig {
            num_users: 2_600_000,
            num_cities: 200,
            ..Self::default()
        }
    }
}

/// A [`World`] handed to [`FliggyDataset::generate_from_world`] whose
/// universe does not match the configuration it is rolled out under.
/// Every downstream index (histories, samples, eval cases) assumes the
/// config's sizes, so the mismatch is rejected up front as a typed error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorldMismatch {
    /// The world holds a different number of users than `config.num_users`.
    Users {
        /// `config.num_users`.
        expected: usize,
        /// `world.num_users()`.
        found: usize,
    },
    /// The world holds a different number of cities than
    /// `config.num_cities`.
    Cities {
        /// `config.num_cities`.
        expected: usize,
        /// `world.num_cities()`.
        found: usize,
    },
}

impl std::fmt::Display for WorldMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldMismatch::Users { expected, found } => write!(
                f,
                "world holds {found} users but the config declares {expected}"
            ),
            WorldMismatch::Cities { expected, found } => write!(
                f,
                "world holds {found} cities but the config declares {expected}"
            ),
        }
    }
}

impl std::error::Error for WorldMismatch {}

/// One labelled training/testing sample: a candidate (O, D) with per-side
/// labels (`label_o` says whether O is the true next origin, `label_d`
/// whether D is the true next destination).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct OdSample {
    /// The booking user.
    pub user: UserId,
    /// Decision day — histories and temporal features are sliced at this day.
    pub day: u32,
    /// Candidate origin.
    pub origin: CityId,
    /// Candidate destination.
    pub dest: CityId,
    /// 1.0 iff `origin` is the true next origin.
    pub label_o: f32,
    /// 1.0 iff `dest` is the true next destination.
    pub label_d: f32,
}

/// A ranking evaluation case: the true next OD pair hidden among sampled
/// negatives (HR@k / MRR@k protocol).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EvalCase {
    /// The booking user.
    pub user: UserId,
    /// Decision day.
    pub day: u32,
    /// Candidate pairs; `candidates[true_index]` is the true pair.
    pub candidates: Vec<(CityId, CityId)>,
    /// Index of the true pair inside `candidates`.
    pub true_index: usize,
}

/// A user's full behavioural record.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct UserHistory {
    /// Time-ordered bookings (long-term behaviour source).
    pub bookings: Vec<Booking>,
    /// Time-ordered clicks (short-term behaviour source).
    pub clicks: Vec<Click>,
}

/// The assembled dataset.
#[derive(Clone, Debug)]
pub struct FliggyDataset {
    /// The generating world (ground truth; used only by the A/B simulator
    /// and diagnostics, never by models).
    pub world: World,
    /// Per-user histories, indexed by user id.
    pub histories: Vec<UserHistory>,
    /// Training samples (decision day before the test window).
    pub train: Vec<OdSample>,
    /// Testing samples (decision day inside the test window).
    pub test: Vec<OdSample>,
    /// Ranking evaluation cases built from test positives.
    pub eval_cases: Vec<EvalCase>,
    /// Temporal statistics built from training-period bookings only.
    pub temporal: TemporalStats,
    /// The generating configuration.
    pub config: FliggyConfig,
}

impl FliggyDataset {
    /// Generate a dataset from the configuration.
    pub fn generate(config: FliggyConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let world = World::generate(config.num_users, config.num_cities, &mut rng);
        Self::generate_from_world(world, config, &mut rng)
            .expect("world generated from the same config")
    }

    /// Roll out a dataset over a caller-supplied world (e.g. a rail
    /// corridor). `config.num_users`/`num_cities` must match the world;
    /// a mismatch is returned as a typed [`WorldMismatch`] instead of
    /// panicking, so callers assembling worlds from external inputs can
    /// surface the error.
    pub fn generate_from_world(
        world: World,
        config: FliggyConfig,
        rng: &mut StdRng,
    ) -> Result<Self, WorldMismatch> {
        if world.num_users() != config.num_users {
            return Err(WorldMismatch::Users {
                expected: config.num_users,
                found: world.num_users(),
            });
        }
        if world.num_cities() != config.num_cities {
            return Err(WorldMismatch::Cities {
                expected: config.num_cities,
                found: world.num_cities(),
            });
        }
        let mut histories = Vec::with_capacity(config.num_users);
        for u in 0..config.num_users {
            histories.push(roll_out_user(&world, UserId(u as u32), &config, rng));
        }
        let train_end = config.horizon_days - config.test_window_days;

        let mut train = Vec::new();
        let mut test = Vec::new();
        let mut eval_cases = Vec::new();
        for (u, hist) in histories.iter().enumerate() {
            let user = UserId(u as u32);
            // Each booking with at least one earlier booking becomes a
            // positive; the first booking has no long-term history to learn
            // from.
            for (i, b) in hist.bookings.iter().enumerate() {
                if i == 0 {
                    continue;
                }
                let positive = OdSample {
                    user,
                    day: b.day,
                    origin: b.origin,
                    dest: b.dest,
                    label_o: 1.0,
                    label_d: 1.0,
                };
                let bucket = if b.day < train_end {
                    &mut train
                } else {
                    &mut test
                };
                bucket.push(positive);
                push_negatives(bucket, &positive, &config, rng);
                if b.day >= train_end {
                    eval_cases.push(make_eval_case(&positive, &world, &config, rng));
                }
            }
        }
        // Temporal statistics must not see the test window.
        let temporal = TemporalStats::from_bookings(
            config.num_cities,
            histories
                .iter()
                .flat_map(|h| h.bookings.iter())
                .filter(|b| b.day < train_end),
        );
        Ok(FliggyDataset {
            world,
            histories,
            train,
            test,
            eval_cases,
            temporal,
            config,
        })
    }

    /// First day of the test window.
    pub fn train_end_day(&self) -> u32 {
        self.config.horizon_days - self.config.test_window_days
    }

    /// Long-term behaviour of `user` visible at `day`: all strictly earlier
    /// bookings (paper: last two years — our whole horizon).
    pub fn long_term(&self, user: UserId, day: u32) -> &[Booking] {
        let bookings = &self.histories[user.index()].bookings;
        let end = bookings.partition_point(|b| b.day < day);
        &bookings[..end]
    }

    /// Short-term behaviour of `user` visible at `day`: clicks within the
    /// configured lookback window (paper: last 7 days).
    pub fn short_term(&self, user: UserId, day: u32) -> &[Click] {
        let clicks = &self.histories[user.index()].clicks;
        let lo = clicks.partition_point(|c| c.day + self.config.short_term_days < day);
        let hi = clicks.partition_point(|c| c.day < day);
        &clicks[lo..hi]
    }

    /// The user's "current city" at decision time — their most recent
    /// destination if they appear mid-trip, otherwise their home city. This
    /// stands in for the paper's LBS-derived current-city feature.
    pub fn current_city(&self, user: UserId, day: u32) -> CityId {
        let lt = self.long_term(user, day);
        match lt.last() {
            Some(b) if day.saturating_sub(b.day) <= 14 => b.dest,
            _ => self.world.users[user.index()].home,
        }
    }

    /// Interactions for building the HSG — training-period bookings only,
    /// so the graph never leaks test-window behaviour.
    pub fn hsg_interactions(&self) -> Vec<Interaction> {
        let train_end = self.train_end_day();
        let mut out = Vec::new();
        for (u, hist) in self.histories.iter().enumerate() {
            for b in &hist.bookings {
                if b.day < train_end {
                    out.push(Interaction {
                        user: UserId(u as u32),
                        origin: b.origin,
                        dest: b.dest,
                    });
                }
            }
        }
        out
    }

    /// Build the Heterogeneous Spatial Graph over this dataset's universe
    /// from [`hsg_interactions`](Self::hsg_interactions) — what every graph
    /// variant trains on and what a checkpoint reload rebuilds.
    pub fn hsg(&self) -> Hsg {
        let coords = self.world.cities.iter().map(|c| c.coords).collect();
        let mut b = HsgBuilder::new(self.world.num_users(), coords);
        for it in self.hsg_interactions() {
            b.add_interaction(it);
        }
        b.build()
    }

    /// Table-I-style statistics of the generated dataset.
    pub fn statistics(&self) -> DatasetStatistics {
        let count = |samples: &[OdSample]| -> (usize, usize, usize, usize) {
            let mut pos = 0;
            let mut partial = 0;
            let mut full = 0;
            for s in samples {
                match (s.label_o > 0.5, s.label_d > 0.5) {
                    (true, true) => pos += 1,
                    (false, false) => full += 1,
                    _ => partial += 1,
                }
            }
            (samples.len(), pos, partial, full)
        };
        let (train_total, train_pos, train_partial, train_full) = count(&self.train);
        let (test_total, test_pos, test_partial, test_full) = count(&self.test);
        let train_users = distinct_users(&self.train);
        let test_users = distinct_users(&self.test);
        DatasetStatistics {
            train_total,
            train_pos,
            train_partial,
            train_full,
            test_total,
            test_pos,
            test_partial,
            test_full,
            train_users,
            test_users,
            num_cities: self.config.num_cities,
        }
    }
}

fn distinct_users(samples: &[OdSample]) -> usize {
    let mut ids: Vec<u32> = samples.iter().map(|s| s.user.0).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len()
}

/// Counts mirroring the rows of the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetStatistics {
    /// Total training samples.
    pub train_total: usize,
    /// Training `(O⁺, D⁺)` samples.
    pub train_pos: usize,
    /// Training `(O⁺, D⁻)` + `(O⁻, D⁺)` samples.
    pub train_partial: usize,
    /// Training `(O⁻, D⁻)` samples.
    pub train_full: usize,
    /// Total testing samples.
    pub test_total: usize,
    /// Testing positives.
    pub test_pos: usize,
    /// Testing partial negatives.
    pub test_partial: usize,
    /// Testing full negatives.
    pub test_full: usize,
    /// Distinct users with training samples.
    pub train_users: usize,
    /// Distinct users with testing samples.
    pub test_users: usize,
    /// City universe size.
    pub num_cities: usize,
}

/// Roll out one user's two-year behaviour.
fn roll_out_user(
    world: &World,
    user: UserId,
    config: &FliggyConfig,
    rng: &mut StdRng,
) -> UserHistory {
    let n_bookings = rng.gen_range(config.bookings_per_user.0..=config.bookings_per_user.1);
    let mut bookings: Vec<Booking> = Vec::with_capacity(n_bookings);
    let mut clicks: Vec<Click> = Vec::new();
    let mut day = rng.gen_range(0..60u32);
    let mut last: Option<Booking> = None;
    // Long (non-return) gaps are sized so a user's bookings span the whole
    // horizon; 40% of gaps are short return-trip intervals (see below).
    let mean_gap = (config.horizon_days / n_bookings.max(1) as u32).max(20);
    let long_mean = (((mean_gap as f32) - 0.4 * 8.0) / 0.6) as u32;
    let (long_lo, long_hi) = (long_mean / 2, long_mean * 3 / 2 + 2);
    for _ in 0..n_bookings {
        if day >= config.horizon_days {
            break;
        }
        let ctx = Context {
            day,
            last_booking: last,
            recent_history: &bookings,
        };
        // Short-term clicks in the week before the booking: noisy draws
        // from the same preference model, so clicks foreshadow the booking.
        let n_clicks = rng.gen_range(config.clicks_per_booking.0..=config.clicks_per_booking.1);
        for _ in 0..n_clicks {
            let click_day = day.saturating_sub(rng.gen_range(1..=config.short_term_days));
            let click_ctx = Context {
                day: click_day,
                last_booking: last,
                recent_history: &bookings,
            };
            let (o, d) = world.sample_choice(user, click_ctx, config.click_temperature, rng);
            clicks.push(Click {
                day: click_day,
                origin: o,
                dest: d,
            });
        }
        let (o, d) = world.sample_choice(user, ctx, config.choice_temperature, rng);
        let booking = Booking {
            day,
            origin: o,
            dest: d,
        };
        // Users usually also click the itinerary they end up booking.
        if rng.gen_bool(0.7) {
            clicks.push(Click {
                day: day.saturating_sub(1),
                origin: o,
                dest: d,
            });
        }
        bookings.push(booking);
        last = Some(booking);
        // Next decision: often a quick return leg (the O&D-unity signal),
        // otherwise a longer horizon-scaled gap.
        day += if rng.gen_bool(0.4) {
            rng.gen_range(2..14)
        } else {
            rng.gen_range(long_lo..long_hi)
        };
    }
    clicks.sort_by_key(|c| c.day);
    UserHistory { bookings, clicks }
}

/// Append the paper's negative forms for one positive: `partial_negatives`
/// split between `(O⁺, D⁻)` and `(O⁻, D⁺)`, plus `full_negatives` of
/// `(O⁻, D⁻)`.
fn push_negatives(
    out: &mut Vec<OdSample>,
    positive: &OdSample,
    config: &FliggyConfig,
    rng: &mut StdRng,
) {
    let n = config.num_cities as u32;
    let mut random_city_except = |avoid: &[CityId]| -> CityId {
        loop {
            let c = CityId(rng.gen_range(0..n));
            if !avoid.contains(&c) {
                return c;
            }
        }
    };
    for i in 0..config.partial_negatives {
        if i % 2 == 0 {
            let d_neg = random_city_except(&[positive.dest, positive.origin]);
            out.push(OdSample {
                dest: d_neg,
                label_d: 0.0,
                ..*positive
            });
        } else {
            let o_neg = random_city_except(&[positive.origin, positive.dest]);
            out.push(OdSample {
                origin: o_neg,
                label_o: 0.0,
                ..*positive
            });
        }
    }
    for _ in 0..config.full_negatives {
        let o_neg = random_city_except(&[positive.origin]);
        let d_neg = random_city_except(&[positive.dest, o_neg]);
        out.push(OdSample {
            origin: o_neg,
            dest: d_neg,
            label_o: 0.0,
            label_d: 0.0,
            ..*positive
        });
    }
}

/// Build an HR/MRR evaluation case: the true pair shuffled among
/// `eval_negatives` distinct corrupted pairs. Half the negatives keep the
/// true origin (hard negatives, the `(O⁺, D⁻)` form) so that the origin
/// feature alone — e.g. "depart from the current city" — cannot identify
/// the truth; the rest corrupt both sides.
fn make_eval_case(
    positive: &OdSample,
    world: &World,
    config: &FliggyConfig,
    rng: &mut StdRng,
) -> EvalCase {
    let n = config.num_cities as u32;
    let truth = (positive.origin, positive.dest);
    let mut candidates = Vec::with_capacity(config.eval_negatives + 1);
    // Popularity-weighted destination sampling: hard negatives are
    // *plausible* cities, not uniform noise, so ranking quality — not just
    // outlier rejection — decides the metrics.
    let pop_total: f32 = world.cities.iter().map(|c| c.popularity).sum();
    let popular_city = |rng: &mut StdRng| -> CityId {
        let mut t = rng.gen_range(0.0..pop_total);
        for c in &world.cities {
            t -= c.popularity;
            if t <= 0.0 {
                return c.id;
            }
        }
        CityId(n - 1)
    };
    while candidates.len() < config.eval_negatives {
        let o = if rng.gen_bool(0.5) {
            positive.origin
        } else {
            CityId(rng.gen_range(0..n))
        };
        let d = if rng.gen_bool(0.5) {
            popular_city(rng)
        } else {
            CityId(rng.gen_range(0..n))
        };
        if o != d && (o, d) != truth && !candidates.contains(&(o, d)) {
            candidates.push((o, d));
        }
    }
    let true_index = rng.gen_range(0..=candidates.len());
    candidates.insert(true_index, truth);
    EvalCase {
        user: positive.user,
        day: positive.day,
        candidates,
        true_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> FliggyDataset {
        FliggyDataset::generate(FliggyConfig::tiny())
    }

    #[test]
    fn sample_mix_matches_table_one_ratios() {
        let ds = dataset();
        let s = ds.statistics();
        assert!(s.train_pos > 0, "no positives generated");
        assert_eq!(s.train_partial, 4 * s.train_pos, "partial ≠ 4× positives");
        assert_eq!(s.train_full, 2 * s.train_pos, "full ≠ 2× positives");
        assert_eq!(s.train_total, 7 * s.train_pos);
        assert_eq!(s.test_partial, 4 * s.test_pos);
        assert_eq!(s.test_full, 2 * s.test_pos);
    }

    #[test]
    fn split_respects_test_window() {
        let ds = dataset();
        let cut = ds.train_end_day();
        assert!(ds.train.iter().all(|s| s.day < cut));
        assert!(ds.test.iter().all(|s| s.day >= cut));
        assert!(!ds.test.is_empty(), "no test samples — enlarge horizon");
    }

    #[test]
    fn histories_are_time_ordered() {
        let ds = dataset();
        for h in &ds.histories {
            assert!(h.bookings.windows(2).all(|w| w[0].day <= w[1].day));
            assert!(h.clicks.windows(2).all(|w| w[0].day <= w[1].day));
        }
    }

    #[test]
    fn long_term_slicing_is_strictly_before_day() {
        let ds = dataset();
        let u = ds.test.first().map(|s| s.user).unwrap_or(UserId(0));
        let all = &ds.histories[u.index()].bookings;
        if let Some(third) = all.get(2) {
            let lt = ds.long_term(u, third.day);
            assert!(lt.iter().all(|b| b.day < third.day));
            // The slice ends exactly where bookings reach `day`.
            assert_eq!(lt.len(), all.partition_point(|b| b.day < third.day));
        }
    }

    #[test]
    fn short_term_window_is_bounded() {
        let ds = dataset();
        for s in ds.test.iter().take(50) {
            for c in ds.short_term(s.user, s.day) {
                assert!(c.day < s.day);
                assert!(c.day + ds.config.short_term_days >= s.day);
            }
        }
    }

    #[test]
    fn eval_cases_contain_truth_once() {
        let ds = dataset();
        assert!(!ds.eval_cases.is_empty());
        for case in &ds.eval_cases {
            assert_eq!(case.candidates.len(), ds.config.eval_negatives + 1);
            let truth = case.candidates[case.true_index];
            assert_eq!(
                case.candidates.iter().filter(|&&c| c == truth).count(),
                1,
                "truth duplicated among negatives"
            );
            // No degenerate pairs.
            assert!(case.candidates.iter().all(|(o, d)| o != d));
        }
    }

    #[test]
    fn hsg_interactions_exclude_test_window() {
        let ds = dataset();
        let cut = ds.train_end_day();
        let interactions = ds.hsg_interactions();
        assert!(!interactions.is_empty());
        // Count bookings before the cut and compare.
        let expected: usize = ds
            .histories
            .iter()
            .map(|h| h.bookings.iter().filter(|b| b.day < cut).count())
            .sum();
        assert_eq!(interactions.len(), expected);
        // The graph built from them spans the dataset's whole universe.
        let hsg = ds.hsg();
        assert_eq!(hsg.num_users(), ds.world.num_users());
        assert_eq!(hsg.num_cities(), ds.world.num_cities());
        assert!(hsg.num_edges() > 0);
    }

    #[test]
    fn current_city_is_home_or_recent_destination() {
        let ds = dataset();
        for s in ds.test.iter().take(30) {
            let cc = ds.current_city(s.user, s.day);
            let home = ds.world.users[s.user.index()].home;
            let recent_dest = ds.long_term(s.user, s.day).last().map(|b| b.dest);
            assert!(cc == home || Some(cc) == recent_dest);
        }
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let a = FliggyDataset::generate(FliggyConfig::tiny());
        let b = FliggyDataset::generate(FliggyConfig::tiny());
        assert_eq!(a.train.len(), b.train.len());
        for (x, y) in a.train.iter().zip(&b.train) {
            assert_eq!(
                (x.user, x.day, x.origin, x.dest),
                (y.user, y.day, y.origin, y.dest)
            );
        }
    }

    #[test]
    fn return_trips_exist_in_histories() {
        // The unity-of-O&D signal: a non-trivial share of consecutive
        // booking pairs must be exact reverses.
        let ds = dataset();
        let mut pairs = 0;
        let mut returns = 0;
        for h in &ds.histories {
            for w in h.bookings.windows(2) {
                pairs += 1;
                if w[1].origin == w[0].dest && w[1].dest == w[0].origin {
                    returns += 1;
                }
            }
        }
        assert!(pairs > 0);
        let share = returns as f64 / pairs as f64;
        assert!(share > 0.1, "return-trip share too small: {share}");
    }

    #[test]
    fn mismatched_world_is_a_typed_error_not_a_panic() {
        let config = FliggyConfig::tiny();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let world = World::generate(config.num_users + 1, config.num_cities, &mut rng);
        match FliggyDataset::generate_from_world(world, config.clone(), &mut rng) {
            Err(WorldMismatch::Users { expected, found }) => {
                assert_eq!(expected, config.num_users);
                assert_eq!(found, config.num_users + 1);
            }
            other => panic!("expected WorldMismatch::Users, got {other:?}"),
        }

        let world = World::generate(config.num_users, config.num_cities + 2, &mut rng);
        match FliggyDataset::generate_from_world(world, config.clone(), &mut rng) {
            Err(WorldMismatch::Cities { expected, found }) => {
                assert_eq!(expected, config.num_cities);
                assert_eq!(found, config.num_cities + 2);
                // The error renders both sides for the operator.
                let msg = WorldMismatch::Cities { expected, found }.to_string();
                assert!(msg.contains(&expected.to_string()) && msg.contains(&found.to_string()));
            }
            other => panic!("expected WorldMismatch::Cities, got {other:?}"),
        }
    }

    #[test]
    fn paper_scale_preset_matches_table_one() {
        let cfg = FliggyConfig::paper_scale();
        assert_eq!(cfg.num_users, 2_600_000);
        assert_eq!(cfg.num_cities, 200);
    }
}
