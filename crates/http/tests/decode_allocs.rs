//! A `/v1/score` body decodes straight into its `GroupInput`: the only
//! allocations are the group's own vectors and their growth, never a value
//! tree (which cost ≈1,200 per 64-candidate body). A counting global
//! allocator pins the bound, so this binary holds this one test alone.

use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::{CityId, UserId};
use odnet_core::{FeatureExtractor, GroupInput, OdnetConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

impl CountingAlloc {
    fn count(&self) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are plain
// statistics and never influence the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations plus reallocations one 64-candidate body may cost.
const MAX_ALLOCS: u64 = 32;

#[test]
fn a_64_candidate_score_body_decodes_in_at_most_32_allocations() {
    let ds = FliggyDataset::generate(FliggyConfig::tiny());
    let cfg = OdnetConfig::default();
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let n = ds.world.num_cities() as u32;
    let pairs: Vec<(CityId, CityId)> = (0..n)
        .flat_map(|o| {
            (0..n)
                .filter(move |&d| d != o)
                .map(move |d| (CityId(o), CityId(d)))
        })
        .take(64)
        .collect();
    // The user with the longest histories: the most vectors to grow.
    let group = (0..ds.world.num_users() as u32)
        .map(|u| fx.group_for_serving(&ds, UserId(u), ds.train_end_day(), &pairs))
        .max_by_key(|g| g.lt_days.len() + g.st_days.len())
        .expect("the tiny dataset has users");
    assert_eq!(group.candidates.len(), 64);
    let body = serde_json::to_string(&group).expect("group serializes");

    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let decoded = serde_json::from_str::<GroupInput>(&body);
    COUNTING.store(false, Ordering::Relaxed);
    let allocs = ALLOCS.load(Ordering::Relaxed);

    let decoded = decoded.expect("body decodes");
    assert_eq!(
        serde_json::to_string(&decoded).expect("group serializes"),
        body,
        "the decoded group is not the encoded one"
    );
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs} allocations decoding one {}-byte body (bound {MAX_ALLOCS})",
        body.len()
    );
}
