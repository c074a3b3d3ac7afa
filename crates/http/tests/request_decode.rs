//! The `/v1/score` body decoder against its own encoder, the oracle: any
//! `GroupInput` the emitter writes reads back bit for bit — also with its
//! keys in any order, unknown entries of every shape mixed in and
//! whitespace between tokens — a truncated body is always an error, and no
//! single-byte corruption panics the reader.

use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::{CityId, UserId};
use odnet_core::{CandidateInput, FeatureExtractor, GroupInput, XST_DIM};
use proptest::prelude::*;
use proptest::TestCaseError;
use serde::{Content, Serialize};

/// Float patterns the decoder must not bend: both zeros, both ends of the
/// subnormals, both extremes, and ±`7.038531e-26`, which a parse through
/// an `f64` rounds twice.
const EDGES: [u32; 8] = [
    0x0000_0000,
    0x8000_0000,
    0x0000_0001,
    0x807f_ffff,
    0x7f7f_ffff,
    0xff7f_ffff,
    0x15ae_43fd,
    0x95ae_43fd,
];

/// Bytes a corrupted body may carry instead of the one it had.
const MUTANTS: &[u8] = b"\"\\{}[],:-+.0e9nt x\x01";

/// A finite `f32`: an edge pattern one draw in four, otherwise random bits
/// (a non-finite draw loses its top exponent bit).
fn finite_f32() -> impl Strategy<Value = f32> {
    (0..4 * EDGES.len(), 0u32..=u32::MAX).prop_map(|(pick, bits)| {
        let bits = EDGES.get(pick).copied().unwrap_or(bits);
        let v = f32::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            f32::from_bits(bits & !(1 << 30))
        }
    })
}

fn xst() -> impl Strategy<Value = [f32; XST_DIM]> {
    prop::collection::vec(finite_f32(), XST_DIM)
        .prop_map(|v| v.try_into().expect("XST_DIM values drawn"))
}

fn ids(max: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=u32::MAX, 0..=max)
}

fn cities(max: usize) -> impl Strategy<Value = Vec<CityId>> {
    ids(max).prop_map(|v| v.into_iter().map(CityId).collect())
}

/// Groups of up to `max_candidates` candidates; sequence lengths need not
/// align (admission checks that, not the decoder).
fn group(max_candidates: usize) -> impl Strategy<Value = GroupInput> {
    let candidate = (
        0u32..=u32::MAX,
        0u32..=u32::MAX,
        xst(),
        xst(),
        finite_f32(),
        finite_f32(),
    )
        .prop_map(|(o, d, xst_o, xst_d, label_o, label_d)| CandidateInput {
            origin: CityId(o),
            dest: CityId(d),
            xst_o,
            xst_d,
            label_o,
            label_d,
        });
    (
        (0u32..=u32::MAX, 0u32..=u32::MAX, 0u32..=u32::MAX),
        (cities(12), cities(12), ids(12)),
        (cities(8), cities(8), ids(8)),
        prop::collection::vec(candidate, 0..=max_candidates),
    )
        .prop_map(|((user, day, cc), lt, st, candidates)| GroupInput {
            user: UserId(user),
            day,
            current_city: CityId(cc),
            lt_origins: lt.0,
            lt_dests: lt.1,
            lt_days: lt.2,
            st_origins: st.0,
            st_dests: st.1,
            st_days: st.2,
            candidates,
        })
}

/// SplitMix64: the decoration choices of one case, from one drawn seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// A value no field of the group has, of a random shape.
fn junk(rng: &mut Rng, depth: u32) -> Content {
    let nested = |rng: &mut Rng| -> Vec<Content> {
        (0..rng.below(4)).map(|_| junk(rng, depth + 1)).collect()
    };
    match rng.below(if depth < 3 { 8 } else { 6 }) {
        0 => Content::Null,
        1 => Content::Bool(rng.below(2) == 1),
        2 => Content::U64(u64::MAX - rng.below(3)),
        3 => Content::I64(-(rng.below(1 << 40) as i64)),
        4 => Content::F64(-1.25e-7),
        5 => Content::Str("q\"\\/\n\t\u{1}é😀".into()),
        6 => Content::Seq(nested(rng)),
        _ => Content::Map(
            nested(rng)
                .into_iter()
                .enumerate()
                .map(|(i, v)| (format!("k{i}"), v))
                .collect(),
        ),
    }
}

/// Shuffle every map's entries and mix unknown ones in; sequences keep
/// their order and length.
fn decorate(node: &mut Content, rng: &mut Rng) {
    match node {
        Content::Map(entries) => {
            entries.iter_mut().for_each(|(_, v)| decorate(v, rng));
            for i in 0..rng.below(3) {
                let key = format!("unknown \"{i}\"\té");
                entries.push((key, junk(rng, 0)));
            }
            for i in (1..entries.len()).rev() {
                entries.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        Content::Seq(items) => items.iter_mut().for_each(|v| decorate(v, rng)),
        _ => {}
    }
}

/// `group`'s text, decorated by `seed`: entries shuffled, unknown entries
/// added, whitespace after structural bytes outside strings (never at the
/// end, so every strict prefix stays unclosed).
fn decorated(group: &GroupInput, seed: u64) -> String {
    const WS: [&str; 4] = [" ", "\n", "\t", "\r\n  "];
    let mut rng = Rng(seed);
    let mut tree = group.to_content();
    decorate(&mut tree, &mut rng);
    let compact = serde_json::to_string(&tree).expect("tree serializes");
    let mut out = String::with_capacity(2 * compact.len());
    let (mut in_str, mut escaped) = (false, false);
    for c in compact.chars() {
        out.push(c);
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
        } else if c == '"' {
            in_str = true;
        } else if matches!(c, '{' | '[' | ',' | ':') && rng.below(2) == 0 {
            out.push_str(WS[rng.below(4) as usize]);
        }
    }
    out
}

fn decode(text: &str) -> Result<GroupInput, TestCaseError> {
    serde_json::from_str(text).map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))
}

fn encode(group: &GroupInput) -> String {
    serde_json::to_string(group).expect("group serializes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn any_group_reads_back_bit_exact_in_any_layout(
        group in group(64),
        seed in 0u64..=u64::MAX,
    ) {
        // The printer is injective on `f32` bits, so equal text is equal bits.
        let compact = encode(&group);
        prop_assert_eq!(encode(&decode(&compact)?), compact.clone());
        prop_assert_eq!(encode(&decode(&decorated(&group, seed))?), compact);
    }

    #[test]
    fn every_strict_prefix_is_an_error(group in group(3), seed in 0u64..=u64::MAX) {
        let text = decorated(&group, seed);
        for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
            prop_assert!(
                serde_json::from_str::<GroupInput>(&text[..end]).is_err(),
                "a {end}-byte prefix decoded: {}",
                &text[..end]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn single_byte_mutations_never_panic(
        group in group(2),
        seed in 0u64..=u64::MAX,
        first in 0usize..8,
    ) {
        // Every 8th byte per case; the cases' offsets cover the rest.
        let mut bytes = decorated(&group, seed).into_bytes();
        for at in (first..bytes.len()).step_by(8) {
            let was = bytes[at];
            for &b in MUTANTS {
                bytes[at] = b;
                if let Ok(text) = std::str::from_utf8(&bytes) {
                    let _ = serde_json::from_str::<GroupInput>(text);
                    let _ = serde_json::parse_content(text);
                }
            }
            bytes[at] = was;
        }
    }
}

/// A body the serving featurizer builds, with every edge pattern planted in
/// both `x_st` vectors: it reads back bit for bit, and no prefix reads.
#[test]
fn a_served_body_with_edge_floats_reads_back_and_no_prefix_does() {
    let ds = FliggyDataset::generate(FliggyConfig::tiny());
    let fx = FeatureExtractor::new(12, 8);
    let n = ds.world.num_cities() as u32;
    let pairs: Vec<(CityId, CityId)> = (0..n)
        .flat_map(|o| {
            (0..n)
                .filter(move |&d| d != o)
                .map(move |d| (CityId(o), CityId(d)))
        })
        .take(64)
        .collect();
    let mut group = fx.group_for_serving(&ds, UserId(3), ds.train_end_day(), &pairs);
    for (c, &bits) in group.candidates.iter_mut().zip(EDGES.iter().cycle()) {
        c.xst_o[0] = f32::from_bits(bits);
        c.xst_d[XST_DIM - 1] = f32::from_bits(bits);
    }
    let body = encode(&group);
    let back: GroupInput = serde_json::from_str(&body).expect("body decodes");
    for (got, want) in back.candidates.iter().zip(&group.candidates) {
        assert_eq!(got.xst_o.map(f32::to_bits), want.xst_o.map(f32::to_bits));
        assert_eq!(got.xst_d.map(f32::to_bits), want.xst_d.map(f32::to_bits));
    }
    assert_eq!(encode(&back), body);
    for end in 0..body.len() {
        assert!(
            serde_json::from_str::<GroupInput>(&body[..end]).is_err(),
            "a {end}-byte prefix decoded"
        );
    }
}
