//! The JSON wire protocol (DESIGN.md §15).
//!
//! Bodies are the serde types below, streamed by their derived
//! `Serialize` impls through the vendored `serde_json`'s one emitter
//! straight into the connection's output buffer, and read by their derived
//! `Deserialize` impls straight from the request bytes — there is no
//! hand-written per-type codec to keep in step with them, and no value tree
//! in between.
//!
//! The float contract is `serde_json`'s: an `f32` prints as the shortest
//! decimal that reads back as the same `f32` (exact ties go up), never in
//! exponent form — byte-for-byte what `Display` prints — and reads back by
//! parsing its own token as an `f32`, `-0` keeping its sign. So an `f32`
//! survives encode → decode **bit-exactly**, for all 2³² patterns.
//! `vendor/serde_json/tests/f32_format.rs` sweeps all of them,
//! `tests/wire.rs` pins these bodies' bytes, `tests/request_decode.rs`
//! checks the decoder against the encoder, and the bit-exactness
//! assertions in `tests/chaos.rs` lean on all three.

use od_serve::ArtifactVersion;

/// `POST /v1/score` request body is [`odnet_core::GroupInput`] itself —
/// the same serde shape `odnet score --group` reads from disk.
///
/// `POST /v1/score` 200 body: per-candidate probabilities plus the
/// generation that scored them.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct ScoreResponse {
    /// Per-candidate `(p^O, p^D)`, in candidate order.
    pub scores: Vec<(f32, f32)>,
    /// Publish epoch of the generation that scored this request.
    pub epoch: u64,
    /// Artifact checksum of that generation.
    pub checksum: u32,
}

/// `POST /v1/recommend` request body.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct RecommendRequest {
    /// User to recommend for (must be inside the artifact universe).
    pub user: u64,
    /// How many OD pairs to return.
    pub k: usize,
}

/// `POST /v1/recommend` 200 body.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct RecommendResponse {
    /// Pairs in final rank order.
    pub pairs: Vec<WirePair>,
    /// Generation whose tables produced the candidate set.
    pub retrieved_by: WireVersion,
    /// Generation whose ranker scored it (can differ mid-swap).
    pub ranked_by: WireVersion,
}

/// One ranked OD pair on the wire.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct WirePair {
    /// Origin city id.
    pub origin: u32,
    /// Destination city id.
    pub dest: u32,
    /// Separable retrieval-stage score.
    pub retrieval_score: f32,
    /// Ranker origin-task probability `p^O`.
    pub p_origin: f32,
    /// Ranker destination-task probability `p^D`.
    pub p_dest: f32,
    /// Final blended rank key.
    pub rank_score: f32,
}

/// An artifact generation stamp on the wire.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct WireVersion {
    /// Publish epoch.
    pub epoch: u64,
    /// Artifact checksum.
    pub checksum: u32,
}

impl From<ArtifactVersion> for WireVersion {
    fn from(v: ArtifactVersion) -> WireVersion {
        WireVersion {
            epoch: v.epoch,
            checksum: v.checksum,
        }
    }
}

/// Non-2xx JSON body: one machine-readable reason string.
#[derive(Debug, serde::Serialize, serde::Deserialize)]
pub struct ErrorBody {
    /// What went wrong, e.g. `"backpressure"` or `"deadline exceeded"`.
    pub error: String,
}
