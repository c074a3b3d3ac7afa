//! Serving-side artifact loading: `.odz` is the one serving format,
//! loaded owned or mmap'd, instrumented for cold-start observability.
//!
//! The serving cold-start path is the time between "process starts" and
//! "first request scored" — at paper scale it is dominated by artifact
//! loading, which is exactly what the `.odz` mmap path collapses (see
//! `odnet_core::artifact` and DESIGN.md §12). [`load_frozen`] wraps the
//! two load modes and records what happened into the process-global
//! [`od_obs`] registry:
//!
//! | series | kind | meaning |
//! |---|---|---|
//! | `od_artifact_load_ns` | gauge | wall time of the last artifact load |
//! | `od_artifact_bytes` | gauge | on-disk size of the last loaded artifact |
//! | `od_artifact_loads_total{mode=…}` | counter | loads by mode (bin/mmap) |
//!
//! `GET /metrics` of `odnet serve --artifact` renders these next to the
//! engine series, so a deployment can tell at a glance whether a replica
//! cold-started from the zero-copy path or from the audited owned read.

use odnet_core::{read_odz_checksum, CheckpointError, FrozenOdNet};
use std::path::Path;
use std::time::Instant;

/// How [`load_frozen`] brings an `.odz` file into memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactMode {
    /// Read an `.odz` binary with full checksum + finiteness audit
    /// (owned tables).
    Bin,
    /// Zero-copy mmap of an `.odz` binary (borrowed tables, lazy pages).
    Mmap,
}

impl ArtifactMode {
    /// Metric label / CLI name of the mode.
    pub fn name(self) -> &'static str {
        match self {
            ArtifactMode::Bin => "bin",
            ArtifactMode::Mmap => "mmap",
        }
    }
}

/// A loaded serving artifact plus its content checksum — everything
/// [`Engine::new_versioned`](crate::Engine::new_versioned) and
/// [`Engine::publish_versioned`](crate::Engine::publish_versioned) need to
/// identify the generation they install.
#[derive(Debug)]
pub struct LoadedArtifact {
    /// The artifact, ready to serve (wrap in an `Arc` for the engine).
    pub frozen: FrozenOdNet,
    /// FNV-1a content checksum: the `.odz` header's meta checksum (covers
    /// config/θ/weights and the table directory with its per-table FNVs —
    /// read without faulting a single table page).
    pub checksum: u32,
    /// Which load mode produced it.
    pub mode: ArtifactMode,
}

/// Load an `.odz` artifact for serving, recording cold-start gauges and
/// deriving the artifact's content checksum. Anything that is not an
/// `.odz` file fails the magic check with a typed
/// [`CheckpointError::Binary`].
///
/// The returned artifact is ready to hand to
/// [`Engine::new_versioned`](crate::Engine::new_versioned) behind an
/// `Arc`; for the mmap mode the first scores will fault pages in on
/// demand, which is the point.
pub fn load_frozen(path: &Path, mode: ArtifactMode) -> Result<LoadedArtifact, CheckpointError> {
    let start = Instant::now();
    let frozen = match mode {
        ArtifactMode::Bin => FrozenOdNet::load_bin(path)?,
        ArtifactMode::Mmap => FrozenOdNet::load_bin_mmap(path)?,
    };
    let checksum = read_odz_checksum(path)?;
    let elapsed_ns = start.elapsed().as_nanos().min(i64::MAX as u128) as i64;
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let reg = od_obs::global();
    reg.gauge(
        "od_artifact_load_ns",
        "wall time of the last serving artifact load",
    )
    .set(elapsed_ns);
    reg.gauge(
        "od_artifact_bytes",
        "on-disk size of the last loaded serving artifact",
    )
    .set(bytes.min(i64::MAX as u64) as i64);
    reg.counter_with(
        "od_artifact_loads_total",
        "artifact loads by mode",
        &[("mode", mode.name())],
    )
    .inc();
    Ok(LoadedArtifact {
        frozen,
        checksum,
        mode,
    })
}

/// [`load_frozen`] in the serving default mode, zero-copy mmap — the one
/// entry point the CLI and the online loop share.
pub fn load_frozen_auto(path: &Path) -> Result<LoadedArtifact, CheckpointError> {
    load_frozen(path, ArtifactMode::Mmap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = load_frozen(Path::new("/nonexistent/model.odz"), ArtifactMode::Mmap)
            .expect_err("missing file must fail");
        assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
    }
}
