//! Build provenance stamped by `build.rs`: which crate version, commit,
//! and ISA feature set produced a given artifact. Deterministic for a
//! given binary, so embedding it in reports preserves the cluster
//! byte-identity contract (every topology runs the same build).

/// Short git commit hash of the workspace at compile time, or `"unknown"`
/// outside a git checkout.
pub const GIT_HASH: &str = env!("QISMET_GIT_HASH");

/// Comma-separated enabled target features (e.g. `avx2,fma,...` under
/// `-C target-cpu=native`).
pub const TARGET_FEATURES: &str = env!("QISMET_TARGET_FEATURES");

/// Workspace crate version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// Provenance record for reports and the cluster handshake.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    pub version: String,
    pub git_hash: String,
    pub target_features: String,
    /// Always `false`: the workspace has a single build. Kept so report
    /// `meta`, `metrics_json` and handshake frames keep their field set.
    pub parallel: bool,
}

impl BuildInfo {
    pub fn current() -> Self {
        Self {
            version: VERSION.to_string(),
            git_hash: GIT_HASH.to_string(),
            target_features: TARGET_FEATURES.to_string(),
            parallel: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_is_populated() {
        let b = BuildInfo::current();
        assert!(!b.version.is_empty());
        assert!(!b.git_hash.is_empty());
    }
}
