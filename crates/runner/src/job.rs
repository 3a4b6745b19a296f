//! The unit of campaign work: one pure simulation cell.

use std::path::PathBuf;

use crate::hash::JobKey;

/// One cell of a simulation campaign.
///
/// A job is a *pure* function of its descriptor: the closure must derive
/// everything that influences its output (scenario parameters, seeds,
/// durations, code version) from values that are also spelled out in the
/// descriptor string. That contract is what makes the content-hash key a
/// valid cache identity — two jobs with equal descriptors must produce
/// byte-identical payloads.
///
/// The payload is an arbitrary string; experiments typically encode a flat
/// list of floats with [`crate::payload::encode_floats`] so results
/// round-trip losslessly through the disk cache.
pub struct SimJob {
    key: JobKey,
    descriptor: String,
    label: String,
    artifacts: Vec<PathBuf>,
    run: Box<dyn FnOnce() -> String + Send>,
}

impl SimJob {
    /// Creates a job. `descriptor` is the content identity (see type-level
    /// docs); `label` is a short human-readable name used in progress
    /// output.
    pub fn new(
        descriptor: impl Into<String>,
        label: impl Into<String>,
        run: impl FnOnce() -> String + Send + 'static,
    ) -> Self {
        let descriptor = descriptor.into();
        Self {
            key: JobKey::from_descriptor(&descriptor),
            descriptor,
            label: label.into(),
            artifacts: Vec::new(),
            run: Box::new(run),
        }
    }

    /// Declares a side-effect file the job writes in addition to its
    /// payload (e.g. a decision-trace export). Declared artifacts become
    /// part of the cache contract: a cache hit rewrites every artifact to
    /// its declared path from the stored copy (*replay*), and a hit whose
    /// stored artifacts are incomplete is demoted to a miss so the job
    /// re-executes and regenerates them. Artifact file *contents* must be a
    /// pure function of the descriptor, like the payload; the paths
    /// themselves may differ between runs (they are not part of the key).
    pub fn with_artifact(mut self, path: impl Into<PathBuf>) -> Self {
        self.artifacts.push(path.into());
        self
    }

    /// The declared side-effect files, in declaration order.
    pub fn artifacts(&self) -> &[PathBuf] {
        &self.artifacts
    }

    /// The job's stable content-hash key.
    pub fn key(&self) -> JobKey {
        self.key
    }

    /// The content descriptor the key was derived from.
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }

    /// Short human-readable job name.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Runs the job, consuming it.
    pub fn execute(self) -> String {
        (self.run)()
    }
}

impl std::fmt::Debug for SimJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimJob")
            .field("key", &self.key)
            .field("descriptor", &self.descriptor)
            .field("label", &self.label)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_matches_descriptor_hash() {
        let j = SimJob::new("exp/a=1", "a1", || "42".to_string());
        assert_eq!(j.key(), JobKey::from_descriptor("exp/a=1"));
        assert_eq!(j.label(), "a1");
        assert_eq!(j.descriptor(), "exp/a=1");
        assert_eq!(j.execute(), "42");
    }
}
