//! Content-addressed disk cache for job results.
//!
//! Each completed job's payload is stored at `<dir>/<key-hex>.job` together
//! with the full descriptor, so a warm `repro` re-run loads finished cells
//! from disk and only simulates cells whose parameters (descriptor — and
//! therefore key) changed. The files are plain text for easy inspection.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::JobKey;

const MAGIC: &str = "proteus-runner-cache v2";

/// A directory of cached job payloads, keyed by [`JobKey`].
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, key: JobKey) -> PathBuf {
        self.dir.join(format!("{}.job", key.hex()))
    }

    fn artifact_path(&self, key: JobKey, index: usize) -> PathBuf {
        self.dir.join(format!("{}.a{index}", key.hex()))
    }

    /// Reads one entry file: magic, descriptor, body byte length, `---`,
    /// body. Anything that does not match — an entry of an older format, a
    /// different descriptor (hash-scheme change or collision), or a body
    /// shorter or longer than its recorded length (a torn or truncated
    /// write) — is a miss. The body is returned in the `String` the file
    /// was read into, the header drained off its front: one allocation.
    fn read_entry(path: &Path, descriptor: &str) -> Option<String> {
        let mut text = fs::read_to_string(path).ok()?;
        let mut lines = text.splitn(5, '\n');
        if lines.next() != Some(MAGIC) || lines.next() != Some(descriptor) {
            return None;
        }
        let len: usize = lines.next()?.parse().ok()?;
        if lines.next() != Some("---") || lines.next().unwrap_or("").len() != len {
            return None;
        }
        text.drain(..text.len() - len);
        Some(text)
    }

    /// Writes one entry file through a temporary name unique to this
    /// process and write, then renames it into place: readers never observe
    /// a partial entry, and two processes sharing the directory never write
    /// through the same temporary. Failures are silently ignored (a cache
    /// must never fail the campaign).
    fn write_entry(&self, path: &Path, descriptor: &str, body: &str) {
        static WRITES: AtomicU64 = AtomicU64::new(0);
        debug_assert!(!descriptor.contains('\n'), "descriptor must be one line");
        let text = format!("{MAGIC}\n{descriptor}\n{}\n---\n{body}", body.len());
        let tmp = self.dir.join(format!(
            "{}-{}.tmp",
            std::process::id(),
            WRITES.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::write(&tmp, text).is_err() || fs::rename(&tmp, path).is_err() {
            let _ = fs::remove_file(&tmp);
        }
    }

    /// Looks up a payload. The stored descriptor must match `descriptor`
    /// exactly and the payload must have its recorded length.
    pub fn get(&self, key: JobKey, descriptor: &str) -> Option<String> {
        Self::read_entry(&self.path(key), descriptor)
    }

    /// Stores a payload.
    pub fn put(&self, key: JobKey, descriptor: &str, payload: &str) {
        self.write_entry(&self.path(key), descriptor, payload);
    }

    /// Looks up a stored artifact (a declared side-effect file of the job,
    /// see `SimJob::with_artifact`). Same validation as
    /// [`ResultCache::get`].
    pub fn get_artifact(&self, key: JobKey, descriptor: &str, index: usize) -> Option<String> {
        Self::read_entry(&self.artifact_path(key, index), descriptor)
    }

    /// Stores one artifact alongside the job's payload entry, under the
    /// same key. Failure semantics match [`ResultCache::put`].
    pub fn put_artifact(&self, key: JobKey, descriptor: &str, index: usize, content: &str) {
        self.write_entry(&self.artifact_path(key, index), descriptor, content);
    }

    /// Removes every cache entry (used by tests and `--no-cache` refresh).
    pub fn clear(&self) -> std::io::Result<()> {
        for entry in fs::read_dir(&self.dir)? {
            let p = entry?.path();
            let is_ours = p.extension().is_some_and(|e| {
                let e = e.to_string_lossy();
                // `.job`, `.tmp`, and artifact entries `.a0`, `.a1`, ...
                e == "job"
                    || e == "tmp"
                    || (e.len() > 1
                        && e.starts_with('a')
                        && e[1..].chars().all(|c| c.is_ascii_digit()))
            });
            if is_ours {
                let _ = fs::remove_file(p);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("proteus-runner-cache-test-{tag}"));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::at(dir).unwrap()
    }

    #[test]
    fn round_trip() {
        let c = tmp_cache("rt");
        let key = JobKey::from_descriptor("exp/a=1");
        assert_eq!(c.get(key, "exp/a=1"), None);
        c.put(key, "exp/a=1", "1.5 2.5\nsecond line");
        assert_eq!(
            c.get(key, "exp/a=1").as_deref(),
            Some("1.5 2.5\nsecond line")
        );
    }

    #[test]
    fn descriptor_mismatch_misses() {
        let c = tmp_cache("mismatch");
        let key = JobKey::from_descriptor("exp/a=1");
        c.put(key, "exp/a=1", "x");
        assert_eq!(c.get(key, "exp/a=2"), None);
    }

    #[test]
    fn empty_payload_round_trips() {
        let c = tmp_cache("empty");
        let key = JobKey::from_descriptor("e");
        c.put(key, "e", "");
        assert_eq!(c.get(key, "e").as_deref(), Some(""));
    }

    #[test]
    fn clear_removes_entries() {
        let c = tmp_cache("clear");
        let key = JobKey::from_descriptor("gone");
        c.put(key, "gone", "x");
        c.clear().unwrap();
        assert_eq!(c.get(key, "gone"), None);
    }

    #[test]
    fn artifact_round_trip_and_clear() {
        let c = tmp_cache("artifact");
        let key = JobKey::from_descriptor("exp/a=1");
        assert_eq!(c.get_artifact(key, "exp/a=1", 0), None);
        c.put_artifact(key, "exp/a=1", 0, "line1\nline2\n");
        c.put_artifact(key, "exp/a=1", 1, "{}");
        assert_eq!(
            c.get_artifact(key, "exp/a=1", 0).as_deref(),
            Some("line1\nline2\n")
        );
        assert_eq!(c.get_artifact(key, "exp/a=1", 1).as_deref(), Some("{}"));
        // Wrong descriptor or index misses.
        assert_eq!(c.get_artifact(key, "exp/a=2", 0), None);
        assert_eq!(c.get_artifact(key, "exp/a=1", 2), None);
        c.clear().unwrap();
        assert_eq!(c.get_artifact(key, "exp/a=1", 0), None);
    }

    #[test]
    fn truncated_or_stale_entries_are_misses() {
        let c = tmp_cache("truncated");
        let key = JobKey::from_descriptor("k");
        let path = c.dir().join(format!("{}.job", key.hex()));
        c.put(key, "k", "1.5 2.5 3.5");
        let full = fs::read_to_string(&path).unwrap();

        // A torn write: the header survives, the payload is cut short. It
        // would parse as a shorter float list.
        fs::write(&path, &full[..full.len() - 4]).unwrap();
        assert_eq!(c.get(key, "k"), None);
        // Trailing garbage is no better.
        fs::write(&path, format!("{full} 4.5")).unwrap();
        assert_eq!(c.get(key, "k"), None);
        // The previous format (no length line) reads as a miss.
        fs::write(&path, "proteus-runner-cache v1\nk\n---\n1.5 2.5 3.5").unwrap();
        assert_eq!(c.get(key, "k"), None);

        // Artifacts get the same check.
        let apath = c.dir().join(format!("{}.a0", key.hex()));
        c.put_artifact(key, "k", 0, "line1\nline2\n");
        let full = fs::read_to_string(&apath).unwrap();
        fs::write(&apath, &full[..full.len() - 3]).unwrap();
        assert_eq!(c.get_artifact(key, "k", 0), None);
    }

    #[test]
    fn writes_leave_no_temporaries() {
        let c = tmp_cache("tmpnames");
        for i in 0..4 {
            let d = format!("exp/{i}");
            c.put(JobKey::from_descriptor(&d), &d, "x");
        }
        let leftovers = fs::read_dir(c.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .count();
        assert_eq!(leftovers, 0);
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let c = tmp_cache("corrupt");
        let key = JobKey::from_descriptor("k");
        fs::write(c.dir().join(format!("{}.job", key.hex())), "garbage").unwrap();
        assert_eq!(c.get(key, "k"), None);
    }
}
