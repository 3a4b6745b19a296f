//! The one way reports and artifacts reach disk.
//!
//! A warm replay reproduces every report and artifact byte for byte, so
//! rewriting them would only make the file system flush the same bytes
//! again. [`write_if_changed`] compares first and leaves an equal file
//! alone: after any run the bytes on disk are what a plain write would have
//! left, and a warm run's only write is its line in the campaign log.

use std::fs;
use std::io;
use std::path::Path;

/// Makes the file at `path` hold exactly `bytes` and returns whether that
/// took a write. A file that already holds them is left untouched — not
/// opened for writing, its modification time kept. Otherwise the parent
/// directory is created if missing and the file is written whole. An error
/// is the one creating the directory or writing the file (a parent that is
/// a regular file, say); reading the old contents never fails the call.
pub fn write_if_changed(path: &Path, bytes: &[u8]) -> io::Result<bool> {
    if fs::read(path).is_ok_and(|old| old == bytes) {
        return Ok(false);
    }
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, bytes)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::{Duration, SystemTime};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "proteus-runner-files-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn mtime(path: &Path) -> SystemTime {
        fs::metadata(path).unwrap().modified().unwrap()
    }

    /// Sets `path`'s modification time a day back, so a rewrite shows.
    fn age(path: &Path) -> SystemTime {
        let old = SystemTime::now() - Duration::from_secs(86_400);
        let f = fs::File::options().write(true).open(path).unwrap();
        f.set_modified(old).unwrap();
        mtime(path)
    }

    #[test]
    fn equal_bytes_leave_the_file_untouched() {
        let dir = tmp_dir("equal");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.txt");
        fs::write(&path, "a,b\n1,2\n").unwrap();
        let before = age(&path);
        assert!(!write_if_changed(&path, b"a,b\n1,2\n").unwrap());
        assert_eq!(mtime(&path), before);
        assert_eq!(fs::read(&path).unwrap(), b"a,b\n1,2\n");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn different_bytes_are_rewritten() {
        let dir = tmp_dir("differ");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.txt");
        fs::write(&path, "a,b\n1,2\n").unwrap();
        let before = age(&path);
        // Same length, one byte apart; then shorter; then empty.
        for bytes in [&b"a,b\n1,3\n"[..], b"a\n", b""] {
            assert!(write_if_changed(&path, bytes).unwrap());
            assert_eq!(fs::read(&path).unwrap(), bytes);
        }
        assert_ne!(mtime(&path), before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_missing_file_and_its_directories_are_created() {
        let dir = tmp_dir("missing");
        let path = dir.join("trace").join("fig6").join("run.jsonl");
        assert!(write_if_changed(&path, b"{}\n").unwrap());
        assert_eq!(fs::read(&path).unwrap(), b"{}\n");
        // An empty file is created too, and then equal.
        let empty = dir.join("empty.csv");
        assert!(write_if_changed(&empty, b"").unwrap());
        assert!(!write_if_changed(&empty, b"").unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_parent_that_is_a_file_is_an_error() {
        let dir = tmp_dir("blocked");
        fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("not-a-dir");
        fs::write(&blocker, "").unwrap();
        assert!(write_if_changed(&blocker.join("report.txt"), b"x").is_err());
        assert!(write_if_changed(&blocker.join("sub").join("report.txt"), b"x").is_err());
        assert_eq!(fs::read(&blocker).unwrap(), b"");
        let _ = fs::remove_dir_all(&dir);
    }
}
