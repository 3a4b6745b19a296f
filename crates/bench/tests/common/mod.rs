//! Shared by the golden-pin, campaign and tuner integration tests (each
//! test target uses a subset).

#![allow(dead_code)]

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Held by every test that points the process-global
/// `PROTEUS_RESULTS_DIR` somewhere.
static RESULTS_DIR: Mutex<()> = Mutex::new(());

/// Runs `f` with `PROTEUS_RESULTS_DIR` pointed at `dir`, emptied first,
/// under the lock the other redirecting tests of this process share.
pub fn in_results_dir<T>(dir: &Path, f: impl FnOnce() -> T) -> T {
    // A poisoned lock only means another test panicked while holding it;
    // that must not mask this one's verdict.
    let _guard = RESULTS_DIR.lock().unwrap_or_else(|e| e.into_inner());
    let _ = fs::remove_dir_all(dir);
    std::env::set_var("PROTEUS_RESULTS_DIR", dir);
    let out = f();
    std::env::remove_var("PROTEUS_RESULTS_DIR");
    out
}

/// `rel` resolved against the repository root.
pub fn repo_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

/// Compares `fresh` against the committed `results/golden/<golden>`, or
/// rewrites that file when `PROTEUS_BLESS` is set. `test_name` is the
/// integration-test target to name in the re-bless hint.
pub fn check_or_bless(golden: &str, fresh: &str, test_name: &str) {
    let path = repo_path("results/golden").join(golden);
    let rebless = format!("PROTEUS_BLESS=1 cargo test -p proteus-bench --test {test_name}");
    if std::env::var_os("PROTEUS_BLESS").is_some_and(|v| !v.is_empty()) {
        fs::create_dir_all(path.parent().expect("golden files have a parent"))
            .expect("create results/golden");
        fs::write(&path, fresh).expect("write golden");
        return;
    }
    let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing results/golden/{golden} ({e}) — bless it with {rebless}")
    });
    if committed == fresh {
        return;
    }
    let (want, got) = committed
        .lines()
        .zip(fresh.lines())
        .find(|(a, b)| a != b)
        .unwrap_or(("<line count differs>", "<line count differs>"));
    panic!(
        "output no longer matches results/golden/{golden}. If the change is intentional: \
         {rebless}, regenerate the committed results/ it pins (EXPERIMENTS.md, \"Golden \
         pins\"), and commit both, explaining the delta. First differing line:\n  \
         golden: {want:?}\n  fresh:  {got:?}"
    );
}
