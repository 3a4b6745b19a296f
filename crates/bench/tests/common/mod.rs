//! Shared by the golden-pin and campaign integration tests.

use std::fs;
use std::path::PathBuf;

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
