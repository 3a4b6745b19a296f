//! `proteus-benchmark compare <dirA> <dirB>`: the A/A and A/B tool.
//!
//! Reads the result files two runs left in their `--out` directories and,
//! for each workload × end-to-end metric, prints both medians, the ratio
//! with its base, the bound and a verdict. Every end-to-end metric is
//! lower-is-better. A metric is `worse` only beyond its bound, and
//! `unresolved` — neither worse nor unchanged — when the two quartile ranges
//! overlap and either is wider than the bound. Digest and exact-count
//! differences are flagged as notes: on one commit they must not occur.

use std::fs;
use std::io;
use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats::quartiles;
use crate::Kind;

/// What a comparison found.
pub struct Comparison {
    /// The table and notes, ready to print.
    pub text: String,
    /// Whether any metric is worse beyond its bound.
    pub any_worse: bool,
}

/// How B's samples of a lower-is-better metric stand against A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Lower by more than the bound, or every B sample below every A sample.
    Better,
    /// Higher by more than the bound.
    Worse,
    /// The spread is wider than the bound and the quartile ranges overlap.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A under `bound`.
pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
    let all_below = b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        < a.iter().copied().fold(f64::INFINITY, f64::min);
    let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
    let overlap = b1 <= a3 && a1 <= b3;
    let change = b2 / a2 - 1.0;
    if spread > bound && overlap && !all_below {
        Verdict::Unresolved
    } else if change > bound {
        Verdict::Worse
    } else if change < -bound || (all_below && a.len() > 1) {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn load(dir: &Path, file: &str) -> io::Result<Option<Value>> {
    let path = dir.join(file);
    if !path.exists() {
        return Ok(None);
    }
    let text = fs::read_to_string(&path)?;
    json::parse(&text)
        .map(Some)
        .map_err(|e| io::Error::other(format!("{}: {e}", path.display())))
}

fn samples(file: &Value, metric: &str) -> Option<Vec<f64>> {
    file.get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_array()?
        .iter()
        .map(Value::as_f64)
        .collect()
}

fn digest(file: &Value) -> &str {
    file.get("sim_digest").and_then(Value::as_str).unwrap_or("")
}

/// Compares the result files of two `--out` directories.
pub fn compare(dir_a: &Path, dir_b: &Path) -> io::Result<Comparison> {
    let mut text = format!(
        "A = {}\nB = {}\n{:<18} {:<13} {:>12} {:>12} {:>9} {:>6}  verdict\n",
        dir_a.display(),
        dir_b.display(),
        "workload",
        "metric",
        "median A",
        "median B",
        "B/A",
        "bound"
    );
    let mut notes: Vec<String> = Vec::new();
    let (mut any_worse, mut compared) = (false, 0);

    for kind in Kind::ALL {
        let name = kind.name();
        let file = format!("{name}.json");
        match (load(dir_a, &file)?, load(dir_b, &file)?) {
            (Some(a), Some(b)) => {
                if digest(&a) != digest(&b) {
                    notes.push(format!(
                        "{name}: sim_digest differs ({} vs {})",
                        digest(&a),
                        digest(&b)
                    ));
                }
                for side in [&a, &b] {
                    if side.get("correct") != Some(&Value::Bool(true)) {
                        notes.push(format!("{name}: a run reports failed operations"));
                    }
                }
                for def in END_TO_END {
                    let (Some(sa), Some(sb)) = (samples(&a, def.name), samples(&b, def.name))
                    else {
                        notes.push(format!("{name}: {} missing from a result file", def.name));
                        continue;
                    };
                    let v = verdict(&sa, &sb, def.bound);
                    any_worse |= v == Verdict::Worse;
                    compared += 1;
                    let (ma, mb) = (quartiles(&sa)[1], quartiles(&sb)[1]);
                    text.push_str(&format!(
                        "{name:<18} {:<13} {ma:>12.4} {mb:>12.4} {:>9.4} {:>5.0}%  {}\n",
                        def.name,
                        mb / ma,
                        def.bound * 100.0,
                        v.word()
                    ));
                }
            }
            _ => notes.push(format!("{name}: {file} missing from a directory, skipped")),
        }

        let file = format!("{name}.layers.json");
        if let (Some(a), Some(b)) = (load(dir_a, &file)?, load(dir_b, &file)?) {
            if digest(&a) != digest(&b) {
                notes.push(format!("{name}: traced sim_digest differs"));
            }
            let counts = |v: &Value| -> Vec<(String, f64)> {
                v.get("per_layer")
                    .and_then(Value::as_object)
                    .map(|m| {
                        m.iter()
                            .filter(|(_, e)| e.get("unit").and_then(Value::as_str) == Some("count"))
                            .filter_map(|(k, e)| Some((k.clone(), e.get("value")?.as_f64()?)))
                            .collect()
                    })
                    .unwrap_or_default()
            };
            let (ca, cb) = (counts(&a), counts(&b));
            for (metric, va) in &ca {
                match cb.iter().find(|(k, _)| k == metric) {
                    Some((_, vb)) if vb == va => {}
                    Some((_, vb)) => notes.push(format!(
                        "{name}: exact count {metric} differs ({va} vs {vb})"
                    )),
                    None => notes.push(format!("{name}: exact count {metric} missing from B")),
                }
            }
        }
    }

    if compared == 0 {
        return Err(io::Error::other(
            "no workload has a result file in both directories",
        ));
    }
    if notes.is_empty() {
        text.push_str("notes: every sim_digest and every exact count is identical\n");
    } else {
        for n in &notes {
            text.push_str(&format!("note: {n}\n"));
        }
    }
    Ok(Comparison { text, any_worse })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_only_beyond_the_bound() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&a, &[1.05, 1.06, 1.04, 1.05, 1.07], 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&a, &[1.15, 1.16, 1.14, 1.15, 1.17], 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn wide_overlapping_ranges_are_unresolved() {
        let a = [1.0, 1.3, 0.8, 1.1, 0.9];
        let b = [1.2, 1.5, 0.9, 1.3, 1.0];
        assert_eq!(verdict(&a, &b, 0.10), Verdict::Unresolved);
        // Wide but every B sample below every A sample: a clear win.
        let b = [0.5, 0.6, 0.4, 0.7, 0.55];
        assert_eq!(verdict(&a, &b, 0.10), Verdict::Better);
    }

    #[test]
    fn single_samples_compare_by_ratio() {
        assert_eq!(verdict(&[100.0], &[103.0], 0.05), Verdict::Ok);
        assert_eq!(verdict(&[100.0], &[106.0], 0.05), Verdict::Worse);
        assert_eq!(verdict(&[100.0], &[99.0], 0.05), Verdict::Ok);
    }
}
