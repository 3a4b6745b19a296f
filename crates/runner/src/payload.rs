//! Lossless text encoding for job payloads.
//!
//! Job results travel as strings (through the thread pool and the disk
//! cache), and most experiments produce a flat list of `f64`s. `{:?}`
//! formatting of an `f64` is guaranteed to round-trip through
//! `str::parse`, so a space-joined debug rendering is a lossless,
//! human-readable wire format — no serde required.

/// Encodes floats as a single space-separated line that round-trips
/// exactly through [`decode_floats`].
pub fn encode_floats(values: &[f64]) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&format!("{v:?}"));
    }
    out
}

/// Decodes a payload produced by [`encode_floats`].
///
/// # Panics
///
/// Panics on malformed input: payloads are produced by this crate (or read
/// back from a descriptor-verified cache entry), so a parse failure means
/// a bug or a corrupted cache file, not a user error.
pub fn decode_floats(payload: &str) -> Vec<f64> {
    payload
        .split_whitespace()
        .map(|tok| {
            tok.parse::<f64>()
                .unwrap_or_else(|_| panic!("malformed float {tok:?} in job payload"))
        })
        .collect()
}

/// Float `index` of a decoded payload, 0 when the payload is shorter.
///
/// Decoders of variable-length payloads read through this so they stay
/// total on [`crate::skipped_payload`], whose fixed length they can exceed.
pub fn float_at(values: &[f64], index: usize) -> f64 {
    values.get(index).copied().unwrap_or(0.0)
}

/// Flattens several float sets of varying size into one float list, each
/// set prefixed by its length: `[n0, s0.., n1, s1.., ...]`.
pub fn float_sets(sets: &[&[f64]]) -> Vec<f64> {
    let mut flat = Vec::with_capacity(sets.iter().map(|s| s.len() + 1).sum());
    for set in sets {
        flat.push(set.len() as f64);
        flat.extend_from_slice(set);
    }
    flat
}

/// Decodes an [`encode_floats`] payload of a [`float_sets`] list. Total on any float
/// list: a length prefix that overruns the payload is clamped to what is
/// there, so [`crate::skipped_payload`] decodes as empty sets.
pub fn decode_float_sets(payload: &str) -> Vec<Vec<f64>> {
    let flat = decode_floats(payload);
    let mut sets = Vec::new();
    let mut rest = flat.as_slice();
    while let Some((&n, tail)) = rest.split_first() {
        let (set, tail) = tail.split_at((n as usize).min(tail.len()));
        sets.push(set.to_vec());
        rest = tail;
    }
    sets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_exactly() {
        let vals = [
            0.0,
            -0.0,
            1.5,
            0.1 + 0.2, // famously not 0.3
            f64::MIN_POSITIVE,
            f64::MAX,
            -std::f64::consts::PI,
        ];
        let decoded = decode_floats(&encode_floats(&vals));
        assert_eq!(decoded.len(), vals.len());
        for (a, b) in vals.iter().zip(&decoded) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn empty_list() {
        assert_eq!(encode_floats(&[]), "");
        assert!(decode_floats("").is_empty());
    }

    #[test]
    fn single_value() {
        assert_eq!(decode_floats(&encode_floats(&[42.25])), vec![42.25]);
    }

    #[test]
    fn float_sets_round_trip() {
        let (a, b) = ([1.5, -2.0, 0.1 + 0.2], []);
        let decoded = decode_float_sets(&encode_floats(&float_sets(&[&a, &b, &a[..1]])));
        assert_eq!(decoded, vec![a.to_vec(), vec![], vec![1.5]]);
    }

    #[test]
    fn variable_length_decoders_are_total_on_the_placeholder() {
        let skipped = crate::skipped_payload();
        assert!(decode_float_sets(&skipped).iter().all(|s| s.is_empty()));
        // An overrunning length prefix is clamped, not a panic.
        assert_eq!(decode_float_sets("5 1 2"), vec![vec![1.0, 2.0]]);
        let v = decode_floats(&skipped);
        assert_eq!(float_at(&v, 3), 0.0);
        assert_eq!(float_at(&v, 41), 0.0);
    }
}
