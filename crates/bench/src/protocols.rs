//! The protocol registry: every congestion controller the paper evaluates,
//! constructible by name.

use proteus_baselines::{Bbr, Copa, Cross, Cubic, FixedRateProbe, Ledbat, ScavengerMod};
use proteus_core::ProteusSender;
use proteus_trace::RingSink;
use proteus_transport::CongestionControl;

/// The primary protocols of §6.
pub const PRIMARIES: &[&str] = &["CUBIC", "BBR", "COPA", "Proteus-P", "PCC-Vivace"];

/// The scavengers compared throughout §6 (plus the Appendix-B LEDBAT-25 and
/// the §7.1 BBR-S).
pub const SCAVENGERS: &[&str] = &["Proteus-S", "LEDBAT", "LEDBAT-25", "BBR-S"];

/// All single-flow protocols of Fig. 3/4/5.
pub const ALL_FIG3: &[&str] = &[
    "Proteus-S",
    "LEDBAT",
    "CUBIC",
    "BBR",
    "Proteus-P",
    "COPA",
    "PCC-Vivace",
];

/// Every fixed name [`cc`] knows, for error messages (`probe:<mbps>` is the
/// one parametric form).
pub const NAMES: &[&str] = &[
    "CUBIC",
    "BBR",
    "BBR-S",
    "COPA",
    "LEDBAT",
    "LEDBAT-25",
    "Cross",
    "Proteus-P",
    "Proteus-S",
    "PCC-Vivace",
    "PCC-Allegro",
];

/// Builds a controller by display name. Probe rates are written as
/// `"probe:<mbps>"`. Proteus-H senders, which need a shared threshold
/// cell, are built with [`ProteusSender::hybrid`].
///
/// # Panics
/// Panics on a name [`try_cc`] does not know.
pub fn cc(name: &str, seed: u64) -> Box<dyn CongestionControl> {
    try_cc(name, seed).unwrap_or_else(|| panic!("unknown protocol {name}"))
}

/// [`cc`] for names that come from outside the program (command lines):
/// `None` for an unknown name or a `probe:` rate that is not a positive
/// number.
pub fn try_cc(name: &str, seed: u64) -> Option<Box<dyn CongestionControl>> {
    Some(match name {
        "CUBIC" => Box::new(Cubic::new()),
        "BBR" => Box::new(Bbr::new()),
        "BBR-S" => Box::new(Bbr::scavenger_with(ScavengerMod::calibrated_for_sim())),
        "COPA" => Box::new(Copa::new()),
        "LEDBAT" => Box::new(Ledbat::new()),
        "LEDBAT-25" => Box::new(Ledbat::draft25()),
        "Cross" => Box::new(Cross::new()),
        "Proteus-P" => Box::new(ProteusSender::primary(seed)),
        "Proteus-S" => Box::new(ProteusSender::scavenger(seed)),
        "PCC-Vivace" => Box::new(ProteusSender::vivace(seed)),
        "PCC-Allegro" => Box::new(ProteusSender::allegro(seed)),
        other => {
            let mbps: f64 = other.strip_prefix("probe:")?.parse().ok()?;
            if !(mbps > 0.0 && mbps.is_finite()) {
                return None;
            }
            Box::new(FixedRateProbe::mbps(mbps))
        }
    })
}

/// Like [`cc`], but PCC-family senders carry a [`RingSink`] decision
/// recorder (drained into `SimResult::decisions` by the engine). The other
/// protocols have no MI decision points, so they are returned untraced —
/// the run itself is unchanged either way.
pub fn cc_traced(name: &str, seed: u64) -> Box<dyn CongestionControl> {
    cc_traced_if(name, seed, true)
}

/// [`cc_traced`] when `traced` is set, else [`cc`].
pub fn cc_traced_if(name: &str, seed: u64, traced: bool) -> Box<dyn CongestionControl> {
    let sender = match name {
        "Proteus-P" => ProteusSender::primary(seed),
        "Proteus-S" => ProteusSender::scavenger(seed),
        "PCC-Vivace" => ProteusSender::vivace(seed),
        "PCC-Allegro" => ProteusSender::allegro(seed),
        other => return cc(other, seed),
    };
    sender_traced_if(sender, traced)
}

/// Boxes a PCC-family `sender`, with a [`RingSink`] decision recorder when
/// `traced` is set: the traced switch for senders built from their own
/// config rather than by name.
pub fn sender_traced_if(sender: ProteusSender, traced: bool) -> Box<dyn CongestionControl> {
    if traced {
        Box::new(sender.with_sink(RingSink::new(crate::mi_trace::MI_RING_CAPACITY)))
    } else {
        Box::new(sender)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_builds_everything() {
        for name in PRIMARIES.iter().chain(SCAVENGERS).chain(ALL_FIG3) {
            assert!(NAMES.contains(name), "{name} missing from NAMES");
        }
        for name in NAMES {
            let c = cc(name, 1);
            assert!(!c.name().is_empty());
        }
        for bad in [
            "TCP-Tahoe",
            "probe:",
            "probe:0",
            "probe:-3",
            "probe:inf",
            "probe:x",
        ] {
            assert!(try_cc(bad, 1).is_none(), "{bad} must not build");
        }
        let p = cc("probe:20", 1);
        assert_eq!(p.pacing_rate(), Some(2_500_000.0));
        let x = cc("Cross", 1);
        assert_eq!(x.name(), "Cross");
        assert!(x.pacing_rate().is_some());
    }

    #[test]
    #[should_panic]
    fn unknown_name_panics() {
        let _ = cc("TCP-Tahoe", 1);
    }

    #[test]
    fn traced_registry_builds_everything() {
        for name in PRIMARIES.iter().chain(SCAVENGERS).chain(ALL_FIG3) {
            let c = cc_traced(name, 1);
            assert_eq!(c.name(), cc(name, 1).name());
        }
    }
}
