//! Theory tables: the Appendix-A equilibrium model and the §4.4 Proteus-H
//! ideal-allocation formula, checked numerically.
//!
//! The six Appendix-A solves are one campaign job, so a warm run replays
//! them from the cache like every simulated cell; the §4.4 closed form is
//! evaluated inline.

use proteus_core::equilibrium::{DAMPING, MAX_SWEEPS, SEARCH_STEPS, TOLERANCE};
use proteus_core::{hybrid_ideal_allocation, solve_equilibrium, GameParams, SenderKind};
use proteus_runner::{payload, SimJob};

use crate::jobs::campaign;
use crate::report::{f2, write_report, Table};
use crate::RunCfg;

use SenderKind::{Primary as P, Scavenger as S};

/// Bottleneck capacity of the Appendix-A game, Mbps.
const CAPACITY: f64 = 100.0;

/// The Appendix-A cases: a row label and the senders' kinds.
const CASES: [(&str, &[SenderKind]); 6] = [
    ("1 P", &[P]),
    ("1 S", &[S]),
    ("4 P", &[P; 4]),
    ("3 S", &[S; 3]),
    ("P + S", &[P, S]),
    ("2P + 2S", &[P, P, S, S]),
];

/// The [`CASES`]' equilibria as one job: payload
/// [`payload::float_sets`] of each case's rates, in case order. The
/// descriptor spells out every input of the solve — the game's parameters,
/// the cases and the solver's constants — so a change to any of them
/// misses the cache instead of replaying a stale table. A change to the
/// solver's code that moves its output must bump the trailing `v1`.
fn equilibria_job(params: GameParams) -> SimJob {
    // Exhaustive, so a new parameter cannot be left out of the descriptor.
    let GameParams {
        exponent,
        gradient_coef,
        deviation_coef,
        a_const,
        capacity,
        probe_eps,
    } = params;
    let cases: Vec<String> = CASES
        .iter()
        .map(|(_, kinds)| {
            let code = |k: &SenderKind| if *k == P { 'P' } else { 'S' };
            kinds.iter().map(code).collect()
        })
        .collect();
    let descriptor = format!(
        "theory/equilibria/d={exponent:?}/b={gradient_coef:?}/d_dev={deviation_coef:?}\
         /A={a_const:?}/C={capacity:?}/eps={probe_eps:?}/cases={}/damping={DAMPING:?}\
         /tol={TOLERANCE:?}/sweeps={MAX_SWEEPS}/steps={SEARCH_STEPS}/v1",
        cases.join(",")
    );
    SimJob::new(descriptor, "theory-equilibria", move || {
        let rates: Vec<Vec<f64>> = CASES
            .iter()
            .map(|(_, kinds)| solve_equilibrium(&params, kinds).rates)
            .collect();
        let sets: Vec<&[f64]> = rates.iter().map(Vec::as_slice).collect();
        payload::encode_floats(&payload::float_sets(&sets))
    })
}

/// Runs the theory tables.
pub fn run_experiment(cfg: RunCfg) -> String {
    // --- Symmetric and mixed equilibria of the Appendix-A game. ---
    // A job of a few milliseconds is not worth sharding: every shard runs
    // it, so none writes a table of placeholders.
    let mut camp = campaign("theory", RunCfg { shard: None, ..cfg });
    camp.push(equilibria_job(GameParams::paper_defaults(CAPACITY)));
    let result = camp.run();
    let mut eq = Table::new(
        "Appendix A: numeric equilibria of the simplified game (C = 100 Mbps)",
        &["senders", "rates_Mbps", "total", "utilization"],
    );
    let sets = payload::decode_float_sets(&result.outputs[0]);
    for ((label, _), rates) in CASES.iter().zip(&sets) {
        let total: f64 = rates.iter().sum();
        let shown: Vec<String> = rates.iter().map(|r| f2(*r)).collect();
        eq.row(vec![
            (*label).into(),
            shown.join(" "),
            f2(total),
            f2(total.min(CAPACITY) / CAPACITY),
        ]);
    }

    // --- §4.4 ideal allocation for two Proteus-H senders. ---
    let mut hy = Table::new(
        "S4.4: ideal allocation of two Proteus-H senders (r1 = 10, r2 = 20 Mbps)",
        &["capacity", "x1", "x2", "regime"],
    );
    for &c in &[10.0, 15.0, 25.0, 28.0, 35.0, 45.0, 60.0] {
        let (x1, x2) = hybrid_ideal_allocation(c, 10.0, 20.0);
        let regime = if c < 20.0 {
            "C<2r1: fair"
        } else if c < 30.0 {
            "sender1 pinned at r1"
        } else if c < 40.0 {
            "sender2 pinned at r2"
        } else {
            "C>2r2: fair"
        };
        hy.row(vec![f2(c), f2(x1), f2(x2), regime.into()]);
    }

    let text = format!("{}\n{}\n", eq.render(), hy.render());
    write_report("tbl_equilibrium", &text, &[&eq, &hy]);
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_job_carries_every_cases_rates_bit_for_bit() {
        let params = GameParams::paper_defaults(CAPACITY);
        let sets = payload::decode_float_sets(&equilibria_job(params).execute());
        assert_eq!(sets.len(), CASES.len());
        let bits = |rates: &[f64]| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
        for ((label, kinds), rates) in CASES.iter().zip(&sets) {
            let solved = solve_equilibrium(&params, kinds).rates;
            assert_eq!(bits(rates), bits(&solved), "{label}");
        }
    }

    #[test]
    fn the_descriptor_spells_out_the_solve() {
        let params = GameParams::paper_defaults(CAPACITY);
        assert_eq!(
            equilibria_job(params).descriptor(),
            "theory/equilibria/d=0.9/b=900.0/d_dev=1500.0/A=0.008660254037844387/C=100.0\
             /eps=0.05/cases=P,S,PPPP,SSS,PS,PPSS/damping=0.5/tol=1e-7/sweeps=20000\
             /steps=200/v1"
        );
        let mut static_game = params;
        static_game.probe_eps = 0.0;
        assert_ne!(
            equilibria_job(static_game).key(),
            equilibria_job(params).key()
        );
    }
}
