//! Flow arrival processes: which flow arrives, and when the next one does.
//!
//! The engine has one way to make a flow exist (`Sim::spawn`) and is handed
//! [`NewFlow`] descriptions for it: static flows straight from the
//! scenario, and — from this module — Poisson cross-traffic
//! ([`Population::cross`]) and Poisson churn ([`Population::churn`]). A
//! population owns its arrival rate, window end, naming counter and, for
//! churn, the class mix, lifetimes and a private RNG stream; it never sees
//! the scheduler or the flow table.

use std::sync::Arc;

use proteus_transport::{
    Application, BulkApp, CcFactory, CongestionControl, Dur, FlowId, SizedApp, Time,
};
use rand::rngs::SmallRng;
use rand::{RngExt as Rng, SeedableRng};

use crate::dist;
use crate::scenario::{ChurnSpec, CrossTrafficSpec};
use crate::topology::LinkId;

/// Everything `Sim::spawn` needs to register one flow.
pub(crate) struct NewFlow {
    pub name: String,
    pub cc: Box<dyn CongestionControl>,
    pub app: Box<dyn Application>,
    /// Whether lost bytes are retransmitted.
    pub reliable: bool,
    pub path: Arc<[LinkId]>,
    pub start: Time,
    pub stop: Option<Time>,
}

/// One churn traffic class, resolved for sampling.
struct Class {
    name: String,
    cc: CcFactory,
    path: Arc<[LinkId]>,
    /// Normalized cumulative arrival weight through this class.
    cum_weight: f64,
}

/// What distinguishes the two arrival processes.
enum Kind {
    /// Short reliable transfers of uniformly drawn size, named `cross-{n}`,
    /// on one path. Draws come from the engine's main RNG.
    Cross {
        size_range: (u64, u64),
        cc: CcFactory,
        path: Arc<[LinkId]>,
    },
    /// Unreliable bulk flows with exponential lifetimes, named
    /// `{class}~{n}`. Every draw (class, lifetime, gap) comes from `rng`,
    /// the churn stream, so attaching churn leaves the main RNG's sequence
    /// untouched.
    Churn {
        mean_lifetime_secs: f64,
        classes: Vec<Class>,
        rng: SmallRng,
    },
}

/// One Poisson arrival process, live until `stop`.
pub(crate) struct Population {
    arrivals_per_sec: f64,
    stop: Time,
    spawned: usize,
    kind: Kind,
}

impl Population {
    /// Cross-traffic per `spec`, every flow on `path`.
    pub fn cross(spec: CrossTrafficSpec, path: Arc<[LinkId]>) -> Self {
        Population {
            arrivals_per_sec: spec.arrivals_per_sec,
            stop: Time::ZERO + spec.stop,
            spawned: 0,
            kind: Kind::Cross {
                size_range: spec.size_range,
                cc: spec.cc,
                path,
            },
        }
    }

    /// Churn per `spec`; `paths[i]` is class `i`'s resolved path and `seed`
    /// seeds the churn stream.
    pub fn churn(spec: ChurnSpec, paths: Vec<Arc<[LinkId]>>, seed: u64) -> Self {
        let total: f64 = spec.classes.iter().map(|c| c.weight).sum();
        debug_assert!(total > 0.0, "checked by Scenario::with_churn");
        let mut acc = 0.0;
        let classes = spec.classes.into_iter().zip(paths).map(|(c, path)| {
            acc += c.weight / total;
            Class {
                name: c.name,
                cc: c.cc,
                path,
                cum_weight: acc,
            }
        });
        Population {
            arrivals_per_sec: spec.arrivals_per_sec,
            stop: Time::ZERO + spec.stop,
            spawned: 0,
            kind: Kind::Churn {
                mean_lifetime_secs: spec.mean_lifetime.as_secs_f64(),
                classes: classes.collect(),
                rng: SmallRng::seed_from_u64(seed),
            },
        }
    }

    /// Draws the flow arriving at `at`, which will get id `id`. Cross
    /// traffic draws its size from `main_rng`; churn draws class, then
    /// lifetime, from its own stream.
    pub fn draw(&mut self, at: Time, id: FlowId, main_rng: &mut SmallRng) -> NewFlow {
        self.spawned += 1;
        let n = self.spawned;
        match &mut self.kind {
            Kind::Cross {
                size_range: (lo, hi),
                cc,
                path,
            } => NewFlow {
                app: Box::new(SizedApp::new(dist::uniform_inclusive(main_rng, *lo, *hi))),
                name: format!("cross-{n}"),
                cc: cc(id),
                reliable: true,
                path: Arc::clone(path),
                start: at,
                stop: None,
            },
            Kind::Churn {
                mean_lifetime_secs,
                classes,
                rng,
            } => {
                let u: f64 = rng.random();
                let class = classes
                    .iter()
                    .find(|c| u < c.cum_weight)
                    .unwrap_or(&classes[classes.len() - 1]);
                let lifetime = dist::exponential(rng, *mean_lifetime_secs);
                NewFlow {
                    name: format!("{}~{n}", class.name),
                    cc: (class.cc)(id),
                    app: Box::new(BulkApp),
                    reliable: false,
                    path: Arc::clone(&class.path),
                    start: at,
                    stop: Some(at + Dur::from_secs_f64(lifetime)),
                }
            }
        }
    }

    /// One Poisson arrival at `now`: the flow, and when the next arrival is
    /// due (its gap drawn after the flow, from the same stream). `None` once
    /// the window has closed.
    pub fn arrive(
        &mut self,
        now: Time,
        id: FlowId,
        main_rng: &mut SmallRng,
    ) -> Option<(NewFlow, Time)> {
        if now >= self.stop {
            return None;
        }
        let flow = self.draw(now, id, main_rng);
        let rng = match &mut self.kind {
            Kind::Cross { .. } => main_rng,
            Kind::Churn { rng, .. } => rng,
        };
        let gap = dist::exponential(rng, 1.0 / self.arrivals_per_sec);
        Some((flow, now + Dur::from_secs_f64(gap)))
    }
}
