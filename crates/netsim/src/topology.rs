//! Multi-bottleneck topologies: an ordered set of links that flows cross
//! hop-by-hop.
//!
//! The paper evaluates Proteus on a single dumbbell; real harm/fairness
//! questions (parking-lot fairness, RTT unfairness, a scavenger crossing two
//! bottlenecks) need more than one queue. A [`Topology`] is the minimal
//! generalization: a list of [`LinkSpec`]s indexed by [`LinkId`], with each
//! flow declaring the sequence of links it traverses via
//! [`FlowSpec::with_path`]. Packets are serviced by every queue on their
//! path in order; ACKs return over the reverse path as a single aggregate
//! propagation delay (see DESIGN.md §4g).
//!
//! Determinism rules (same discipline as [`FaultSchedule`]/churn):
//!
//! * Link ids are indices into [`Topology::links`]; iteration is always in
//!   id order, so results are independent of construction style.
//! * Each link's fault layer draws from its own salted RNG stream
//!   (`seed ^ link_id · STRIDE`, zero salt at link 0), so a single-link
//!   topology is byte-identical to the legacy dumbbell and adding a
//!   schedule on link *k* never perturbs link *j*'s stream.
//! * Per-packet processes (random loss, latency noise, reordering) are
//!   applied per hop, in hop order, from the same RNGs as before — a
//!   one-link path performs exactly the legacy draw sequence.
//!
//! [`FlowSpec::with_path`]: crate::scenario::FlowSpec::with_path
//! [`FaultSchedule`]: crate::fault::FaultSchedule

use crate::fault::FaultSchedule;
use crate::scenario::LinkSpec;

/// Identifier of a link inside a [`Topology`]: its index in
/// [`Topology::links`].
pub type LinkId = u16;

/// An ordered set of bottleneck links plus optional per-link fault
/// schedules.
///
/// The default flow path crosses *all* links in id order (a chain); flows
/// may restrict themselves to any duplicate-free subsequence with
/// [`FlowSpec::with_path`](crate::scenario::FlowSpec::with_path). A
/// parking-lot is simply N identical links with N single-link local flows
/// and one all-links through flow.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The links, indexed by [`LinkId`].
    pub links: Vec<LinkSpec>,
    /// Optional fault schedule per link (parallel to `links`).
    pub faults: Vec<Option<FaultSchedule>>,
}

impl Topology {
    /// A one-link topology — the legacy dumbbell. Scenarios built this way
    /// are byte-identical to the pre-topology engine.
    pub fn single(link: LinkSpec) -> Self {
        Self::chain([link])
    }

    /// A chain of links crossed in order by default-path flows.
    ///
    /// # Panics
    /// Panics if `links` is empty or longer than [`LinkId`] can index.
    pub fn chain(links: impl IntoIterator<Item = LinkSpec>) -> Self {
        let links: Vec<LinkSpec> = links.into_iter().collect();
        assert!(!links.is_empty(), "a topology needs at least one link");
        assert!(
            links.len() <= LinkId::MAX as usize + 1,
            "too many links for u16 link ids"
        );
        let faults = vec![None; links.len()];
        Self { links, faults }
    }

    /// `n` copies of the same link — the classic parking-lot backbone
    /// (pair with `n` single-link flows plus one all-links flow).
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn parking_lot(n: usize, link: LinkSpec) -> Self {
        assert!(n > 0, "a parking lot needs at least one link");
        Self::chain(std::iter::repeat_n(link, n))
    }

    /// Attach a fault schedule to one link. An empty schedule is
    /// normalized away so it cannot perturb determinism.
    /// `Topology::single(l).with_faults(0, s)` is byte-identical to
    /// the legacy `Scenario::with_faults(s)`.
    ///
    /// # Panics
    /// Panics if `link` is out of range or already has a schedule.
    pub fn with_faults(mut self, link: LinkId, sched: FaultSchedule) -> Self {
        let li = link as usize;
        assert!(li < self.links.len(), "link {link} not in topology");
        assert!(
            self.faults[li].is_none(),
            "link {link} already has a fault schedule"
        );
        if !sched.is_empty() {
            self.faults[li] = Some(sched);
        }
        self
    }

    /// Number of links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// Always `false` — construction rejects empty topologies.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// The default path: every link in id order.
    pub fn full_path(&self) -> Vec<LinkId> {
        (0..=LinkId::MAX).take(self.links.len()).collect()
    }

    /// Validate a flow path against this topology: non-empty, in range,
    /// duplicate-free. Returns an error message describing the violation.
    pub fn check_path(&self, path: &[LinkId]) -> Result<(), String> {
        if path.is_empty() {
            return Err("path must name at least one link".into());
        }
        for (i, &l) in path.iter().enumerate() {
            if l as usize >= self.links.len() {
                return Err(format!(
                    "path names link {l} but topology has {} links",
                    self.links.len()
                ));
            }
            if path[..i].contains(&l) {
                return Err(format!("path visits link {l} twice"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proteus_transport::Dur;

    fn link() -> LinkSpec {
        LinkSpec::new(10.0, Dur::from_millis(20), 100_000)
    }

    #[test]
    fn single_is_one_link_chain() {
        let t = Topology::single(link());
        assert_eq!(t.len(), 1);
        assert_eq!(t.full_path(), vec![0]);
        assert!(!t.is_empty());
    }

    #[test]
    fn parking_lot_replicates() {
        let t = Topology::parking_lot(3, link());
        assert_eq!(t.len(), 3);
        assert_eq!(t.full_path(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_fault_schedule_is_normalized_away() {
        let t = Topology::single(link()).with_faults(0, FaultSchedule::default());
        assert!(t.faults[0].is_none());
        let t = Topology::single(link()).with_faults(
            0,
            FaultSchedule::default().outage(Dur::from_secs(1), Dur::from_secs(2)),
        );
        assert!(t.faults[0].is_some());
    }

    #[test]
    #[should_panic(expected = "already has a fault schedule")]
    fn double_fault_attachment_panics() {
        let s = FaultSchedule::default().outage(Dur::from_secs(1), Dur::from_secs(2));
        let _ = Topology::single(link())
            .with_faults(0, s.clone())
            .with_faults(0, s);
    }

    #[test]
    fn full_path_spans_every_link_id() {
        let t = Topology::parking_lot(LinkId::MAX as usize + 1, link());
        let path = t.full_path();
        assert_eq!(path.len(), 65_536);
        assert_eq!(path.last(), Some(&LinkId::MAX));
    }

    #[test]
    fn path_validation() {
        let t = Topology::parking_lot(2, link());
        assert!(t.check_path(&[0]).is_ok());
        assert!(t.check_path(&[1, 0]).is_ok());
        assert!(t.check_path(&[]).is_err());
        assert!(t.check_path(&[2]).is_err());
        assert!(t.check_path(&[0, 0]).is_err());
    }
}
