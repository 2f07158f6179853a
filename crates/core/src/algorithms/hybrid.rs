//! The Quasi-Octant/Spotter hybrid (§3.4): Spotter's delay model feeding
//! Octant's ring multilateration. The rings are `[μ − 5σ, μ + 5σ]` —
//! built "to separate the effect of Spotter's probabilistic
//! multilateration from the effect of its cubic-polynomial delay model".

use crate::algorithms::{Geolocator, Prediction};
use crate::delay_model::SpotterModel;
use crate::multilateration::{max_consistent_subset, FastPath, RingConstraint};
use crate::observation::Observation;
use geokit::Region;

/// How many σ the ring extends on each side of μ.
pub const RING_SIGMAS: f64 = 5.0;

/// The hybrid algorithm.
#[derive(Debug, Clone)]
pub struct Hybrid {
    model: SpotterModel,
}

impl Hybrid {
    /// Build over the shared global Spotter model.
    pub fn new(model: SpotterModel) -> Hybrid {
        Hybrid { model }
    }
}

impl Geolocator for Hybrid {
    fn name(&self) -> &'static str {
        "Hybrid"
    }

    fn locate(&self, observations: &[Observation], mask: &Region) -> Prediction {
        let slack = crate::multilateration::constraint::grid_slack_km(mask.grid());
        let constraints: Vec<RingConstraint> = observations
            .iter()
            .map(|o| {
                let mu = self.model.mu_km(o.one_way_ms);
                let sigma = self.model.sigma_km(o.one_way_ms);
                let min = (mu - RING_SIGMAS * sigma).max(0.0);
                let max = (mu + RING_SIGMAS * sigma).max(min);
                RingConstraint::ring(o.landmark, min, max).inflated(slack)
            })
            .collect();
        // Same weight-based multilateration as Quasi-Octant (§3.4: the
        // hybrid borrows "Quasi-Octant's ring-based multilateration").
        Prediction {
            region: max_consistent_subset(&constraints, mask, FastPath::Exact, &obs::Recorder::off()).region,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::CalibrationSet;
    use geokit::{GeoGrid, GeoPoint};

    fn model() -> SpotterModel {
        let mut pts = Vec::new();
        for i in 1..=400 {
            let t = f64::from(i) * 0.4;
            let wiggle = f64::from((i * 17) % 9) - 4.0;
            pts.push(((t * 95.0 + wiggle * (15.0 + t)).max(0.0), t));
        }
        let set = CalibrationSet::from_points(pts);
        SpotterModel::calibrate(&[&set])
    }

    #[test]
    fn rings_cover_clean_target() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(48.0, 10.0);
        let observations: Vec<Observation> = [(52.0, 4.0), (45.0, 15.0), (53.0, 14.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(lm, lm.distance_km(&truth) / 95.0, CalibrationSet::default())
            })
            .collect();
        let p = Hybrid::new(model()).locate(&observations, &mask);
        assert!(!p.region.is_empty());
        assert!(p.region.contains_point(&truth));
    }

    #[test]
    fn consistent_upward_bias_displaces_the_rings() {
        // The hybrid turns Spotter's soft evidence into hard cutoffs.
        // When every measurement carries the same upward bias (the
        // Windows/Web-tool regime of §4.3), all rings shift outward
        // together and the highest-scoring region lands away from the
        // truth — the ~50 % miss rate of Fig. 9.
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(48.0, 10.0);
        let obs: Vec<Observation> = [(50.0, 8.0), (46.0, 12.0), (50.0, 12.0)]
            .iter()
            .map(|&(lat, lon)| {
                let lm = GeoPoint::new(lat, lon);
                Observation::new(
                    lm,
                    lm.distance_km(&truth) / 95.0 + 60.0, // shared bias
                    CalibrationSet::default(),
                )
            })
            .collect();
        let p = Hybrid::new(model()).locate(&obs, &mask);
        assert!(!p.region.is_empty(), "weighted rings never come up empty");
        assert!(
            !p.region.contains_point(&truth),
            "a consistent 60 ms bias should displace the ring intersection"
        );
    }

    #[test]
    fn region_respects_mask() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::from_predicate(&grid, |p| p.lat() > 0.0);
        let obs = vec![Observation::new(
            GeoPoint::new(10.0, 10.0),
            10.0,
            CalibrationSet::default(),
        )];
        let p = Hybrid::new(model()).locate(&obs, &mask);
        for cell in p.region.cells() {
            assert!(grid.center(cell).lat() > 0.0);
        }
    }
}
