//! Constraint-Based Geolocation (§3.1): per-landmark bestline disks,
//! plain intersection.

use crate::algorithms::{Geolocator, Prediction};
use crate::delay_model::CbgModel;
use crate::multilateration::{intersect_constraints, RingConstraint};
use crate::observation::Observation;
use geokit::Region;

/// The CBG algorithm.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cbg;

impl Cbg {
    fn constraints(observations: &[Observation], mask: &Region) -> Vec<RingConstraint> {
        let slack = crate::multilateration::constraint::grid_slack_km(mask.grid());
        observations
            .iter()
            .map(|obs| {
                let model = CbgModel::calibrate(&obs.calibration);
                RingConstraint::disk(obs.landmark, model.max_distance_km(obs.one_way_ms))
                    .inflated(slack)
            })
            .collect()
    }
}

impl Geolocator for Cbg {
    fn name(&self) -> &'static str {
        "CBG"
    }

    fn locate(&self, observations: &[Observation], mask: &Region) -> Prediction {
        Prediction {
            region: intersect_constraints(&Self::constraints(observations, mask), mask),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas::CalibrationSet;
    use geokit::{GeoGrid, GeoPoint};

    /// Calibration implying an effective speed of exactly 100 km/ms.
    fn calib() -> CalibrationSet {
        CalibrationSet::from_points(
            (1..=50)
                .map(|i| {
                    let d = f64::from(i) * 200.0;
                    (d, d / 100.0 + 0.2 + f64::from(i % 5)) // floor + noise
                })
                .collect(),
        )
    }

    fn obs(lat: f64, lon: f64, truth: &GeoPoint, speed: f64) -> Observation {
        let lm = GeoPoint::new(lat, lon);
        // Measured delay slightly above the floor (small queueing).
        Observation::new(lm, lm.distance_km(truth) / speed + 1.5, calib())
    }

    #[test]
    fn covers_the_true_location() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(50.0, 8.0);
        // Delays at exactly the calibrated floor speed: disks are honest
        // upper bounds.
        let observations = vec![
            obs(52.0, 4.0, &truth, 100.0),
            obs(45.0, 12.0, &truth, 100.0),
            obs(55.0, 12.0, &truth, 100.0),
            obs(48.0, 2.0, &truth, 100.0),
        ];
        let p = Cbg.locate(&observations, &mask);
        assert!(!p.region.is_empty());
        assert!(p.region.contains_point(&truth), "CBG missed the truth");
    }

    #[test]
    fn closer_landmarks_shrink_the_region() {
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let truth = GeoPoint::new(50.0, 8.0);
        let far = vec![
            obs(20.0, -60.0, &truth, 100.0),
            obs(0.0, 100.0, &truth, 100.0),
        ];
        let near = vec![
            obs(51.0, 7.0, &truth, 100.0),
            obs(49.0, 9.0, &truth, 100.0),
        ];
        let p_far = Cbg.locate(&far, &mask);
        let p_near = Cbg.locate(&near, &mask);
        assert!(p_near.area_km2() < p_far.area_km2());
    }

    #[test]
    fn underestimating_disks_can_produce_empty_region() {
        // The §5.1 failure mode: measurements *faster* than the
        // calibrated bestline (e.g. the calibration was congested) give
        // disks that miss the target — and can be mutually exclusive.
        let grid = GeoGrid::new(1.0);
        let mask = Region::full(grid);
        let a = GeoPoint::new(50.0, 0.0);
        let b = GeoPoint::new(50.0, 40.0);
        // Both see tiny delays: disks of ~100 km around landmarks
        // 2800 km apart.
        let observations = vec![
            Observation::new(a, 1.2, calib()),
            Observation::new(b, 1.2, calib()),
        ];
        let p = Cbg.locate(&observations, &mask);
        assert!(p.region.is_empty());
    }

    #[test]
    fn no_observations_returns_mask() {
        let grid = GeoGrid::new(4.0);
        let mask = Region::full(grid);
        let p = Cbg.locate(&[], &mask);
        assert_eq!(p.region.cell_count(), mask.cell_count());
    }
}
