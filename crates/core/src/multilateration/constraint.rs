//! Ring/disk constraints and their intersection.
//!
//! A constraint says "the target is between `min_km` and `max_km` from
//! this landmark" (a disk when `min_km` is zero — CBG's case — or an
//! annulus — Octant's). The intersection engine exploits the structure of
//! the problem: the *smallest* disk confines the search, so it is
//! rasterized once and every other constraint is evaluated as a
//! point-in-ring test on the survivors. Most constraints are wildly
//! slack ("ineffective", §5.2), so this is orders of magnitude cheaper
//! than rasterizing every disk.

use geokit::{CapRaster, GeoGrid, GeoPoint, Region, SphericalCap};

/// One per-landmark distance constraint.
#[derive(Debug, Clone, Copy)]
pub struct RingConstraint {
    /// The landmark.
    pub center: GeoPoint,
    /// Minimum distance, km (0 for a plain disk).
    pub min_km: f64,
    /// Maximum distance, km.
    pub max_km: f64,
}

impl RingConstraint {
    /// A plain disk constraint.
    pub fn disk(center: GeoPoint, max_km: f64) -> RingConstraint {
        RingConstraint {
            center,
            min_km: 0.0,
            max_km,
        }
    }

    /// A ring constraint.
    ///
    /// # Panics
    /// Panics if `min_km > max_km` or either is not finite.
    pub fn ring(center: GeoPoint, min_km: f64, max_km: f64) -> RingConstraint {
        assert!(
            min_km.is_finite() && max_km.is_finite() && min_km >= 0.0 && min_km <= max_km,
            "bad ring bounds [{min_km}, {max_km}]"
        );
        RingConstraint {
            center,
            min_km,
            max_km,
        }
    }

    /// Point-in-constraint test.
    #[inline]
    pub fn contains(&self, p: &GeoPoint) -> bool {
        let d = self.center.distance_km(p);
        d >= self.min_km && d <= self.max_km
    }

    /// Inflate the constraint by `slack_km` on both sides (outer radius
    /// grows, inner radius shrinks, floored at zero).
    ///
    /// Used for coverage-preserving rasterization: a region is the set of
    /// *cell centres* satisfying every constraint, and a cell centre can
    /// be up to half a cell diagonal away from the true location, so any
    /// sound grid evaluation must widen constraints by that much (see
    /// [`grid_slack_km`]). Without this, a constraint tighter than one
    /// cell silently excludes the very cell the target sits in.
    pub fn inflated(&self, slack_km: f64) -> RingConstraint {
        assert!(slack_km >= 0.0, "negative slack {slack_km}");
        RingConstraint {
            center: self.center,
            min_km: (self.min_km - slack_km).max(0.0),
            max_km: self.max_km + slack_km,
        }
    }

    /// Snap both radii to whole grid cells of `grid`: the outer radius
    /// rounds **up** (at least one cell), the inner radius rounds
    /// **down** (an inner radius that floors to zero cells is dropped,
    /// leaving a plain disk). One cell is `resolution_deg × 111.32` km,
    /// an equatorial cell height.
    ///
    /// Sound: the snapped constraint contains the exact one, so a region
    /// intersected from snapped constraints only over-covers — it never
    /// excludes the true location. The growth is bounded by one cell of
    /// radius on each side, below the rasterization slack the engine
    /// already applies ([`grid_slack_km`]).
    ///
    /// CBG++ applies this on the fast path of its subset search
    /// ([`FastPath::Snapped`](crate::multilateration::FastPath)). The
    /// counting sweep and the bestline overlap filter keep exact radii.
    pub fn snapped_to_cells(&self, grid: &GeoGrid) -> RingConstraint {
        let cell_km = grid.resolution_deg() * 111.32;
        let outer_cells = ((self.max_km / cell_km).ceil()).max(1.0) as u32;
        let inner_cells = (self.min_km / cell_km).floor() as u32;
        RingConstraint {
            center: self.center,
            min_km: f64::from(inner_cells) * cell_km,
            max_km: f64::from(outer_cells) * cell_km,
        }
    }
}

/// The rasterization slack for a grid: slightly more than half the
/// diagonal of an equatorial cell (cells shrink towards the poles, so
/// this is conservative everywhere).
pub fn grid_slack_km(grid: &geokit::GeoGrid) -> f64 {
    0.75 * grid.resolution_deg() * 111.32
}

/// The per-row allowed column runs of one constraint: the outer cap's
/// runs minus (for annuli) the inner cap's. Cells whose centre is at
/// exactly `min_km` from an annulus centre fall to the inner cap and are
/// excluded — a measure-zero boundary convention shared with
/// [`Region::from_ring`].
pub(crate) struct ConstraintRaster<'g> {
    outer: CapRaster<'g>,
    inner: Option<CapRaster<'g>>,
}

impl<'g> ConstraintRaster<'g> {
    pub(crate) fn new(grid: &'g GeoGrid, c: &RingConstraint) -> ConstraintRaster<'g> {
        ConstraintRaster {
            outer: CapRaster::new(grid, &SphericalCap::new(c.center, c.max_km)),
            inner: (c.min_km > 0.0)
                .then(|| CapRaster::new(grid, &SphericalCap::new(c.center, c.min_km))),
        }
    }

    /// The rows the outer cap touches.
    pub(crate) fn rows(&self) -> std::ops::Range<u32> {
        self.outer.rows()
    }

    /// Replace `out` with `row`'s allowed half-open column runs, sorted
    /// and disjoint. Disk constraints (no inner cap, the common case)
    /// allocate nothing here.
    pub(crate) fn row_runs_into(&self, row: u32, out: &mut Vec<(u32, u32)>) {
        out.clear();
        self.outer.row_runs(row, |lo, hi| out.push((lo, hi)));
        if out.is_empty() {
            return;
        }
        if let Some(inner) = &self.inner {
            let mut inn = [(0u32, 0u32); 2];
            let mut n = 0usize;
            inner.row_runs(row, |lo, hi| {
                inn[n] = (lo, hi);
                n += 1;
            });
            if n > 0 {
                subtract_sorted(out, &inn[..n]);
            }
        }
    }
}

/// `a -= b` for sorted disjoint half-open run lists.
fn subtract_sorted(a: &mut Vec<(u32, u32)>, b: &[(u32, u32)]) {
    let mut out = Vec::with_capacity(a.len() + b.len());
    for &(alo, ahi) in a.iter() {
        let mut lo = alo;
        for &(blo, bhi) in b {
            if bhi <= lo || blo >= ahi {
                continue;
            }
            if blo > lo {
                out.push((lo, blo));
            }
            lo = lo.max(bhi);
            if lo >= ahi {
                break;
            }
        }
        if lo < ahi {
            out.push((lo, ahi));
        }
    }
    *a = out;
}

/// `out = a ∩ b` for sorted disjoint half-open run lists.
fn intersect_sorted(a: &[(u32, u32)], b: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
}

/// Intersect all constraints with each other and the mask. Returns the
/// (possibly empty) region of mask cells satisfying every constraint.
///
/// The intersection runs row-by-row in closed form: each constraint's
/// allowed columns on a latitude row are at most a handful of contiguous
/// runs (one `acos` per cap per row), and run lists intersect by a
/// linear merge — no per-cell distance is ever computed. Surviving runs
/// land in the output region a whole `u64` word at a time.
pub fn intersect_constraints(constraints: &[RingConstraint], mask: &Region) -> Region {
    let grid = mask.grid();
    if constraints.is_empty() {
        return mask.clone();
    }
    // Anchor on the tightest (smallest max radius) constraint: only its
    // latitude band can survive, so only its rows are visited.
    let anchor = constraints
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.max_km
                .partial_cmp(&b.1.max_km)
                .expect("finite radii")
        })
        .map(|(i, _)| i)
        .expect("nonempty constraints");
    let rasters: Vec<ConstraintRaster<'_>> = constraints
        .iter()
        .map(|c| ConstraintRaster::new(grid, c))
        .collect();

    let mut out = Region::empty(std::sync::Arc::clone(grid));
    let mut cur: Vec<(u32, u32)> = Vec::new();
    let mut other: Vec<(u32, u32)> = Vec::new();
    let mut next: Vec<(u32, u32)> = Vec::new();
    for row in rasters[anchor].rows() {
        rasters[anchor].row_runs_into(row, &mut cur);
        for (i, raster) in rasters.iter().enumerate() {
            if i == anchor || cur.is_empty() {
                continue;
            }
            raster.row_runs_into(row, &mut other);
            intersect_sorted(&cur, &other, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        for &(lo, hi) in &cur {
            out.insert_run(row, lo..hi);
        }
    }
    out.intersect_with(mask);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geokit::GeoGrid;

    fn full_mask() -> Region {
        Region::full(GeoGrid::new(1.0))
    }

    #[test]
    fn single_disk_matches_cap_rasterization() {
        let mask = full_mask();
        let c = RingConstraint::disk(GeoPoint::new(50.0, 10.0), 1200.0);
        let region = intersect_constraints(&[c], &mask);
        let direct = Region::from_cap(
            mask.grid(),
            &SphericalCap::new(GeoPoint::new(50.0, 10.0), 1200.0),
        );
        assert_eq!(region.cell_count(), direct.cell_count());
    }

    #[test]
    fn belgium_style_intersection() {
        // The paper's Fig. 1: Bourges 500 km, Cromer 500 km, Randers
        // 800 km ⇒ roughly Belgium.
        let mask = full_mask();
        let cs = [
            RingConstraint::disk(GeoPoint::new(47.08, 2.40), 500.0), // Bourges
            RingConstraint::disk(GeoPoint::new(52.93, 1.30), 500.0), // Cromer
            RingConstraint::disk(GeoPoint::new(56.46, 10.04), 800.0), // Randers
        ];
        let region = intersect_constraints(&cs, &mask);
        assert!(!region.is_empty());
        assert!(region.contains_point(&GeoPoint::new(50.85, 4.35))); // Brussels
        assert!(!region.contains_point(&GeoPoint::new(48.86, 2.35))); // Paris: too far from Cromer
        assert!(!region.contains_point(&GeoPoint::new(52.52, 13.40))); // Berlin
    }

    #[test]
    fn ring_excludes_inner_disk() {
        let mask = full_mask();
        let center = GeoPoint::new(0.0, 0.0);
        let c = RingConstraint::ring(center, 1000.0, 2500.0);
        let region = intersect_constraints(&[c], &mask);
        assert!(!region.contains_point(&center));
        assert!(region.contains_point(&center.destination(90.0, 1800.0)));
    }

    #[test]
    fn disjoint_constraints_give_empty_region() {
        let mask = full_mask();
        let cs = [
            RingConstraint::disk(GeoPoint::new(60.0, 0.0), 400.0),
            RingConstraint::disk(GeoPoint::new(-60.0, 180.0), 400.0),
        ];
        assert!(intersect_constraints(&cs, &mask).is_empty());
    }

    #[test]
    fn mask_is_respected() {
        let grid = GeoGrid::new(1.0);
        // Mask = northern hemisphere only.
        let mask = Region::from_predicate(&grid, |p| p.lat() > 0.0);
        let c = RingConstraint::disk(GeoPoint::new(0.0, 0.0), 3000.0);
        let region = intersect_constraints(&[c], &mask);
        assert!(!region.is_empty());
        for cell in region.cells() {
            assert!(grid.center(cell).lat() > 0.0);
        }
    }

    #[test]
    fn no_constraints_returns_mask() {
        let grid = GeoGrid::new(2.0);
        let mask = Region::from_predicate(&grid, |p| p.lat().abs() < 10.0);
        let region = intersect_constraints(&[], &mask);
        assert_eq!(region.cell_count(), mask.cell_count());
    }

    #[test]
    #[should_panic(expected = "bad ring bounds")]
    fn inverted_ring_panics() {
        RingConstraint::ring(GeoPoint::new(0.0, 0.0), 10.0, 5.0);
    }

    #[test]
    fn snapped_intersection_covers_the_exact_one() {
        let mask = full_mask();
        let cs = [
            RingConstraint::disk(GeoPoint::new(47.08, 2.40), 512.0),
            RingConstraint::disk(GeoPoint::new(52.93, 1.30), 487.0),
            RingConstraint::ring(GeoPoint::new(56.46, 10.04), 150.0, 803.0),
        ];
        let snapped: Vec<RingConstraint> =
            cs.iter().map(|c| c.snapped_to_cells(mask.grid())).collect();
        let exact = intersect_constraints(&cs, &mask);
        let snapped = intersect_constraints(&snapped, &mask);
        assert!(!exact.is_empty());
        assert!(
            exact.is_subset_of(&snapped),
            "snapping must only over-cover"
        );
        // Growth is bounded by one grid cell of radius per disk: the
        // snapped region sits inside the exact intersection of the
        // constraints inflated by one cell.
        let inflated: Vec<RingConstraint> = cs.iter().map(|c| c.inflated(111.33)).collect();
        assert!(snapped.is_subset_of(&intersect_constraints(&inflated, &mask)));
    }

    #[test]
    fn snapping_rounds_outer_up_and_inner_down_to_whole_cells() {
        // 2° cells are 222.64 km.
        let grid = GeoGrid::new(2.0);
        let c = RingConstraint::ring(GeoPoint::new(0.0, 0.0), 500.0, 600.0).snapped_to_cells(&grid);
        assert_eq!((c.min_km, c.max_km), (2.0 * 222.64, 3.0 * 222.64));
        // Outer at least one cell; an inner radius under one cell is dropped.
        let thin =
            RingConstraint::ring(GeoPoint::new(0.0, 0.0), 100.0, 150.0).snapped_to_cells(&grid);
        assert_eq!((thin.min_km, thin.max_km), (0.0, 222.64));
        let dot = RingConstraint::disk(GeoPoint::new(0.0, 0.0), 1.0e-9).snapped_to_cells(&grid);
        assert_eq!(dot.max_km, 222.64);
    }
}
