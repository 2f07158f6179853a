//! Metadata disambiguation of uncertain predictions (§6, Figs. 15–16).
//!
//! Two techniques let the paper reclassify 353 uncertain claims:
//!
//! * **Data centers** (Fig. 15): a commercial proxy must be *in a data
//!   center*; if the prediction region contains data centers of only one
//!   country, the proxy is there.
//! * **AS + /24 grouping** (Fig. 16): hosts sharing a provider, an AS,
//!   and a 24-bit network prefix "are practically certain to be in the
//!   same physical location", so the group's true country must be
//!   covered by *every* member's prediction region — the intersection of
//!   their touched-country sets.
//!
//! Both techniques only *find* a country ([`by_data_centers`],
//! [`by_touched_sets`]); [`resolve`] is the one rule that turns that
//! country into a verdict.

use crate::assess::Assessment;
use geokit::Region;
use worldmap::{CountryId, DataCenterRegistry};

/// The country a prediction region resolves to via data centers: `Some`
/// iff exactly one country has a data center inside the region.
pub fn by_data_centers(registry: &DataCenterRegistry, region: &Region) -> Option<CountryId> {
    match registry.countries_in_region(region).as_slice() {
        [only] => Some(*only),
        _ => None,
    }
}

/// The country a *group* of co-located proxies (same provider + AS +
/// /24) resolves to, given each member's touched-country set: `Some` iff
/// exactly one country is covered by every member's region.
pub fn by_touched_sets(sets: &[&[CountryId]]) -> Option<CountryId> {
    let mut common: Option<Vec<CountryId>> = None;
    for set in sets {
        let mut touched: Vec<CountryId> = set.to_vec();
        touched.sort_unstable();
        common = Some(match common {
            None => touched,
            Some(prev) => prev
                .into_iter()
                .filter(|c| touched.binary_search(c).is_ok())
                .collect(),
        });
    }
    match common.as_deref() {
        Some([only]) => Some(*only),
        _ => None,
    }
}

/// The one rule that turns an `Uncertain` verdict into `Credible` or
/// `False`: when metadata resolved the region to a single country, the
/// claim is credible if it names that country and false otherwise.
/// Every other assessment, and an unresolved region, passes through.
pub fn resolve(
    assessment: Assessment,
    resolved: Option<CountryId>,
    claimed: CountryId,
) -> Assessment {
    match (assessment, resolved) {
        (Assessment::Uncertain, Some(country)) if country == claimed => Assessment::Credible,
        (Assessment::Uncertain, Some(_)) => Assessment::False,
        _ => assessment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assess::assess_claim;
    use geokit::{GeoGrid, GeoPoint, SphericalCap};
    use std::sync::OnceLock;
    use worldmap::WorldAtlas;

    fn setup() -> &'static (WorldAtlas, DataCenterRegistry) {
        static S: OnceLock<(WorldAtlas, DataCenterRegistry)> = OnceLock::new();
        S.get_or_init(|| {
            let atlas = WorldAtlas::new(GeoGrid::new(0.5));
            let reg = DataCenterRegistry::from_atlas(&atlas);
            (atlas, reg)
        })
    }

    fn land_region(atlas: &WorldAtlas, lat: f64, lon: f64, r: f64) -> Region {
        Region::from_cap(atlas.grid(), &SphericalCap::new(GeoPoint::new(lat, lon), r))
            .intersection(atlas.land())
    }

    /// The group rule over each region's touched-country set.
    fn by_group(atlas: &WorldAtlas, regions: &[&Region]) -> Option<CountryId> {
        let sets: Vec<Vec<CountryId>> = regions
            .iter()
            .map(|r| {
                atlas
                    .countries_touched(r)
                    .into_iter()
                    .map(|(c, _)| c)
                    .collect()
            })
            .collect();
        let refs: Vec<&[CountryId]> = sets.iter().map(Vec::as_slice).collect();
        by_touched_sets(&refs)
    }

    #[test]
    fn resolve_truth_table() {
        use Assessment::*;
        let (claimed, other) = (7, 9);
        for (assessment, unresolved, named, elsewhere) in [
            (Credible, Credible, Credible, Credible),
            (Uncertain, Uncertain, Credible, False),
            (False, False, False, False),
            (Suspicious, Suspicious, Suspicious, Suspicious),
        ] {
            assert_eq!(resolve(assessment, None, claimed), unresolved);
            assert_eq!(resolve(assessment, Some(claimed), claimed), named);
            assert_eq!(resolve(assessment, Some(other), claimed), elsewhere);
        }
    }

    #[test]
    fn chile_argentina_case_resolves_to_chile() {
        let (atlas, reg) = setup();
        // Fig. 15: region straddles the Andes; only Chile has DCs there.
        let region = land_region(atlas, -33.5, -69.5, 450.0);
        let cl = atlas.country_by_iso2("cl").unwrap();
        assert_eq!(by_data_centers(reg, &region), Some(cl));
    }

    #[test]
    fn multi_dc_region_stays_unresolved() {
        let (atlas, reg) = setup();
        // Benelux + western Germany: data centers in several countries.
        let region = land_region(atlas, 50.8, 5.5, 400.0);
        assert_eq!(by_data_centers(reg, &region), None);
    }

    #[test]
    fn no_dc_region_stays_unresolved() {
        let (atlas, reg) = setup();
        // Deep Sahara.
        let region = land_region(atlas, 22.0, 5.0, 300.0);
        assert_eq!(by_data_centers(reg, &region), None);
    }

    #[test]
    fn colocation_group_narrows_to_common_country() {
        let (atlas, _) = setup();
        // Fig. 16: every region covers part of Canada; only some also
        // cross into the USA.
        let toronto = land_region(atlas, 44.5, -79.0, 260.0); // Canada + a US sliver
        let ottawa = land_region(atlas, 46.8, -76.0, 220.0); // Canada only
        let ca = atlas.country_by_iso2("ca").unwrap();
        assert_eq!(by_group(atlas, &[&toronto, &ottawa]), Some(ca));
    }

    #[test]
    fn colocation_group_can_stay_ambiguous() {
        let (atlas, _) = setup();
        let a = land_region(atlas, 45.0, -75.0, 600.0);
        let b = land_region(atlas, 44.0, -77.0, 600.0);
        assert_eq!(by_group(atlas, &[&a, &b]), None);
    }

    #[test]
    fn resolve_uncertain_to_false_when_dc_country_differs() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, -33.5, -69.5, 450.0); // resolves to Chile
        let ar = atlas.country_by_iso2("ar").unwrap();
        let verdict = assess_claim(atlas, &region, ar);
        assert_eq!(verdict.assessment, Assessment::Uncertain);
        let refined = resolve(verdict.assessment, by_data_centers(reg, &region), ar);
        assert_eq!(refined, Assessment::False);
    }

    #[test]
    fn resolve_uncertain_to_credible_when_dc_country_matches() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, -33.5, -69.5, 450.0);
        let cl = atlas.country_by_iso2("cl").unwrap();
        let verdict = assess_claim(atlas, &region, cl);
        assert_eq!(verdict.assessment, Assessment::Uncertain);
        let refined = resolve(verdict.assessment, by_data_centers(reg, &region), cl);
        assert_eq!(refined, Assessment::Credible);
    }

    #[test]
    fn credible_verdicts_pass_through() {
        let (atlas, reg) = setup();
        let region = land_region(atlas, 50.1, 8.7, 80.0);
        let de = atlas.country_by_iso2("de").unwrap();
        let verdict = assess_claim(atlas, &region, de);
        assert_eq!(verdict.assessment, Assessment::Credible);
        let refined = resolve(verdict.assessment, by_data_centers(reg, &region), de);
        assert_eq!(refined, Assessment::Credible);
    }
}
