//! WGS84 geographic points and distance computations.

use crate::error::GeoTextError;
use crate::EARTH_RADIUS_KM;

/// A geographic location: latitude/longitude in decimal degrees (WGS84).
///
/// This is the paper's location attribute `o.l` ("a pair of
/// geo-coordinates"). Latitude is constrained to `[-90, 90]` and longitude
/// to `[-180, 180]`; use [`GeoPoint::new`] for checked construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoPoint {
    /// Latitude in decimal degrees, positive north.
    pub lat: f64,
    /// Longitude in decimal degrees, positive east.
    pub lon: f64,
}

impl GeoPoint {
    /// Creates a point, validating coordinate ranges and rejecting
    /// non-finite values.
    pub fn new(lat: f64, lon: f64) -> Result<Self, GeoTextError> {
        if !lat.is_finite() || !lon.is_finite() {
            return Err(GeoTextError::InvalidCoordinate { lat, lon });
        }
        if !(-90.0..=90.0).contains(&lat) || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoTextError::InvalidCoordinate { lat, lon });
        }
        Ok(Self { lat, lon })
    }

    /// Creates a point without range validation.
    ///
    /// Intended for trusted internal call sites (e.g. index node centres
    /// derived from already-validated data). Debug builds still assert.
    #[must_use]
    pub fn new_unchecked(lat: f64, lon: f64) -> Self {
        debug_assert!(lat.is_finite() && lon.is_finite());
        Self { lat, lon }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    ///
    /// Accurate to ~0.5% everywhere on Earth, which is far below the
    /// granularity of the paper's 5 km × 5 km query ranges.
    #[must_use]
    pub fn haversine_km(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }

    /// Fast approximate distance in kilometres using the equirectangular
    /// projection. Suitable for short distances (city scale) where it is
    /// within ~0.1% of haversine, and ~2.5x cheaper (no `asin`).
    #[must_use]
    pub fn equirectangular_km(&self, other: &GeoPoint) -> f64 {
        let mean_lat = ((self.lat + other.lat) / 2.0).to_radians();
        let dx = (other.lon - self.lon).to_radians() * mean_lat.cos();
        let dy = (other.lat - self.lat).to_radians();
        EARTH_RADIUS_KM * (dx * dx + dy * dy).sqrt()
    }

    /// Returns the point displaced by `dlat_km` kilometres north and
    /// `dlon_km` kilometres east (small-displacement approximation).
    ///
    /// Used by the synthetic data generator to scatter POIs around city
    /// centres and to build query ranges of a given physical size.
    #[must_use]
    pub fn offset_km(&self, dlat_km: f64, dlon_km: f64) -> GeoPoint {
        let dlat = (dlat_km / EARTH_RADIUS_KM).to_degrees();
        let lat_rad = self.lat.to_radians();
        // Guard against cos(lat) -> 0 near the poles; city data never gets
        // there, but the math should stay finite.
        let cos_lat = lat_rad.cos().max(1e-9);
        let dlon = (dlon_km / (EARTH_RADIUS_KM * cos_lat)).to_degrees();
        GeoPoint::new_unchecked(
            (self.lat + dlat).clamp(-90.0, 90.0),
            wrap_lon(self.lon + dlon),
        )
    }
}

/// Wraps a longitude into `[-180, 180]`.
fn wrap_lon(lon: f64) -> f64 {
    let mut l = (lon + 180.0) % 360.0;
    if l < 0.0 {
        l += 360.0;
    }
    l - 180.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(GeoPoint::new(91.0, 0.0).is_err());
        assert!(GeoPoint::new(-91.0, 0.0).is_err());
        assert!(GeoPoint::new(0.0, 181.0).is_err());
        assert!(GeoPoint::new(0.0, -181.0).is_err());
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::INFINITY).is_err());
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
    }

    #[test]
    fn haversine_zero_for_identical_points() {
        let a = p(36.1627, -86.7816); // Nashville
        assert_eq!(a.haversine_km(&a), 0.0);
    }

    #[test]
    fn haversine_known_distance_nashville_to_philadelphia() {
        // Nashville TN to Philadelphia PA is ~1,090 km great circle.
        let nash = p(36.1627, -86.7816);
        let phil = p(39.9526, -75.1652);
        let d = nash.haversine_km(&phil);
        assert!((d - 1090.0).abs() < 20.0, "got {d}");
    }

    #[test]
    fn haversine_symmetry() {
        let a = p(39.7684, -86.1581);
        let b = p(38.6270, -90.1994);
        assert!((a.haversine_km(&b) - b.haversine_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn equirectangular_close_to_haversine_at_city_scale() {
        let a = p(39.7684, -86.1581);
        let b = a.offset_km(3.0, -4.0);
        let h = a.haversine_km(&b);
        let e = a.equirectangular_km(&b);
        assert!((h - e).abs() / h < 0.005, "h={h} e={e}");
    }

    #[test]
    fn offset_km_roundtrip_distance() {
        let a = p(34.4208, -119.6982); // Santa Barbara
        let b = a.offset_km(0.0, 5.0);
        let d = a.haversine_km(&b);
        assert!((d - 5.0).abs() < 0.02, "got {d}");
        let c = a.offset_km(5.0, 0.0);
        let d2 = a.haversine_km(&c);
        assert!((d2 - 5.0).abs() < 0.02, "got {d2}");
    }

    #[test]
    fn wrap_lon_wraps() {
        assert!((wrap_lon(190.0) - -170.0).abs() < 1e-9);
        assert!((wrap_lon(-190.0) - 170.0).abs() < 1e-9);
        assert!((wrap_lon(0.0) - 0.0).abs() < 1e-9);
    }
}
