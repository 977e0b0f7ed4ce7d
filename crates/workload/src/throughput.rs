//! Per-job device throughput `X_j^r`, resolved against a cluster catalog.

use hadar_cluster::{GpuCatalog, GpuTypeId};

use crate::model::DlTask;

/// A job's iterations/second on each GPU type of a specific catalog:
/// the `X_j^r` row of the paper's throughput matrix.
///
/// Types the model cannot run on (unknown hardware) carry rate 0 and are
/// never selected by any scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputProfile {
    rates: Vec<f64>,
    /// Preference order (descending rate, zero-rate types excluded),
    /// precomputed at construction: `FIND_ALLOC` consults it for every
    /// candidate enumeration, so sorting on each call was pure waste.
    prefs: Vec<GpuTypeId>,
}

impl ThroughputProfile {
    /// Build a profile from explicit per-type rates (indexed by
    /// [`GpuTypeId`]).
    ///
    /// # Panics
    /// Panics if any rate is negative or NaN.
    pub fn from_rates(rates: Vec<f64>) -> Self {
        assert!(
            rates.iter().all(|x| x.is_finite() && *x >= 0.0),
            "throughput rates must be finite and non-negative"
        );
        let mut idx: Vec<usize> = (0..rates.len()).filter(|&i| rates[i] > 0.0).collect();
        idx.sort_by(|&a, &b| {
            rates[b]
                .partial_cmp(&rates[a])
                .expect("rates are finite")
                .then(a.cmp(&b))
        });
        let prefs = idx.into_iter().map(|i| GpuTypeId(i as u16)).collect();
        Self { rates, prefs }
    }

    /// Resolve a model's throughput table against a catalog.
    pub fn for_model(model: DlTask, catalog: &GpuCatalog) -> Self {
        Self::from_rates(
            catalog
                .iter()
                .map(|(_, name)| model.throughput_on(name).unwrap_or(0.0))
                .collect(),
        )
    }

    /// `X_j^r` for type `r` (0 for unknown types).
    #[inline]
    pub fn rate(&self, r: GpuTypeId) -> f64 {
        self.rates.get(r.index()).copied().unwrap_or(0.0)
    }

    /// The fastest type's rate, `max_r X_j^r`.
    pub fn max_rate(&self) -> f64 {
        self.rates.iter().copied().fold(0.0, f64::max)
    }

    /// The slowest *usable* type's rate, `min_r X_j^r` over types with
    /// non-zero rate. Returns 0.0 if the job can run nowhere.
    pub fn min_usable_rate(&self) -> f64 {
        self.rates
            .iter()
            .copied()
            .filter(|&x| x > 0.0)
            .reduce(f64::min)
            .unwrap_or(0.0)
    }

    /// GPU types sorted by descending rate (ties by id), zero-rate types
    /// excluded — the sort order used by `FIND_ALLOC` (Algorithm 2 line 23).
    /// Precomputed once at construction.
    #[inline]
    pub fn types_by_preference(&self) -> &[GpuTypeId] {
        &self.prefs
    }

    /// Number of type slots carried.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the profile carries no rates.
    pub fn is_empty(&self) -> bool {
        self.rates.is_empty()
    }

    /// Raw rates slice.
    pub fn raw(&self) -> &[f64] {
        &self.rates
    }

    /// Scale all rates by `factor` (used by the throughput profiler to model
    /// measurement noise and by ablations).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0);
        Self::from_rates(self.rates.iter().map(|x| x * factor).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_model_against_catalog() {
        let cat = GpuCatalog::from_names(["V100", "P100", "K80"]);
        let p = ThroughputProfile::for_model(DlTask::ResNet50, &cat);
        assert_eq!(p.rate(GpuTypeId(0)), 30.0);
        assert_eq!(p.rate(GpuTypeId(1)), 15.0);
        assert_eq!(p.rate(GpuTypeId(2)), 3.0);
        assert_eq!(p.max_rate(), 30.0);
        assert_eq!(p.min_usable_rate(), 3.0);
    }

    #[test]
    fn unknown_types_rate_zero_and_excluded_from_preference() {
        let cat = GpuCatalog::from_names(["V100", "FPGA-X"]);
        let p = ThroughputProfile::for_model(DlTask::Lstm, &cat);
        assert_eq!(p.rate(GpuTypeId(1)), 0.0);
        assert_eq!(p.types_by_preference(), vec![GpuTypeId(0)]);
        // Out-of-range id reads 0.
        assert_eq!(p.rate(GpuTypeId(9)), 0.0);
    }

    #[test]
    fn preference_order_is_descending_rate() {
        let p = ThroughputProfile::from_rates(vec![15.0, 30.0, 3.0]);
        assert_eq!(
            p.types_by_preference(),
            vec![GpuTypeId(1), GpuTypeId(0), GpuTypeId(2)]
        );
    }

    #[test]
    fn preference_ties_break_by_id() {
        let p = ThroughputProfile::from_rates(vec![5.0, 5.0]);
        assert_eq!(p.types_by_preference(), vec![GpuTypeId(0), GpuTypeId(1)]);
    }

    #[test]
    fn min_usable_rate_of_unrunnable_job_is_zero() {
        let p = ThroughputProfile::from_rates(vec![0.0, 0.0]);
        assert_eq!(p.min_usable_rate(), 0.0);
        assert!(p.types_by_preference().is_empty());
    }

    #[test]
    fn scaled_multiplies_rates() {
        let p = ThroughputProfile::from_rates(vec![10.0, 4.0]).scaled(0.5);
        assert_eq!(p.rate(GpuTypeId(0)), 5.0);
        assert_eq!(p.rate(GpuTypeId(1)), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn rejects_negative_rates() {
        ThroughputProfile::from_rates(vec![-1.0]);
    }
}
