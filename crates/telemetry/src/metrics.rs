//! Metric primitives: span aggregates.

/// Wall-time aggregate of one span name.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanAgg {
    /// Times the span was opened and closed.
    pub count: u64,
    /// Total nanoseconds across all closings (saturating).
    pub total_ns: u64,
    /// Longest single closing, nanoseconds.
    pub max_ns: u64,
}

impl SpanAgg {
    /// Folds one closed span into the aggregate.
    pub fn record(&mut self, elapsed_ns: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(elapsed_ns);
        self.max_ns = self.max_ns.max(elapsed_ns);
    }

    /// Mean nanoseconds per closing (0 when never closed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_agg_means() {
        let mut a = SpanAgg::default();
        assert_eq!(a.mean_ns(), 0);
        a.record(10);
        a.record(30);
        assert_eq!(a.count, 2);
        assert_eq!(a.total_ns, 40);
        assert_eq!(a.max_ns, 30);
        assert_eq!(a.mean_ns(), 20);
    }
}
