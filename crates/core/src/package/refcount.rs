//! External root management: reference counts on nodes plus the pinned
//! root-edge weights the complex-table sweep needs.

use crate::package::store::HasStore;
use crate::package::DdPackage;
use crate::types::{Edge, MatEdge, VecEdge};
use qdd_complex::ComplexIdx;

impl DdPackage {
    /// One implementation of root registration for both arities: count the
    /// node, pin the edge's own weight (node roots are counted on the nodes
    /// themselves, but a root edge's weight lives only in the caller's copy
    /// of the edge).
    fn inc_ref_generic<const N: usize>(&mut self, e: Edge<N>)
    where
        Self: HasStore<N>,
    {
        if !e.is_terminal() {
            self.store_mut().inc_rc(e.node);
        }
        *self.root_weights.entry(e.weight).or_insert(0) += 1;
    }

    fn dec_ref_generic<const N: usize>(&mut self, e: Edge<N>, label: &'static str)
    where
        Self: HasStore<N>,
    {
        if !e.is_terminal() {
            self.store_mut().dec_rc(e.node, label);
        }
        self.release_root_weight(e.weight);
    }

    /// Marks a vector edge as an external root, protecting it from
    /// [`Self::garbage_collect`].
    pub fn inc_ref_vec(&mut self, e: VecEdge) {
        self.inc_ref_generic(e);
    }

    /// Releases an external root previously registered with
    /// [`Self::inc_ref_vec`].
    ///
    /// # Panics
    ///
    /// Panics if the edge's root count is already zero.
    pub fn dec_ref_vec(&mut self, e: VecEdge) {
        self.dec_ref_generic(e, "unbalanced dec_ref_vec");
    }

    /// Marks a matrix edge as an external root.
    pub fn inc_ref_mat(&mut self, e: MatEdge) {
        self.inc_ref_generic(e);
    }

    /// Releases an external matrix root.
    ///
    /// # Panics
    ///
    /// Panics if the edge's root count is already zero.
    pub fn dec_ref_mat(&mut self, e: MatEdge) {
        self.dec_ref_generic(e, "unbalanced dec_ref_mat");
    }

    fn release_root_weight(&mut self, w: ComplexIdx) {
        if let Some(rc) = self.root_weights.get_mut(&w) {
            *rc -= 1;
            if *rc == 0 {
                self.root_weights.remove(&w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::package::DdPackage;

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn unbalanced_dec_ref_panics() {
        let mut dd = DdPackage::new();
        let e = dd.zero_state(1).unwrap();
        dd.dec_ref_vec(e);
    }

    #[test]
    fn ref_round_trip_is_balanced() {
        let mut dd = DdPackage::new();
        let v = dd.zero_state(2).unwrap();
        let m = dd.identity(2).unwrap();
        dd.inc_ref_vec(v);
        dd.inc_ref_mat(m);
        dd.inc_ref_vec(v);
        dd.dec_ref_vec(v);
        dd.dec_ref_vec(v);
        dd.dec_ref_mat(m);
        // Fully released roots are collectable again.
        let report = dd.garbage_collect();
        assert_eq!(report.live_vnodes, 0);
    }
}
