//! Axis-aligned minimum bounding rectangles (MBRs) in low-dimensional space.
//!
//! The synopsis pipeline reduces every data point to a `j`-dimensional
//! feature vector (`j` ≈ 3), so rectangles carry their dimensionality at
//! runtime rather than in the type; all operations assert agreement.

/// An axis-aligned box `[min, max]` in `dims()`-dimensional space.
#[derive(Clone, Debug, PartialEq)]
pub struct Rect {
    min: Vec<f64>,
    max: Vec<f64>,
}

impl Rect {
    /// Degenerate rectangle covering exactly one point.
    pub fn point(p: &[f64]) -> Self {
        Rect {
            min: p.to_vec(),
            max: p.to_vec(),
        }
    }

    /// Rectangle from explicit corners.
    ///
    /// # Panics
    /// Panics if lengths differ or any `min > max`.
    pub fn new(min: Vec<f64>, max: Vec<f64>) -> Self {
        assert_eq!(min.len(), max.len(), "Rect: corner dimensionality mismatch");
        for (lo, hi) in min.iter().zip(&max) {
            assert!(lo <= hi, "Rect: min {lo} > max {hi}");
        }
        Rect { min, max }
    }

    /// The "empty" rectangle (identity for [`Rect::union`]): +inf mins,
    /// -inf maxes.
    pub fn empty(dims: usize) -> Self {
        Rect {
            min: vec![f64::INFINITY; dims],
            max: vec![f64::NEG_INFINITY; dims],
        }
    }

    /// True if this is an identity/empty rectangle (never contains points).
    pub fn is_empty(&self) -> bool {
        self.min.iter().zip(&self.max).any(|(lo, hi)| lo > hi)
    }

    /// Dimensionality.
    #[inline]
    pub fn dims(&self) -> usize {
        self.min.len()
    }

    /// Lower corner.
    pub fn min(&self) -> &[f64] {
        &self.min
    }

    /// Upper corner.
    pub fn max(&self) -> &[f64] {
        &self.max
    }

    /// Hyper-volume (product of side lengths); `0.0` for empty rects.
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.min
            .iter()
            .zip(&self.max)
            .map(|(lo, hi)| hi - lo)
            .product()
    }

    /// Sum of side lengths (the R*-tree "margin"; cheap spread measure).
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.min.iter().zip(&self.max).map(|(lo, hi)| hi - lo).sum()
    }

    /// Smallest rectangle covering both `self` and `other`.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn union(&self, other: &Rect) -> Rect {
        assert_eq!(self.dims(), other.dims(), "union: dims mismatch");
        Rect {
            min: self
                .min
                .iter()
                .zip(&other.min)
                .map(|(a, b)| a.min(*b))
                .collect(),
            max: self
                .max
                .iter()
                .zip(&other.max)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// Grow in place to cover `other`.
    pub fn union_assign(&mut self, other: &Rect) {
        assert_eq!(self.dims(), other.dims(), "union_assign: dims mismatch");
        for (a, b) in self.min.iter_mut().zip(&other.min) {
            *a = a.min(*b);
        }
        for (a, b) in self.max.iter_mut().zip(&other.max) {
            *a = a.max(*b);
        }
    }

    /// Grow in place to cover point `p`.
    pub fn extend_point(&mut self, p: &[f64]) {
        assert_eq!(self.dims(), p.len(), "extend_point: dims mismatch");
        for (a, b) in self.min.iter_mut().zip(p) {
            *a = a.min(*b);
        }
        for (a, b) in self.max.iter_mut().zip(p) {
            *a = a.max(*b);
        }
    }

    /// Area increase required to cover `other` — Guttman's insertion
    /// heuristic ("least enlargement").
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// `(area increase, margin increase)` required to cover `other`.
    ///
    /// Point datasets routinely produce degenerate (zero-area) rectangles —
    /// e.g. collinear points — where every area enlargement is `0` and the
    /// Guttman heuristics stop discriminating. Comparing the pair
    /// lexicographically falls back to the margin (sum of side lengths),
    /// which stays informative in degenerate geometry.
    pub fn enlargement2(&self, other: &Rect) -> (f64, f64) {
        let u = self.union(other);
        (u.area() - self.area(), u.margin() - self.margin())
    }

    /// Whether `self` fully contains `other`.
    pub fn contains(&self, other: &Rect) -> bool {
        !other.is_empty()
            && self.min.iter().zip(&other.min).all(|(a, b)| a <= b)
            && self.max.iter().zip(&other.max).all(|(a, b)| a >= b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_rect_has_zero_area() {
        let r = Rect::point(&[1.0, 2.0, 3.0]);
        assert_eq!(r.area(), 0.0);
        assert_eq!(r.dims(), 3);
        assert!(r.contains(&Rect::point(&[1.0, 2.0, 3.0])));
    }

    #[test]
    fn area_and_margin() {
        let r = Rect::new(vec![0.0, 0.0], vec![2.0, 3.0]);
        assert_eq!(r.area(), 6.0);
        assert_eq!(r.margin(), 5.0);
    }

    #[test]
    fn empty_rect_behaviour() {
        let e = Rect::empty(2);
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        // union with empty is identity
        assert_eq!(e.union(&r), r);
        assert!(!r.contains(&e));
    }

    #[test]
    fn union_covers_both() {
        let a = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Rect::new(vec![2.0, -1.0], vec![3.0, 0.5]);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u.min(), &[0.0, -1.0]);
        assert_eq!(u.max(), &[3.0, 1.0]);
    }

    #[test]
    fn union_assign_matches_union() {
        let mut a = Rect::new(vec![0.0], vec![1.0]);
        let b = Rect::new(vec![5.0], vec![6.0]);
        let u = a.union(&b);
        a.union_assign(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn extend_point_grows_minimally() {
        let mut r = Rect::point(&[1.0, 1.0]);
        r.extend_point(&[3.0, 0.0]);
        assert_eq!(r.min(), &[1.0, 0.0]);
        assert_eq!(r.max(), &[3.0, 1.0]);
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let big = Rect::new(vec![0.0, 0.0], vec![10.0, 10.0]);
        let small = Rect::new(vec![1.0, 1.0], vec![2.0, 2.0]);
        assert_eq!(big.enlargement(&small), 0.0);
        assert!(small.enlargement(&big) > 0.0);
    }

    #[test]
    fn contains_is_inclusive() {
        let r = Rect::new(vec![0.0], vec![1.0]);
        assert!(r.contains(&Rect::point(&[0.0])));
        assert!(r.contains(&Rect::point(&[1.0])));
        assert!(!r.contains(&Rect::point(&[1.000001])));
        assert!(r.contains(&r));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn dims_mismatch_panics() {
        let a = Rect::point(&[0.0]);
        let b = Rect::point(&[0.0, 1.0]);
        a.union(&b);
    }

    #[test]
    #[should_panic(expected = "min")]
    fn inverted_corners_panic() {
        Rect::new(vec![1.0], vec![0.0]);
    }
}
