//! The `RouteKey` law for `ActiveUser`: requests that compare equal hash
//! alike — including profiles that differ only in the sign of a zero, which
//! `f64` equality cannot see. The batched duplicate collapse leans on it:
//! a violation would silently miss collapses.

use at_core::RouteKey;
use at_recommender::ActiveUser;
use at_synopsis::{Row, SparseRow};
use proptest::prelude::*;

/// Requests over a domain small enough that two draws are often equal.
fn users() -> impl Strategy<Value = ActiveUser> {
    let value = prop_oneof![Just(0.0), Just(-0.0), Just(1.0), Just(2.5)];
    (
        prop::collection::vec((0u32..3, value), 0..3),
        prop::collection::vec(0u32..3, 0..3),
    )
        .prop_map(|(pairs, targets)| ActiveUser::new(SparseRow::from_pairs(pairs), targets))
}

proptest! {
    #[test]
    fn equal_active_users_share_a_route_key(a in users(), b in users()) {
        if a == b {
            prop_assert_eq!(a.route_key(), b.route_key());
        }
        let mut flipped = a.profile().decode();
        for v in &mut flipped.vals {
            if *v == 0.0 {
                *v = -*v;
            }
        }
        let flipped = ActiveUser::new(flipped, a.targets.clone());
        prop_assert!(flipped == a);
        prop_assert_eq!(flipped.route_key(), a.route_key());
    }
}
