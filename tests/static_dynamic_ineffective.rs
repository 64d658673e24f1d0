//! §5.5 cross-check: the static verifier predicts, from the dictionary
//! and the member set alone, exactly the ineffective-target set the
//! route server computes while executing policies.

use std::collections::BTreeSet;

use ixp_actions::prelude::*;

#[test]
fn static_prediction_matches_the_route_servers_ineffective_targets() {
    let world = build_ixp(
        IxpId::AmsIx,
        &WorldConfig {
            seed: 11,
            scale: 0.05,
        },
    );
    let rs = &world.rs;
    let members: BTreeSet<Asn> = rs.members().map(|m| m.asn).collect();
    let static_set = staticheck::policy::ineffective_targets(
        rs.dictionary(),
        &members,
        rs.accepted().iter().map(|(_, r)| r),
    );
    let mut dynamic_set: BTreeSet<Asn> = BTreeSet::new();
    for (peer, route) in rs.accepted().iter() {
        if let Some(policy) = rs.policy(peer, &route.prefix) {
            dynamic_set.extend(policy.peer_targets().filter(|t| !rs.is_member(*t)));
        }
    }
    assert!(
        !dynamic_set.is_empty(),
        "the world has no ineffective targets"
    );
    assert_eq!(
        static_set, dynamic_set,
        "static prediction and dynamic audit disagree on ineffective targets"
    );
}
