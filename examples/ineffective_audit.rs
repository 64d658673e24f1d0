//! §5.5/§5.6 as an operator tool: audit which of an AS's action
//! communities are *ineffective* (target ASes with no session at the RS)
//! and quantify the overhead they impose.
//!
//! The paper's take: operators tag non-members on purpose — "to avoid
//! traffic disruptions should a 'to-avoid' AS connect to the IXP RS one
//! day" — at the price of pure processing overhead for the RS. This
//! audit shows both sides for every member of a synthetic AMS-IX world.
//! `tests/static_dynamic_ineffective.rs` checks, on the same world, that
//! the static verifier predicts the route server's ineffective targets.
//!
//! ```text
//! cargo run --release --example ineffective_audit
//! ```

use std::collections::BTreeMap;

use ixp_actions::prelude::*;

fn main() {
    let ixp = IxpId::AmsIx;
    let world = build_ixp(
        ixp,
        &WorldConfig {
            seed: 11,
            scale: 0.05,
        },
    );
    let rs = &world.rs;
    let dict = rs.dictionary();

    // tally per announcing member: total action instances vs ineffective
    let mut per_member: BTreeMap<Asn, (u64, u64)> = BTreeMap::new();
    for (announcer, route) in rs.accepted().iter() {
        for c in &route.standard_communities {
            if let Some(action) = dict.classify(*c).action() {
                let entry = per_member.entry(announcer).or_insert((0, 0));
                entry.0 += 1;
                if action.target.is_ineffective(|asn| rs.is_member(asn)) {
                    entry.1 += 1;
                }
            }
        }
    }

    let mut rows: Vec<(Asn, u64, u64)> = per_member
        .into_iter()
        .filter(|(_, (_, bad))| *bad > 0)
        .map(|(asn, (total, bad))| (asn, total, bad))
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));

    let mut table = TextTable::new(
        format!("{ixp}: members whose action communities target non-RS ASes"),
        &["AS", "Name", "Action instances", "Ineffective", "Waste"],
    );
    for (asn, total, bad) in rows.iter().take(12) {
        table.row([
            asn.to_string(),
            community_dict::known::name_of(*asn),
            total.to_string(),
            bad.to_string(),
            format!("{:.1}%", *bad as f64 / *total as f64 * 100.0),
        ]);
    }
    println!("{}", table.render());

    // the RS-side cost, straight from the server's own accounting
    let stats = rs.stats();
    println!(
        "route server processed {} action instances; {} ({:.1}%) target non-members\n\
         — no routing effect, pure processing/memory overhead (§5.5).",
        stats.action_instances,
        stats.ineffective_action_instances,
        stats.ineffective_fraction() * 100.0
    );

    // §5.6: what the operators told the authors
    println!(
        "\nwhy operators do it anyway: if one of those ASes joins the RS tomorrow,\n\
         the protection is already in place — no reconfiguration race, no traffic leak."
    );
}
