//! Serial vs parallel pipeline: the same collect→analyze work at pool
//! sizes 1 / 2 / 4, plus the export-path copy-on-write win. The
//! `scripts/bench_snapshot.sh` wrapper turns this suite into
//! `BENCH_5.json` so the perf trajectory is recorded per PR.
//!
//! On a single-core container the 2/4-thread numbers collapse back to
//! the serial ones (there is nothing to run them on); the point of
//! keeping all three is that the same snapshot file shows the scaling
//! as soon as the hardware has cores to offer.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use analysis::summary::full_report;
use bench::standard_scenario;
use bgp_model::asn::Asn;
use community_dict::ixp::IxpId;

/// One full collect pass at the given pool size.
fn bench_scenario_at(c: &mut Criterion, threads: usize) {
    par::set_threads_override(Some(threads));
    c.bench_function(format!("scenario_4ixp_scale_0.02_threads_{threads}"), |b| {
        b.iter(|| {
            standard_scenario(
                7,
                0.02,
                &[IxpId::Linx, IxpId::AmsIx, IxpId::Netnod, IxpId::Bcix],
            )
        })
    });
    par::set_threads_override(None);
}

/// One full analysis pass (every figure/table for every snapshot) at the
/// given pool size, over a pre-collected store.
fn bench_report_at(c: &mut Criterion, threads: usize) {
    let ixps = [IxpId::Linx, IxpId::AmsIx, IxpId::Netnod, IxpId::Bcix];
    let (store, dicts) = standard_scenario(7, 0.05, &ixps);
    let dicts: Vec<_> = ixps.iter().copied().zip(dicts).collect();
    par::set_threads_override(Some(threads));
    c.bench_function(format!("full_report_4ixp_threads_{threads}"), |b| {
        b.iter(|| black_box(full_report(&store, &dicts)))
    });
    par::set_threads_override(None);
}

/// The export path: exporting the full table to a peer shares routes
/// instead of deep-cloning them. The assertions pin the contract the
/// speedup rests on: routes the policy does not touch allocate **zero**
/// route copies, and routes the scrub changes are built once, not once
/// per export.
fn bench_export(c: &mut Criterion) {
    let mut rs = route_server::server::RouteServer::new(route_server::config::RsConfig::for_ixp(
        IxpId::Linx,
    ));
    for m in [Asn(39120), Asn(6939)] {
        rs.add_member(m, true, false);
    }
    for i in 0..200u32 {
        let r = bgp_model::route::Route::builder(
            format!("193.{}.{}.0/24", i / 250, i % 250)
                .parse()
                .expect("valid prefix"),
            "198.32.0.7".parse().expect("valid next hop"),
        )
        .path([39120, 4200])
        .build();
        rs.announce(Asn(39120), r);
    }
    // Unmodified exports must share, not copy: no prepend is configured
    // and the routes carry only info tags, so scrubbing is a no-op.
    let before = rs.stats().export_routes_copied;
    let exported = rs.export_to(Asn(6939));
    assert_eq!(exported.len(), 200);
    assert_eq!(
        rs.stats().export_routes_copied,
        before,
        "exporting unmodified routes must not allocate route copies"
    );
    assert!(rs.stats().export_routes_shared >= 200);
    c.bench_function("export_200_routes_shared_cow", |b| {
        b.iter(|| black_box(rs.export_to(Asn(6939))))
    });
    // Routes the scrub does change are built once, by the first export,
    // and then handed out like the others.
    rs.add_member(Asn(15169), true, false);
    let avoid = community_dict::schemes::avoid_community(IxpId::Linx, Asn(15169));
    let tagged: Vec<_> = exported
        .iter()
        .map(|r| {
            let mut r = bgp_model::route::Route::clone(r);
            r.standard_communities.push(avoid);
            r
        })
        .collect();
    for r in tagged {
        rs.announce(Asn(39120), r);
    }
    let before = rs.stats().export_routes_copied;
    assert_eq!(rs.export_to(Asn(6939)).len(), 200);
    assert_eq!(rs.stats().export_routes_copied, before + 200);
    assert_eq!(rs.export_to(Asn(6939)).len(), 200);
    assert_eq!(
        rs.stats().export_routes_copied,
        before + 200,
        "a second export of action-tagged routes must not build them again"
    );
}

fn bench_parallel(c: &mut Criterion) {
    for threads in [1, 2, 4] {
        bench_scenario_at(c, threads);
    }
    for threads in [1, 2, 4] {
        bench_report_at(c, threads);
    }
    bench_export(c);
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
