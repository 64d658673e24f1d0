//! The five workloads and what they share: the [`Workload`] contract the
//! session runner drives, the two timing adapters wrapped around the
//! injection points the crates already offer ([`LgTransport`],
//! [`DeltaConsumer`]), the seeded day-over-day churn plan, and the
//! fingerprint used by every output check.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use bgp_model::prefix::Prefix;
use bgp_model::route::Route;
use community_dict::dictionary::Dictionary;
use community_dict::ixp::IxpId;
use community_dict::schemes;
use ixp_sim::world::{build_ixp, IxpWorld, WorldConfig};
use looking_glass::api::{LgError, LgRequest, LgResponse};
use looking_glass::client::{CollectionReport, LgTransport};
use looking_glass::snapshot::Snapshot;
use route_server::server::RouteServer;
use stream::state::{DeltaConsumer, RouteDelta};

use crate::trace::Tracer;

pub mod lg_tcp_collect;
pub mod longitudinal_poll;
pub mod longitudinal_stream;
pub mod repro_batch;
pub mod wire_ingest;

/// Name and one-line reason of every workload, in reporting order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        repro_batch::NAME,
        "the paper's one-shot evaluation: world build, in-process collection, batch analysis, render; the only one where par fans out",
    ),
    (
        longitudinal_poll::NAME,
        "84 polled days with churn, a flaky LG, a batch report per day and sanitation: per-day fixed costs and retries matter only here",
    ),
    (
        longitudinal_stream::NAME,
        "the same timeline through the feed and the incremental engine: batch analysis does nothing, the feed log shows in peak_rss_mb",
    ),
    (
        wire_ingest::NAME,
        "routes enter the RS as UPDATE bytes: bgp-wire and RS ingest/export do all the work, looking-glass, stream and analysis none",
    ),
    (
        lg_tcp_collect::NAME,
        "collection over loopback TCP and JSON, which the in-process workloads bypass: a serde_json or transport gain shows only here",
    ),
];

/// The sizes one workload runs at, stamped into the run manifest.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Params {
    /// IXPs whose worlds are built.
    pub ixps: Vec<String>,
    /// `WorldConfig::scale`.
    pub scale: f64,
    /// Simulated days (0: not a timeline).
    pub days: u32,
    /// Share of routes withdrawn and re-announced per day.
    pub churn_per_day: f64,
    /// Collection rounds per repetition (0: not applicable).
    pub rounds: u32,
    /// What `items` counts.
    pub item: String,
}

/// Operations attempted and failed: collections that errored or came
/// back partial, UPDATEs that failed to decode or ingest, output checks
/// that did not match.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(why.into());
        }
    }

    /// One output check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }
}

/// What one timed repetition reports besides its artifacts.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// The workload's stated item count (exact per seed).
    pub items: u64,
    /// Per-day latency, end of the day's churn → serialized report.
    pub day_ms: Vec<f64>,
    /// Layer counts (`<layer>.<what>_n`) and measured layer values that
    /// are not span times (`..._ms_p50`).
    pub counts: Vec<(&'static str, f64)>,
}

/// One workload. `prepare` builds the inputs (set-up), `stage` makes the
/// per-repetition mutable state from them (untimed), `run` is the timed
/// region, `verify` compares one repetition's artifacts with a reference
/// computed another way, `fingerprint` hashes them (it must be equal
/// across repetitions of a seed), `probe` measures per-layer values
/// after a run. Only `run` is timed.
pub trait Workload {
    type Inputs;
    type Staged;
    type Artifacts;

    fn params(tiny: bool) -> Params;
    fn prepare(params: &Params, seed: u64, tr: &Tracer) -> Self::Inputs;
    fn stage(inputs: &Self::Inputs) -> Self::Staged;
    fn run(
        inputs: &Self::Inputs,
        staged: Self::Staged,
        tr: &Tracer,
        ops: &mut Ops,
    ) -> (Summary, Self::Artifacts);
    fn verify(inputs: &Self::Inputs, artifacts: &Self::Artifacts, ops: &mut Ops);
    fn fingerprint(artifacts: &Self::Artifacts) -> u64;
    fn probe(inputs: &Self::Inputs, artifacts: &Self::Artifacts) -> Vec<(&'static str, f64)>;
}

/// The seed every world is built from, whatever `--seed` says.
///
/// The simulator's seed decides the *structure* of a world — which few
/// large networks dominate it and how heavily each tags its routes —
/// and that moves the cost of every workload (measured: the
/// interquartile spread of `wall_s` over ten seeds was 8–11% of the
/// median on every workload, against under 1% between runs of one
/// seed). A 10% regression bound cannot live under that, so the
/// structure is pinned and `--seed` drives what the harness itself
/// generates: which routes churn on which day, which requests the flaky
/// LG fails, which routes leak as more-specifics, and the order LGs and
/// families are polled in.
pub const WORLD_SEED: u64 = 0x1C0_FFEE;

/// One IXP's world at `scale`, under the `ixp-sim.build_world` span.
pub fn build_pinned_world(ixp: IxpId, scale: f64, tr: &Tracer) -> IxpWorld {
    let config = WorldConfig {
        seed: WORLD_SEED,
        scale,
    };
    tr.span("ixp-sim.build_world", || build_ixp(ixp, &config))
}

/// `items` in a seeded random order (Fisher–Yates).
pub fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0540_FF1E);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
    items
}

pub fn ixp_by_name(name: &str) -> IxpId {
    IxpId::ALL
        .into_iter()
        .find(|i| i.short_name() == name)
        .expect("params name an IXP of the dictionary")
}

// ---------------------------------------------------------------------
// fingerprints
// ---------------------------------------------------------------------

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a, 64 bit, chained through `hash`.
pub fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

// ---------------------------------------------------------------------
// timing adapters
// ---------------------------------------------------------------------

/// An [`LgTransport`] that folds every request's time into the aggregate
/// span `name` and keeps the per-request latencies. With the tracer off
/// it forwards and reads no clock.
pub struct TimedTransport<'a, T> {
    inner: &'a mut T,
    tr: &'a Tracer,
    name: &'static str,
    /// Per-request latency, milliseconds (traced runs only).
    pub latencies_ms: Vec<f64>,
}

impl<'a, T: LgTransport> TimedTransport<'a, T> {
    pub fn new(inner: &'a mut T, tr: &'a Tracer, name: &'static str) -> Self {
        TimedTransport {
            inner,
            tr,
            name,
            latencies_ms: Vec::new(),
        }
    }
}

impl<T: LgTransport> LgTransport for TimedTransport<'_, T> {
    fn request(&mut self, req: &LgRequest, now_ms: u64) -> Result<LgResponse, LgError> {
        if !self.tr.enabled() {
            return self.inner.request(req, now_ms);
        }
        let start = std::time::Instant::now();
        let inner = &mut *self.inner;
        let out = self.tr.busy(self.name, || inner.request(req, now_ms));
        self.latencies_ms
            .push(start.elapsed().as_secs_f64() * 1000.0);
        out
    }

    fn is_real_time(&self) -> bool {
        self.inner.is_real_time()
    }
}

/// A [`DeltaConsumer`] that folds the inner consumer's time into the
/// aggregate span `name`.
pub struct TimedConsumer<'a, C> {
    pub inner: &'a mut C,
    pub tr: &'a Tracer,
    pub name: &'static str,
}

impl<C: DeltaConsumer> DeltaConsumer for TimedConsumer<'_, C> {
    fn on_delta(&mut self, ixp: IxpId, delta: &RouteDelta<'_>) {
        let inner = &mut *self.inner;
        self.tr.busy(self.name, || inner.on_delta(ixp, delta));
    }
}

// ---------------------------------------------------------------------
// polled collections
// ---------------------------------------------------------------------

/// Running totals over the polled collections of one repetition.
#[derive(Default)]
pub struct CollectTally {
    pub requests: u64,
    pub retries: u64,
    pub partial: u64,
    pub routes: u64,
}

impl CollectTally {
    /// Count one collection as an attempted operation — failed when it
    /// errored or came back partial — and hand back its snapshot.
    pub fn record(
        &mut self,
        what: impl std::fmt::Display,
        collected: Result<CollectionReport, LgError>,
        ops: &mut Ops,
    ) -> Option<Snapshot> {
        ops.attempt(1);
        match collected {
            Ok(c) => {
                self.requests += c.requests;
                self.retries += c.failures;
                self.routes += c.snapshot.route_count() as u64;
                if c.snapshot.partial {
                    self.partial += 1;
                    ops.fail(format!("{what}: partial snapshot"));
                }
                Some(c.snapshot)
            }
            Err(e) => {
                ops.fail(format!("{what}: collection failed: {e:?}"));
                None
            }
        }
    }

    pub fn counts(&self) -> [(&'static str, f64); 3] {
        [
            ("looking-glass.requests_n", self.requests as f64),
            ("looking-glass.retries_n", self.retries as f64),
            ("looking-glass.partial_n", self.partial as f64),
        ]
    }
}

// ---------------------------------------------------------------------
// day-over-day churn
// ---------------------------------------------------------------------

/// One simulated day on the shared virtual clock.
pub const DAY_MS: u64 = 86_400_000;

/// What both timelines are set up with: one IXP's world, its
/// dictionary, and the seeded churn plan.
pub struct Timeline {
    pub ixp: IxpId,
    pub seed: u64,
    pub days: u32,
    pub dicts: Vec<(IxpId, Dictionary)>,
    pub rs: RouteServer,
    pub plan: ChurnPlan,
}

impl Timeline {
    pub fn prepare(params: &Params, seed: u64, tr: &Tracer) -> Self {
        let ixp = ixp_by_name(&params.ixps[0]);
        let dicts = tr.span("community-dict.dictionary_build", || {
            vec![(ixp, schemes::dictionary(ixp))]
        });
        let world = build_pinned_world(ixp, params.scale, tr);
        let plan = ChurnPlan::new(&world.rs, params.days, params.churn_per_day, seed);
        Timeline {
            ixp,
            seed,
            days: params.days,
            dicts,
            rs: world.rs,
            plan,
        }
    }
}

/// Which routes leave the RIB on each day. A route withdrawn on day `d`
/// is re-announced at the start of day `d + 1`, so the table keeps its
/// size and differs from day to day.
pub struct ChurnPlan {
    /// Every accepted route of the built world, in RIB order.
    pub routes: Vec<(Asn, Route)>,
    /// Per day, indices into `routes` withdrawn that day.
    pub withdrawn: Vec<Vec<usize>>,
}

impl ChurnPlan {
    pub fn new(rs: &RouteServer, days: u32, share: f64, seed: u64) -> Self {
        let routes: Vec<(Asn, Route)> = rs
            .accepted()
            .iter()
            .map(|(peer, route)| (peer, route.clone()))
            .collect();
        let per_day = ((routes.len() as f64 * share).round() as usize).max(1);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00C4_0291);
        let mut withdrawn: Vec<Vec<usize>> = Vec::with_capacity(days as usize);
        for day in 0..days as usize {
            // yesterday's picks are out of the table when today's are drawn
            let out: BTreeSet<usize> = match day {
                0 => BTreeSet::new(),
                d => withdrawn[d - 1].iter().copied().collect(),
            };
            let mut picked = BTreeSet::new();
            while picked.len() < per_day.min(routes.len() - out.len()) {
                let i = rng.random_range(0..routes.len());
                if !out.contains(&i) {
                    picked.insert(i);
                }
            }
            withdrawn.push(picked.into_iter().collect());
        }
        ChurnPlan { routes, withdrawn }
    }

    /// Apply day `day`'s churn; returns the number of RIB mutations.
    pub fn apply(&self, rs: &mut RouteServer, day: usize) -> u64 {
        let mut events = 0;
        if day > 0 {
            for &i in &self.withdrawn[day - 1] {
                let (peer, route) = &self.routes[i];
                rs.announce(*peer, route.clone());
                events += 1;
            }
        }
        for &i in &self.withdrawn[day] {
            let (peer, route) = &self.routes[i];
            rs.withdraw(*peer, &route.prefix);
            events += 1;
        }
        events
    }
}

// ---------------------------------------------------------------------
// probes
// ---------------------------------------------------------------------

/// `community-dict.classify_ns_per_community`: `classify_route` over a
/// final route set, outside any timed region.
pub fn classify_probe<'a>(
    dict: &Dictionary,
    routes: impl Iterator<Item = &'a Route>,
) -> (&'static str, f64) {
    let start = std::time::Instant::now();
    let mut communities = 0u64;
    let mut actions = 0u64;
    for route in routes {
        for (_, class) in community_dict::classify::classify_route(dict, route) {
            communities += 1;
            actions += u64::from(class.action().is_some());
        }
    }
    std::hint::black_box(actions);
    let ns = start.elapsed().as_nanos() as f64;
    (
        "community-dict.classify_ns_per_community",
        ns / communities.max(1) as f64,
    )
}

/// The (peer, prefix) set a route server holds.
pub fn rib_keys(rs: &RouteServer) -> BTreeSet<(Asn, Prefix)> {
    rs.accepted()
        .iter()
        .map(|(peer, route)| (peer, route.prefix))
        .collect()
}
