//! Differential checks of the streaming JSON layer against the tree.
//!
//! `serde_json` moves typed values to and from text without building a
//! `Value`; the `Value` tree survives as a type with its own serializer
//! and deserializer. That gives each half a second route to the same
//! answer, and these properties hold the two routes equal:
//!
//! - **reading** — for hostile and for almost-valid text,
//!   `from_str::<T>(s)` never panics and agrees with
//!   `from_value::<T>(parse_value(s)?)`: the same value, or both errors;
//! - **writing** — `to_string(v)` / `to_string_pretty(v)` equal printing
//!   `to_value(v)`, and the text reads back as `v`.
//!
//! Inputs come from the crate's shrinking generator, so a failure prints
//! a minimal frame, not a 100 KB page.

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::net::IpAddr;
use std::panic::catch_unwind;
use std::sync::{Arc, OnceLock};

use analysis::summary::{full_report, FullReport};
use bgp_model::asn::Asn;
use bgp_model::prefix::Afi;
use chaos::prelude::*;
use community_dict::ixp::IxpId;
use ixp_sim::world::{build_ixp, WorldConfig};
use looking_glass::api::{LgError, LgRequest, LgResponse, TraceContext, TracedRequest};
use looking_glass::client::Collector;
use looking_glass::server::{LgServer, RateLimiter};
use looking_glass::snapshot::{Snapshot, SnapshotStore};
use parking_lot::RwLock;
use serde::{Deserialize, DeserializeOwned, Serialize};

type Wire = Result<LgResponse, LgError>;

/// One small simulated IXP behind an LG with the rate limiter opened.
fn lg() -> &'static LgServer {
    static LG: OnceLock<LgServer> = OnceLock::new();
    LG.get_or_init(|| {
        let world = build_ixp(
            IxpId::Linx,
            &WorldConfig {
                seed: 11,
                scale: 0.02,
            },
        );
        let lg = LgServer::new(Arc::new(RwLock::new(world.rs)), 5);
        lg.set_limiter(RateLimiter::new(u32::MAX, 1e9));
        lg
    })
}

/// Every response the LG serves for one full collection of both
/// families (summary, every page of every peer, both tables), plus the
/// config endpoints, a feed page, and each error.
fn lg_frames() -> &'static [Wire] {
    static FRAMES: OnceLock<Vec<Wire>> = OnceLock::new();
    FRAMES.get_or_init(|| {
        let lg = lg();
        let mut frames = vec![
            lg.handle(&LgRequest::RsConfig, 0),
            lg.handle(&LgRequest::RsConfigText, 0),
            Err(LgError::RateLimited),
            Err(LgError::Transport("a \"quoted\"\n\tline \\ \u{1}".into())),
            lg.handle(
                &LgRequest::Routes {
                    peer: Asn(4_200_000_000),
                    afi: Afi::Ipv4,
                    filtered: false,
                    page: 0,
                },
                0,
            ),
        ];
        for afi in [Afi::Ipv4, Afi::Ipv6] {
            let summary = lg.handle(&LgRequest::Summary { afi }, 0);
            let Ok(LgResponse::Summary { members, .. }) = &summary else {
                panic!("summary failed: {summary:?}");
            };
            for (member, filtered) in members.iter().flat_map(|m| [(m, false), (m, true)]) {
                for page in 0.. {
                    let routes = LgRequest::Routes {
                        peer: member.asn,
                        afi,
                        filtered,
                        page,
                    };
                    let response = lg.handle(&routes, 0);
                    // the page past the end is a frame too
                    let done = response.is_err();
                    frames.push(response);
                    if done {
                        break;
                    }
                }
            }
            frames.push(summary);
        }
        // last, so that enabling the feed cannot disturb the pages above
        frames.push(lg.handle(
            &LgRequest::StreamPoll {
                session: 0,
                after: 0,
            },
            0,
        ));
        frames
    })
}

fn snapshot() -> &'static Snapshot {
    static SNAPSHOT: OnceLock<Snapshot> = OnceLock::new();
    SNAPSHOT.get_or_init(|| {
        let mut transport = lg();
        Collector::default()
            .collect(&mut transport, Afi::Ipv4, 3, 0)
            .expect("an in-process collection of a healthy LG")
            .snapshot
    })
}

fn report() -> &'static FullReport {
    static REPORT: OnceLock<FullReport> = OnceLock::new();
    REPORT.get_or_init(|| {
        let mut store = SnapshotStore::new();
        store.insert(snapshot().clone());
        let dicts = [(
            IxpId::Linx,
            community_dict::schemes::dictionary(IxpId::Linx),
        )];
        full_report(&store, &dicts)
    })
}

// --------------------------------------------------------------------------
// reading
// --------------------------------------------------------------------------

/// The property of the reading half, for one target type.
fn reads_agree<T: DeserializeOwned + PartialEq + Debug>(bytes: &[u8]) -> bool {
    let direct = catch_unwind(|| serde_json::from_slice::<T>(bytes));
    let via_tree = catch_unwind(|| {
        let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
        let tree = serde_json::parse_value(text).map_err(|e| e.to_string())?;
        serde_json::from_value::<T>(tree).map_err(|e| e.to_string())
    });
    match (direct, via_tree) {
        (Ok(Ok(a)), Ok(Ok(b))) => a == b,
        (Ok(Err(_)), Ok(Err(_))) => true,
        _ => false,
    }
}

fn reads_agree_for_every_type(bytes: &[u8]) -> bool {
    reads_agree::<Wire>(bytes)
        && reads_agree::<TracedRequest>(bytes)
        && reads_agree::<Snapshot>(bytes)
        && reads_agree::<FullReport>(bytes)
}

/// Small valid frames of each type: the seeds the mutator works from.
/// Small on purpose — a mutation should land on structure, not in the
/// middle of the four-hundredth community.
fn seed_frames() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(|| {
        fn json<T: Serialize>(value: &T) -> String {
            serde_json::to_string(value).expect("frames serialize")
        }
        let mut seeds = Vec::new();
        for frame in lg_frames() {
            let small = match frame {
                Ok(LgResponse::Routes {
                    routes,
                    page,
                    total_pages,
                }) => Ok(LgResponse::Routes {
                    routes: routes.iter().take(2).cloned().collect(),
                    page: *page,
                    total_pages: *total_pages,
                }),
                Ok(LgResponse::Summary { ixp, members }) => Ok(LgResponse::Summary {
                    ixp: *ixp,
                    members: members.iter().take(3).cloned().collect(),
                }),
                Ok(LgResponse::RsConfig { entries }) => Ok(LgResponse::RsConfig {
                    entries: entries.iter().take(3).cloned().collect(),
                }),
                Ok(LgResponse::RsConfigText { text }) => Ok(LgResponse::RsConfigText {
                    text: text.lines().take(4).collect::<Vec<_>>().join("\n"),
                }),
                Ok(LgResponse::StreamEvents {
                    session,
                    frames,
                    backlog,
                    resync,
                }) => Ok(LgResponse::StreamEvents {
                    session: *session,
                    // a peer-up and an announce
                    frames: frames
                        .iter()
                        .take(1)
                        .chain(frames.last())
                        .cloned()
                        .collect(),
                    backlog: *backlog,
                    resync: *resync,
                }),
                Err(e) => Err(e.clone()),
            };
            seeds.push(json(&small));
        }
        // a few hundred near-identical pages add nothing: keep one frame
        // of each length class
        seeds.sort_by_key(String::len);
        seeds.dedup_by_key(|s| s.len() / 64);
        let trace = TraceContext {
            trace_id: u64::MAX,
            span_id: 2,
            slot: 3,
        };
        for req in [
            LgRequest::RsConfig,
            LgRequest::Summary { afi: Afi::Ipv6 },
            LgRequest::Routes {
                peer: Asn(6939),
                afi: Afi::Ipv4,
                filtered: true,
                page: 7,
            },
            LgRequest::StreamPoll {
                session: 1,
                after: 99,
            },
        ] {
            seeds.push(json(&TracedRequest { trace, req }));
        }
        let mut snap = snapshot().clone();
        snap.routes.truncate(3);
        snap.members.truncate(4);
        seeds.push(json(&snap));
        seeds.push(serde_json::to_string_pretty(&snap).expect("frames serialize"));
        let mut small_report = report().clone();
        small_report.snapshots.truncate(1);
        seeds.push(json(&small_report));
        seeds.push(json(&FullReport::default()));
        seeds
    })
}

/// JSON's own alphabet, so that random edits produce structure (and
/// near-misses of it) far more often than uniform bytes would.
const ALPHABET: &[u8] = b"{}[]\":,\\ \n-+.0123456789eEtruefalsnul/bu\xc3\xa9\xff\x00\x1f";

fn gen_byte(c: &mut Choices) -> u8 {
    if c.draw_bool(800) {
        ALPHABET[c.draw(ALPHABET.len() as u64 - 1) as usize]
    } else {
        c.draw(255) as u8
    }
}

fn gen_bytes(c: &mut Choices) -> Vec<u8> {
    let len = c.draw(48) as usize;
    (0..len).map(|_| gen_byte(c)).collect()
}

/// A random position in `frame` whose byte satisfies `anchor`, if any.
fn pick(c: &mut Choices, frame: &[u8], anchor: impl Fn(u8) -> bool) -> Option<usize> {
    let at: Vec<usize> = (0..frame.len()).filter(|i| anchor(frame[*i])).collect();
    (!at.is_empty()).then(|| at[c.draw(at.len() as u64 - 1) as usize])
}

/// The end of the run of bytes satisfying `member` that starts at `from`.
fn run_end(frame: &[u8], from: usize, member: impl Fn(u8) -> bool) -> usize {
    from + frame[from..].iter().take_while(|b| member(**b)).count()
}

/// A valid frame with one to three edits. Half of them aim at structure
/// and keep the text well-formed — an unknown field with nested content
/// after a `{`, a number swapped for another (negative, fractional, too
/// big), a value swapped for `null`, a key renamed (one field unknown,
/// one missing), a string given an escape or a control character — so
/// that both routes get past the syntax and have to agree on meaning.
/// The rest are blunt: overwrite, insert or delete a byte, copy a slice
/// elsewhere (duplicate keys, doubled elements), cut one out, truncate.
fn gen_mutated_frame(c: &mut Choices) -> Vec<u8> {
    let seeds = seed_frames();
    let mut frame = seeds[c.draw(seeds.len() as u64 - 1) as usize]
        .clone()
        .into_bytes();
    for _ in 0..=c.draw(2) {
        if frame.is_empty() {
            break;
        }
        let at = c.draw(frame.len() as u64 - 1) as usize;
        let span = (c.draw(40) as usize).min(frame.len() - at);
        match c.draw(11) {
            0 => {
                if let Some(open) = pick(c, &frame, |b| b == b'{') {
                    frame.splice(open + 1..open + 1, *b"\"x\":{\"y\":[1,{}],\"z\":\"\\\"\"},");
                }
            }
            1 | 2 => {
                if let Some(digit) = pick(c, &frame, |b| b.is_ascii_digit()) {
                    let end = run_end(&frame, digit, |b| b.is_ascii_digit());
                    let with: &[u8] = match c.draw(6) {
                        0 => b"0",
                        1 => b"-1",
                        2 => b"2.5",
                        3 => b"3e0",
                        4 => b"1e400",
                        5 => b"18446744073709551616",
                        _ => b"\"7\"",
                    };
                    frame.splice(digit..end, with.iter().copied());
                }
            }
            3 => {
                // the value after a random colon, if it is a scalar
                if let Some(colon) = pick(c, &frame, |b| b == b':') {
                    let end = run_end(&frame, colon + 1, |b| !b",}]".contains(&b));
                    frame.splice(colon + 1..end, *b"null");
                }
            }
            4 => {
                if let Some(quote) = pick(c, &frame, |b| b == b'"') {
                    let end = run_end(&frame, quote + 1, |b| b != b'"');
                    frame.splice(quote + 1..end, *b"zz");
                }
            }
            5 => {
                if let Some(quote) = pick(c, &frame, |b| b == b'"') {
                    let with: &[u8] = match c.draw(4) {
                        0 => b"\\n",
                        1 => b"\\u0041",
                        2 => b"\\ud83d\\ude00",
                        3 => b"\\ud800",
                        _ => b"\x01\xc3\xa9",
                    };
                    frame.splice(quote + 1..quote + 1, with.iter().copied());
                }
            }
            6 => frame[at] = gen_byte(c),
            7 => frame.insert(at, gen_byte(c)),
            8 => {
                frame.remove(at);
            }
            9 => {
                let slice = frame[at..at + span].to_vec();
                let to = c.draw(frame.len() as u64) as usize;
                frame.splice(to..to, slice);
            }
            10 => {
                frame.drain(at..at + span);
            }
            _ => frame.truncate(at),
        }
    }
    frame
}

/// The reading property, with the text shown as text when it fails.
fn agree(bytes: &[u8]) -> bool {
    assert!(
        reads_agree_for_every_type(bytes),
        "from_str and from_value(parse_value) disagree (or one panicked) on {:?}",
        String::from_utf8_lossy(bytes)
    );
    true
}

#[test]
fn arbitrary_bytes_read_the_same_with_and_without_the_tree() {
    let config = CheckConfig {
        iterations: 4_000,
        ..CheckConfig::default()
    };
    assert_holds(&config, gen_bytes, |b| agree(b));
}

#[test]
fn mutated_frames_read_the_same_with_and_without_the_tree() {
    // the seeds themselves must read back, or the mutator is editing noise
    for seed in seed_frames() {
        assert!(reads_agree_for_every_type(seed.as_bytes()), "{seed}");
    }
    assert!(seed_frames()
        .iter()
        .any(|s| serde_json::from_str::<Wire>(s).is_ok()));
    let config = CheckConfig {
        iterations: 3_000,
        ..CheckConfig::default()
    };
    assert_holds(&config, gen_mutated_frame, |b| agree(b));
}

#[test]
fn mutation_reaches_every_verdict() {
    // a mutator that only ever produced garbage (or never broke a frame)
    // would make the property above vacuous: it must yield text that is
    // not JSON, JSON that no type accepts, and JSON that some type does
    let (mut malformed, mut mistyped, mut accepted) = (0, 0, 0);
    for i in 0..400 {
        let frame = gen_mutated_frame(&mut Choices::from_seed(iteration_seed(7, i)));
        let well_formed = serde_json::from_slice::<serde_json::Value>(&frame).is_ok();
        let typed = serde_json::from_slice::<Wire>(&frame).is_ok()
            || serde_json::from_slice::<TracedRequest>(&frame).is_ok()
            || serde_json::from_slice::<Snapshot>(&frame).is_ok()
            || serde_json::from_slice::<FullReport>(&frame).is_ok();
        match (well_formed, typed) {
            (false, _) => malformed += 1,
            (true, false) => mistyped += 1,
            (true, true) => accepted += 1,
        }
    }
    assert!(
        malformed >= 40 && mistyped >= 40 && accepted >= 30,
        "{malformed} malformed, {mistyped} mistyped, {accepted} accepted"
    );
}

// --------------------------------------------------------------------------
// writing
// --------------------------------------------------------------------------

/// The property of the writing half: the streamed text is the printed
/// tree, compact and pretty, and reads back as the value.
fn assert_writes_agree<T: Serialize + DeserializeOwned + PartialEq + Debug>(value: &T, what: &str) {
    let tree = serde_json::to_value(value).expect("to_value");
    let compact = serde_json::to_string(value).expect("to_string");
    let pretty = serde_json::to_string_pretty(value).expect("to_string_pretty");
    assert!(
        compact == serde_json::to_string(&tree).expect("tree prints"),
        "{what}: compact text differs from the printed tree"
    );
    assert!(
        pretty == serde_json::to_string_pretty(&tree).expect("tree prints"),
        "{what}: pretty text differs from the printed tree"
    );
    assert_eq!(
        serde_json::to_vec(value).expect("to_vec"),
        compact.as_bytes()
    );
    assert_eq!(
        serde_json::to_vec_pretty(value).expect("to_vec_pretty"),
        pretty.as_bytes()
    );
    assert!(
        serde_json::from_str::<T>(&compact).expect("compact reads back") == *value
            && serde_json::from_str::<T>(&pretty).expect("pretty reads back") == *value,
        "{what}: text does not read back as the value"
    );
    assert_eq!(
        serde_json::parse_value(&pretty).expect("pretty parses"),
        tree
    );
}

#[test]
fn every_lg_page_of_a_world_writes_as_its_tree() {
    let frames = lg_frames();
    let pages = frames
        .iter()
        .filter(|f| matches!(f, Ok(LgResponse::Routes { .. })))
        .count();
    let out_of_range = frames
        .iter()
        .filter(|f| matches!(f, Err(LgError::PageOutOfRange { .. })))
        .count();
    assert!(
        pages > 50 && out_of_range > 20,
        "{pages} pages, {out_of_range} ends"
    );
    assert!(frames
        .iter()
        .any(|f| matches!(f, Ok(LgResponse::Routes { total_pages, .. }) if *total_pages > 1)));
    for (i, frame) in frames.iter().enumerate() {
        assert_writes_agree(frame, &format!("LG frame {i}"));
    }
}

#[test]
fn snapshot_report_and_telemetry_write_as_their_trees() {
    assert_writes_agree(snapshot(), "snapshot");
    assert!(!report().snapshots.is_empty());
    assert_writes_agree(report(), "full report");
    // by now the world build and the collection above have recorded into
    // the global registry: counters, gauges and histograms all present
    let _ = snapshot();
    let telemetry = obs::global().snapshot();
    assert!(!telemetry.counters.is_empty() && !telemetry.histograms.is_empty());
    assert_writes_agree(&telemetry, "obs snapshot");
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Oddity {
    Unit,
    Newtype(Option<char>),
    Pair(i64, String),
    Record {
        empty: Vec<()>,
        #[serde(default)]
        nothing: Option<Box<Oddity>>,
    },
}

/// Everything the pages above do not carry: strings that need every
/// escape, non-ASCII, integer- and bool- and enum-keyed maps, `None`s,
/// empty containers at every position, nested variants, extremes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Awkward {
    text: String,
    by_int: BTreeMap<i32, Oddity>,
    by_bool: BTreeMap<bool, Vec<Vec<u8>>>,
    by_variant: BTreeMap<Afi, (u8, Option<f32>, IpAddr)>,
    extremes: (u64, i64, f64, f64),
    nested: Result<Vec<Oddity>, Oddity>,
    empty_map: BTreeMap<String, u8>,
}

fn awkward() -> Awkward {
    let all_escapes: String = (0u8..0x30).map(char::from).collect();
    Awkward {
        text: format!("{all_escapes}\\\"/\u{7f}\u{80}é漢😀\u{2028}"),
        by_int: [
            (-7, Oddity::Unit),
            (0, Oddity::Newtype(None)),
            (1, Oddity::Newtype(Some('"'))),
            (2, Oddity::Pair(i64::MIN, String::new())),
            (
                i32::MAX,
                Oddity::Record {
                    empty: vec![(), ()],
                    nothing: Some(Box::new(Oddity::Record {
                        empty: vec![],
                        nothing: None,
                    })),
                },
            ),
        ]
        .into(),
        by_bool: [(false, vec![]), (true, vec![vec![], vec![0, 255]])].into(),
        by_variant: [
            (Afi::Ipv4, (1, None, "192.0.2.1".parse().unwrap())),
            (Afi::Ipv6, (2, Some(0.1), "2001:db8::1".parse().unwrap())),
        ]
        .into(),
        extremes: (u64::MAX, i64::MIN, f64::MIN_POSITIVE, -1.5e300),
        nested: Ok(vec![Oddity::Unit, Oddity::Pair(-1, "\n".into())]),
        empty_map: BTreeMap::new(),
    }
}

#[test]
fn awkward_values_write_as_their_trees() {
    let value = awkward();
    assert_writes_agree(&value, "awkward value");
    let flipped = Awkward {
        nested: Err(Oddity::Newtype(Some('\u{0}'))),
        ..value
    };
    assert_writes_agree(&flipped, "awkward value, Err side");
}

#[test]
fn non_finite_floats_write_as_null_on_both_routes() {
    // they do not read back (null is not a float), so only the writers
    // are compared
    let value = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 1e21];
    let tree = serde_json::to_value(&value).unwrap();
    let compact = serde_json::to_string(&value).unwrap();
    assert_eq!(compact, "[null,null,null,-0,1000000000000000000000]");
    assert_eq!(compact, serde_json::to_string(&tree).unwrap());
    assert_eq!(
        serde_json::to_string_pretty(&value).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap()
    );
}
