//! Property-based tests over the core data structures and invariants.

use h2push::h2proto::{
    DefaultScheduler, ErrorCode, Frame, PrioritySpec, PriorityTree, Scheduler, StreamSnapshot,
    DEFAULT_MAX_FRAME_SIZE, ROOT,
};
use h2push::hpack::{huffman, Decoder, Encoder, Header, HuffmanPolicy};
use h2push::metrics::{cdf_points, percentile, RunStats};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// HPACK
// ---------------------------------------------------------------------

fn header_strategy() -> impl Strategy<Value = Header> {
    // Names: lowercase token-ish; values: arbitrary visible bytes.
    (
        proptest::collection::vec(proptest::char::range('a', 'z'), 1..24),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(n, v)| Header {
            name: n.into_iter().collect::<String>().into_bytes(),
            value: v,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hpack_round_trips_any_header_list(
        headers in proptest::collection::vec(header_strategy(), 0..24),
        policy in prop_oneof![
            Just(HuffmanPolicy::Auto),
            Just(HuffmanPolicy::Never),
            Just(HuffmanPolicy::Always)
        ],
    ) {
        let mut enc = Encoder::new().with_policy(policy);
        let mut dec = Decoder::new();
        let block = enc.encode(&headers);
        let back = dec.decode(&block).unwrap();
        prop_assert_eq!(back, headers);
        // Table state stays synchronized.
        prop_assert_eq!(enc.table().size(), dec.table().size());
    }

    #[test]
    fn hpack_stateful_stream_round_trips(
        lists in proptest::collection::vec(
            proptest::collection::vec(header_strategy(), 0..8), 1..12),
    ) {
        let mut enc = Encoder::new();
        let mut dec = Decoder::new();
        for headers in &lists {
            let block = enc.encode(headers);
            let back = dec.decode(&block).unwrap();
            prop_assert_eq!(&back, headers);
        }
    }

    #[test]
    fn huffman_round_trips_any_bytes(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut out = Vec::new();
        huffman::encode(&data, &mut out);
        prop_assert_eq!(out.len(), huffman::encoded_len(&data));
        prop_assert_eq!(huffman::decode(&out).unwrap(), data);
    }

    #[test]
    fn huffman_decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = huffman::decode(&data); // may Err, must not panic
    }

    #[test]
    fn hpack_decoder_never_panics_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut dec = Decoder::new();
        let _ = dec.decode(&data); // may Err, must not panic
    }

    #[test]
    fn truncated_header_blocks_never_panic(
        headers in proptest::collection::vec(header_strategy(), 1..12),
    ) {
        // Truncated HEADERS payloads are exactly what a dying connection
        // feeds the decoder; any prefix must decode or Err, never panic.
        let mut enc = Encoder::new();
        let block = enc.encode(&headers);
        for cut in 0..block.len() {
            let mut dec = Decoder::new();
            let _ = dec.decode(&block[..cut]);
        }
    }

    #[test]
    fn bit_flipped_header_blocks_never_panic(
        headers in proptest::collection::vec(header_strategy(), 1..12),
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut enc = Encoder::new();
        let mut block = enc.encode(&headers);
        let i = flip % block.len();
        block[i] ^= 1 << bit;
        let mut dec = Decoder::new();
        let _ = dec.decode(&block); // may Err or mis-decode, must not panic
    }
}

// ---------------------------------------------------------------------
// HTTP/2 frames
// ---------------------------------------------------------------------

fn frame_strategy() -> impl Strategy<Value = Frame> {
    let stream = 1u32..1000;
    prop_oneof![
        (stream.clone(), 0usize..20_000, any::<bool>()).prop_map(|(s, len, fin)| Frame::Data {
            stream: s,
            len,
            end_stream: fin
        }),
        (stream.clone(), proptest::collection::vec(any::<u8>(), 0..200), any::<bool>()).prop_map(
            |(s, block, fin)| Frame::Headers {
                stream: s,
                block: block.into(),
                end_stream: fin,
                end_headers: true,
                priority: None,
            }
        ),
        (stream.clone(), 0u32..100, 1u16..=256, any::<bool>()).prop_map(|(s, dep, w, e)| {
            Frame::Priority {
                stream: s,
                spec: PrioritySpec { depends_on: dep, weight: w, exclusive: e },
            }
        }),
        (stream.clone()).prop_map(|s| Frame::RstStream { stream: s, code: ErrorCode::Cancel }),
        (stream.clone(), 1u32..0x7fff_ffff)
            .prop_map(|(s, inc)| Frame::WindowUpdate { stream: s, increment: inc }),
        (stream, 2u32..1000, proptest::collection::vec(any::<u8>(), 0..100)).prop_map(
            |(s, p, block)| Frame::PushPromise {
                stream: s,
                promised: p * 2,
                block: block.into(),
                end_headers: true
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frames_round_trip(frame in frame_strategy()) {
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let (decoded, used) = Frame::decode(&buf, 1 << 24).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn frame_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = Frame::decode(&data, DEFAULT_MAX_FRAME_SIZE);
    }

    #[test]
    fn truncated_frames_err_and_never_panic(frame in frame_strategy()) {
        // Every strict prefix of a valid frame is incomplete: decode must
        // report an error (so the connection waits for more bytes or dies
        // gracefully), never panic, and never fabricate a frame.
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        for cut in 0..buf.len() {
            prop_assert!(
                Frame::decode(&buf[..cut], 1 << 24).is_err(),
                "prefix of {cut}/{} bytes decoded", buf.len()
            );
        }
    }

    #[test]
    fn bit_flipped_frames_never_panic(
        frame in frame_strategy(),
        flip in any::<usize>(),
        bit in 0u8..8,
    ) {
        // A single flipped bit models in-flight corruption surviving the
        // checksum; the decoder may Err or produce a different (valid)
        // frame, but must never panic or read out of bounds.
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let i = flip % buf.len();
        buf[i] ^= 1 << bit;
        let _ = Frame::decode(&buf, DEFAULT_MAX_FRAME_SIZE);
        let _ = Frame::decode(&buf, 1 << 24);
    }

    #[test]
    fn frame_stream_reassembles_from_arbitrary_cuts(
        frames in proptest::collection::vec(frame_strategy(), 1..8),
        cut in 1usize..50,
    ) {
        // Serialize all frames, feed the decoder in `cut`-byte chunks.
        let mut wire = Vec::new();
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut buf: Vec<u8> = Vec::new();
        let mut decoded = Vec::new();
        for chunk in wire.chunks(cut) {
            buf.extend_from_slice(chunk);
            while let Ok((f, used)) = Frame::decode(&buf, 1 << 24) {
                buf.drain(..used);
                decoded.push(f);
            }
        }
        prop_assert_eq!(decoded, frames);
    }
}

// ---------------------------------------------------------------------
// Adversarial frame sequences against a live endpoint
// ---------------------------------------------------------------------

use h2push::h2proto::{ConnLimits, Connection, Event, Settings, PREFACE};

/// Structure-aware hostile input: valid frame shapes (including the
/// control frames the benign [`frame_strategy`] omits) with adversarial
/// parameter ranges, so the fuzz reaches the enforcement paths instead of
/// dying at the framing layer.
fn adversarial_frame_strategy() -> impl Strategy<Value = Frame> {
    let stream = 0u32..64;
    prop_oneof![
        // Benign shapes, listed thrice to keep the mix mostly-valid (the
        // vendored prop_oneof has no weighted arms).
        frame_strategy(),
        frame_strategy(),
        frame_strategy(),
        (any::<bool>(), prop_oneof![Just(None), (0u32..0xffff_ffff).prop_map(Some)]).prop_map(
            |(ack, iw)| Frame::Settings {
                ack,
                settings: Settings { initial_window_size: iw, ..Settings::default() },
            }
        ),
        (any::<bool>(), any::<u64>())
            .prop_map(|(ack, payload)| Frame::Ping { ack, payload: payload.to_be_bytes() }),
        (0u32..100).prop_map(|ls| Frame::GoAway { last_stream: ls, code: ErrorCode::NoError }),
        (stream.clone(), proptest::collection::vec(any::<u8>(), 0..64), any::<bool>()).prop_map(
            |(s, block, eh)| Frame::Continuation {
                stream: s,
                block: block.into(),
                end_headers: eh,
            }
        ),
        (stream.clone(), 1u32..0xffff_ffff)
            .prop_map(|(s, inc)| Frame::WindowUpdate { stream: s, increment: inc }),
        stream.prop_map(|s| Frame::RstStream { stream: s, code: ErrorCode::Cancel }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn server_endpoint_survives_arbitrary_frame_sequences(
        frames in proptest::collection::vec(adversarial_frame_strategy(), 0..40),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
        cut in 1usize..600,
        strict in any::<bool>(),
    ) {
        // The core robustness property: any frame sequence — valid,
        // hostile, or trailing garbage, under any chunking and any limit
        // profile — may kill the connection with a *typed* error, but must
        // never panic and must always drain in bounded work (the in-proc
        // analogue of the replay watchdog).
        let mut srv = Connection::server(Settings::default());
        srv.set_limits(if strict { ConnLimits::strict() } else { ConnLimits::new() });
        let mut sched = DefaultScheduler::new();
        let mut wire = PREFACE.to_vec();
        Frame::Settings { ack: false, settings: Settings::default() }.encode(&mut wire);
        for f in &frames {
            f.encode(&mut wire);
        }
        wire.extend_from_slice(&garbage);

        let mut fatals = 0u32;
        let mut rounds = 0u64;
        for chunk in wire.chunks(cut) {
            srv.receive(chunk);
            while let Some(ev) = srv.poll_event() {
                rounds += 1;
                prop_assert!(rounds < 1_000_000, "event livelock");
                if let Event::ConnectionError { .. } = ev {
                    fatals += 1;
                }
            }
            loop {
                rounds += 1;
                prop_assert!(rounds < 1_000_000, "produce livelock");
                if srv.produce(usize::MAX, &mut sched).is_empty() {
                    break;
                }
            }
        }
        // At most one fatal error per connection lifetime, and a dead
        // connection knows it is dead.
        prop_assert!(fatals <= 1, "{fatals} connection errors surfaced");
        if fatals == 1 {
            prop_assert!(srv.is_dead());
        }
    }

    #[test]
    fn client_endpoint_survives_arbitrary_frame_sequences(
        frames in proptest::collection::vec(adversarial_frame_strategy(), 0..32),
        cut in 1usize..400,
    ) {
        // Same property from the browser's side: a hostile *server* can
        // push promises, flood control frames, or talk garbage; the
        // client endpoint stays panic-free and bounded.
        let mut cli = Connection::client(Settings::default());
        cli.set_limits(ConnLimits::strict());
        let mut sched = DefaultScheduler::new();
        cli.request(
            &[
                Header::new(":method", "GET"),
                Header::new(":scheme", "https"),
                Header::new(":authority", "fuzz.test"),
                Header::new(":path", "/"),
            ],
            None,
        );
        let mut wire = Vec::new();
        Frame::Settings { ack: false, settings: Settings::default() }.encode(&mut wire);
        for f in &frames {
            f.encode(&mut wire);
        }
        let mut rounds = 0u64;
        for chunk in wire.chunks(cut) {
            cli.receive(chunk);
            while cli.poll_event().is_some() {
                rounds += 1;
                prop_assert!(rounds < 1_000_000, "event livelock");
            }
            loop {
                rounds += 1;
                prop_assert!(rounds < 1_000_000, "produce livelock");
                if cli.produce(usize::MAX, &mut sched).is_empty() {
                    break;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Priority tree
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u32, PrioritySpec),
    Reprioritize(u32, PrioritySpec),
    Remove(u32),
}

fn tree_op_strategy() -> impl Strategy<Value = TreeOp> {
    let spec = (0u32..40, 1u16..=256, any::<bool>()).prop_map(|(dep, w, e)| PrioritySpec {
        depends_on: dep,
        weight: w,
        exclusive: e,
    });
    prop_oneof![
        (1u32..40, spec.clone()).prop_map(|(id, s)| TreeOp::Insert(id, s)),
        (1u32..40, spec).prop_map(|(id, s)| TreeOp::Reprioritize(id, s)),
        (1u32..40).prop_map(TreeOp::Remove),
    ]
}

fn check_tree(tree: &PriorityTree) -> Result<(), TestCaseError> {
    // Traversal visits every stream exactly once (⇒ no cycles, no leaks).
    let trav = tree.traversal();
    prop_assert_eq!(trav.len(), tree.len());
    let mut sorted = trav.clone();
    sorted.sort_unstable();
    sorted.dedup();
    prop_assert_eq!(sorted.len(), trav.len());
    // Parent/child symmetry.
    for &id in &trav {
        let parent = tree.parent(id).expect("every stream has a parent");
        prop_assert!(tree.children(parent).any(|c| c == id));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn priority_tree_invariants_hold(ops in proptest::collection::vec(tree_op_strategy(), 0..60)) {
        let mut tree = PriorityTree::new();
        for op in ops {
            match op {
                TreeOp::Insert(id, s) => tree.insert(id, s),
                TreeOp::Reprioritize(id, s) => tree.reprioritize(id, s),
                TreeOp::Remove(id) => tree.remove(id),
            }
            check_tree(&tree)?;
        }
    }

    #[test]
    fn scheduler_always_picks_a_ready_stream(
        ops in proptest::collection::vec(tree_op_strategy(), 0..30),
        ready_ids in proptest::collection::vec(1u32..40, 1..10),
    ) {
        let mut tree = PriorityTree::new();
        for op in ops {
            match op {
                TreeOp::Insert(id, s) => tree.insert(id, s),
                TreeOp::Reprioritize(id, s) => tree.reprioritize(id, s),
                TreeOp::Remove(id) => tree.remove(id),
            }
        }
        // `pick` takes its snapshot in ascending id order, one entry per
        // stream, the way `Connection::produce` builds it.
        let ready_ids: std::collections::BTreeSet<u32> = ready_ids.into_iter().collect();
        let snaps: Vec<StreamSnapshot> = ready_ids
            .iter()
            .map(|&id| StreamSnapshot { id, sendable: 100, sent: 0, is_push: id % 2 == 0 })
            .collect();
        let mut sched = DefaultScheduler::new();
        let pick = sched.pick(&snaps, &tree);
        let picked = pick.expect("ready streams exist ⇒ some pick");
        prop_assert!(ready_ids.contains(&picked));
        prop_assert!(picked != ROOT);
    }
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn run_stats_are_consistent(values in proptest::collection::vec(0.0f64..1e6, 1..60)) {
        let s = RunStats::of(&values);
        prop_assert!(s.min <= s.median && s.median <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std_err <= s.std_dev + 1e-9);
        let hw95 = s.ci_half_width(0.95);
        let hw995 = s.ci_half_width(0.995);
        if s.n > 1 {
            prop_assert!(hw995 >= hw95);
        }
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one(values in proptest::collection::vec(-1e3f64..1e3, 1..50)) {
        let pts = cdf_points(&values);
        prop_assert_eq!(pts.len(), values.len());
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentiles_are_ordered(values in proptest::collection::vec(-1e3f64..1e3, 2..50)) {
        let p10 = percentile(&values, 10.0);
        let p50 = percentile(&values, 50.0);
        let p90 = percentile(&values, 90.0);
        prop_assert!(p10 <= p50 && p50 <= p90);
    }
}

// ---------------------------------------------------------------------
// Network simulator
// ---------------------------------------------------------------------

use h2push::netsim::{Dir, NetEvent, Network, NetworkSpec, ServerSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn netsim_conserves_bytes(
        sends in proptest::collection::vec((any::<bool>(), 1usize..200_000), 1..6),
        loss in 0.0f64..0.03,
        seed in 0u64..1_000,
    ) {
        let mut spec = NetworkSpec::dsl_testbed();
        spec.loss = loss;
        spec.seed = seed;
        let mut net = Network::new(spec);
        let s = net.add_server(ServerSpec::default());
        let c = net.connect(s);
        let mut expected = [0usize; 2];
        for (down, bytes) in &sends {
            let dir = if *down { Dir::Down } else { Dir::Up };
            net.send(c, dir, *bytes);
            expected[if *down { 1 } else { 0 }] += bytes;
        }
        let mut got = [0usize; 2];
        let mut steps = 0u64;
        while let Some((_, ev)) = net.step() {
            steps += 1;
            prop_assert!(steps < 5_000_000, "runaway simulation");
            if let NetEvent::Delivered { dir, bytes, .. } = ev {
                got[if dir == Dir::Down { 1 } else { 0 }] += bytes;
            }
        }
        // Reliable delivery: every sent byte arrives exactly once, even
        // under loss (retransmission) — and never more.
        prop_assert_eq!(got[0], expected[0], "upstream bytes");
        prop_assert_eq!(got[1], expected[1], "downstream bytes");
    }

    #[test]
    fn netsim_identical_seeds_are_bit_identical(
        bytes in 1usize..300_000,
        seed in 0u64..500,
    ) {
        let run = |seed: u64| {
            let mut spec = NetworkSpec::dsl_testbed();
            spec.seed = seed;
            spec.loss = 0.01;
            let mut net = Network::new(spec);
            let s = net.add_server(ServerSpec::default());
            let c = net.connect(s);
            net.send(c, Dir::Down, bytes);
            let mut trace = Vec::new();
            while let Some((t, ev)) = net.step() {
                if let NetEvent::Delivered { bytes, .. } = ev {
                    trace.push((t, bytes));
                }
            }
            trace
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

// ---------------------------------------------------------------------
// HTTP/1.1 codec
// ---------------------------------------------------------------------

use h2push::h1::codec as h1codec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn h1_request_round_trips(
        path_segs in proptest::collection::vec("[a-z0-9]{1,12}", 1..5),
        host in "[a-z]{1,12}\\.(com|org|test)",
    ) {
        let path = format!("/{}", path_segs.join("/"));
        let wire = h1codec::encode_request(&host, &path, &[("accept", "*/*")]);
        let (req, used) = h1codec::parse_request(&wire).unwrap().unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(req.path, path);
        prop_assert_eq!(req.host, host);
    }

    #[test]
    fn h1_response_round_trips(len in 0usize..10_000_000, status in prop_oneof![Just(200u16), Just(404u16)]) {
        let wire = h1codec::encode_response_head(status, len, "text/html");
        let (resp, used) = h1codec::parse_response(&wire).unwrap().unwrap();
        prop_assert_eq!(used, wire.len());
        prop_assert_eq!(resp.status, status);
        prop_assert_eq!(resp.content_length, len);
    }

    #[test]
    fn h1_parsers_never_panic(data in proptest::collection::vec(any::<u8>(), 0..200)) {
        let _ = h1codec::parse_request(&data);
        let _ = h1codec::parse_response(&data);
    }
}
