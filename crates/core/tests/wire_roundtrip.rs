//! Wire-format property suite: every message of the shard protocol
//! round-trips byte-exactly, every single-byte corruption of a valid
//! frame is rejected by the CRC with a typed error (never misparsed
//! into a different payload), and golden-bytes pins freeze the
//! on-the-wire encodings — a field reorder, a renamed variant or a
//! framing change must break a test here before it can silently break
//! a mixed-version fleet.

use proptest::prelude::*;
use socialreach_core::remote::frame::{encode_frame, read_frame, write_frame, FrameError};
use socialreach_core::remote::proto::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
    SessionSpec, ShardOp, WireHop, WireMatch, WirePlanNode, WireRefusal, PROTOCOL_VERSION,
};
use socialreach_graph::shard::{MaskedExport, MaskedStateKey};
use socialreach_graph::AttrValue;

// ---------------------------------------------------------------------
// Strategies (the offline proptest shim has no `any`/`prop_oneof!`/
// regex strings, so variants are chosen by index and strings drawn
// from word lists)
// ---------------------------------------------------------------------

const WORDS: [&str; 6] = ["friend", "colleague", "parent", "age", "dept", "x_y-9"];
const PATHS: [&str; 4] = [
    "friend+[1,2]",
    "friend+[1..3]/colleague-[1]",
    "parent*[2..]",
    "friend+[1..4]{age>=30}",
];

fn word_strategy() -> impl Strategy<Value = String> {
    (0..WORDS.len()).prop_map(|i| WORDS[i].to_string())
}

fn key_strategy() -> impl Strategy<Value = MaskedStateKey> {
    (0..1_000_000u32, 0..2_000u16, 0..100_000u32, 0..4u32).prop_map(
        |(member, step, depth, word)| MaskedStateKey {
            member,
            step,
            depth,
            word,
        },
    )
}

fn export_strategy() -> impl Strategy<Value = MaskedExport> {
    (key_strategy(), 1..u64::MAX).prop_map(|(key, mask)| MaskedExport { key, mask })
}

fn attr_value_strategy() -> impl Strategy<Value = AttrValue> {
    (0..3usize, -1_000_000..1_000_000i64, word_strategy()).prop_map(|(ix, n, text)| match ix {
        0 => AttrValue::Int(n),
        1 => AttrValue::Bool(n % 2 == 0),
        _ => AttrValue::Text(text),
    })
}

fn shard_op_strategy() -> impl Strategy<Value = ShardOp> {
    (
        0..3usize,
        (0..100_000u32, 0..100_000u32),
        word_strategy(),
        attr_value_strategy(),
    )
        .prop_map(|(ix, (a, b), name, value)| match ix {
            0 => ShardOp::AddNode {
                global: a,
                name,
                ghost: b % 2 == 0,
            },
            1 => ShardOp::SetAttr {
                global: a,
                key: name,
                value,
            },
            _ => ShardOp::AddEdge {
                src: a,
                label: name,
                dst: b,
            },
        })
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        (0..11usize, 0..PATHS.len()),
        (0..1_000_000u64, 0..1_000u64, 0..4u32, 0..100_000u32),
        proptest::collection::vec(shard_op_strategy(), 0..5),
        proptest::collection::vec(export_strategy(), 0..6),
        proptest::collection::vec(word_strategy(), 0..4),
    )
        .prop_map(
            |((ix, path_ix), (eval, epoch, word, member), ops, seeds, names)| {
                let stop = if member % 2 == 0 { Some(member) } else { None };
                // A one-path session ships one node; a bundle-plan
                // session any number, none included.
                let steps = match ix {
                    5 => vec![PATHS[path_ix].to_string()],
                    _ => names.clone(),
                };
                let session = SessionSpec {
                    epoch,
                    nodes: steps
                        .into_iter()
                        .map(|step| WirePlanNode {
                            step,
                            children: vec![word as u16],
                            mask: eval,
                            accept: eval >> 1,
                        })
                        .collect(),
                    word,
                    one_path: ix == 5,
                    parents: ix == 5 && member % 2 == 0,
                };
                match ix {
                    0 => Request::Hello {
                        version: eval as u32,
                    },
                    1 => Request::Intern {
                        labels: names.clone(),
                        attrs: names,
                    },
                    2 => Request::Prepare { epoch, ops },
                    3 => Request::Commit { epoch },
                    4 => Request::Abort { epoch },
                    5 | 6 => Request::OpenRound {
                        eval,
                        session,
                        seeds,
                        stop,
                    },
                    7 => Request::Round { eval, seeds, stop },
                    8 => Request::Trace {
                        eval,
                        member,
                        step: word as u16,
                        depth: member / 2,
                    },
                    9 => Request::Census,
                    _ => Request::Shutdown,
                }
            },
        )
}

fn refusal_strategy() -> impl Strategy<Value = WireRefusal> {
    (0..5usize, 0..1_000u64, 0..1_000u64, word_strategy()).prop_map(|(ix, a, b, detail)| match ix {
        0 => WireRefusal::Version {
            shard: a as u32,
            requested: b as u32,
        },
        1 => WireRefusal::EpochMismatch {
            shard_epoch: a,
            requested: b,
        },
        2 => WireRefusal::UnknownEval { eval: a },
        3 => WireRefusal::UnknownMember { member: a as u32 },
        _ => WireRefusal::BadRequest { detail },
    })
}

fn match_strategy() -> impl Strategy<Value = WireMatch> {
    (0..1_000_000u32, 0..u64::MAX).prop_map(|(member, mask)| WireMatch { member, mask })
}

fn hop_strategy() -> impl Strategy<Value = WireHop> {
    (0..100_000u32, 0..100_000u32, 0..500u16, 0..2u32).prop_map(|(src, dst, label, fwd)| WireHop {
        src,
        dst,
        label,
        forward: fwd == 0,
    })
}

fn response_strategy() -> impl Strategy<Value = Response> {
    (
        (0..9usize, refusal_strategy()),
        (0..1_000_000u64, 0..1_000u64, 0..100_000u64, 0..100_000u64),
        (
            proptest::collection::vec(match_strategy(), 0..5),
            proptest::collection::vec(export_strategy(), 0..5),
        ),
        proptest::collection::vec(hop_strategy(), 0..5),
    )
        .prop_map(
            |((ix, refusal), (a, b, c, d), (matched, exports), hops)| match ix {
                0 => Response::Hello {
                    version: a as u32,
                    epoch: b,
                    nodes: c,
                },
                1 => Response::Ok,
                2 => Response::Prepared { epoch: b },
                3 => Response::Committed { epoch: b },
                4 => Response::Aborted { epoch: b },
                5 => Response::Round {
                    matched,
                    exports,
                    hit: if a % 2 == 0 {
                        Some((b as u16, c as u32))
                    } else {
                        None
                    },
                    states_expanded: d,
                },
                6 => Response::Traced {
                    hops,
                    seed_member: a as u32,
                    seed_step: b as u16,
                    seed_depth: c as u32,
                },
                7 => Response::Census {
                    members: a,
                    ghosts: b,
                    edges: c,
                    epoch: d,
                },
                _ => Response::Refused(refusal),
            },
        )
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `MaskedStateKey` and `MaskedExport` survive serde byte-exactly.
    #[test]
    fn masked_exports_round_trip(exports in proptest::collection::vec(export_strategy(), 0..12)) {
        let enc = serde_json::to_string(&exports).unwrap();
        let dec: Vec<MaskedExport> = serde_json::from_str(&enc).unwrap();
        prop_assert_eq!(dec, exports);
    }

    /// Every request round-trips through encode → frame → read → decode.
    #[test]
    fn requests_round_trip_through_frames(req in request_strategy()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_request(&req)).unwrap();
        let mut r = &buf[..];
        let payload = read_frame(&mut r).unwrap();
        prop_assert_eq!(decode_request(&payload).unwrap(), req);
        prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    /// Every response round-trips the same way.
    #[test]
    fn responses_round_trip_through_frames(resp in response_strategy()) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &encode_response(&resp)).unwrap();
        let mut r = &buf[..];
        let payload = read_frame(&mut r).unwrap();
        prop_assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    /// Framing is self-delimiting: back-to-back frames on one stream
    /// come out in order, unmixed.
    #[test]
    fn frame_streams_are_self_delimiting(
        payloads in proptest::collection::vec(proptest::collection::vec(0..=255u32, 0..200), 1..6)
    ) {
        let payloads: Vec<Vec<u8>> =
            payloads.into_iter().map(|p| p.into_iter().map(|b| b as u8).collect()).collect();
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let mut r = &buf[..];
        for p in &payloads {
            prop_assert_eq!(&read_frame(&mut r).unwrap(), p);
        }
        prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }
}

// ---------------------------------------------------------------------
// Corruption sweep: every single byte, exhaustively
// ---------------------------------------------------------------------

/// Flipping any single byte of a valid frame — header or payload, by
/// any pattern — must surface a typed frame error; it may **never**
/// parse into a different payload. (A length-byte flip may also leave
/// the stream short, which reads as `Torn`; everything else is caught
/// by the CRC as `Corrupt`.)
#[test]
fn every_single_byte_corruption_is_rejected() {
    let req = Request::Round {
        eval: 42,
        seeds: vec![MaskedExport {
            key: MaskedStateKey {
                member: 7,
                step: 2,
                depth: 9,
                word: 1,
            },
            mask: 0b1011,
        }],
        stop: Some(9),
    };
    let payload = encode_request(&req);
    let frame = encode_frame(&payload);
    for pos in 0..frame.len() {
        for pattern in [0xFFu8, 0x01, 0x80] {
            let mut bad = frame.clone();
            bad[pos] ^= pattern;
            let mut r = &bad[..];
            match read_frame(&mut r) {
                Err(FrameError::Corrupt { .. }) | Err(FrameError::Torn { .. }) => {}
                Ok(p) => panic!(
                    "byte {pos} ^ {pattern:#04x}: corruption parsed as a frame ({} bytes)",
                    p.len()
                ),
                Err(other) => panic!("byte {pos} ^ {pattern:#04x}: unexpected error {other}"),
            }
        }
    }
}

/// The same sweep at the payload level: the JSON decoder alone is NOT
/// the integrity layer — some single-bit flips (digits inside numbers)
/// decode into a *different valid message*. This pin documents the
/// layering: the CRC frame in front is what makes those flips
/// impossible to deliver.
#[test]
fn decoder_alone_would_not_catch_all_mutations() {
    let req = Request::Commit { epoch: 77 };
    let payload = encode_request(&req);
    let mut silent_differences = 0;
    for pos in 0..payload.len() {
        let mut bad = payload.clone();
        bad[pos] ^= 0x01;
        if let Ok(decoded) = decode_request(&bad) {
            if decoded != req {
                silent_differences += 1;
            }
        }
    }
    assert!(
        silent_differences > 0,
        "if the decoder alone rejected every mutation the CRC would be redundant; \
         this pin documents why the frame carries one"
    );
}

// ---------------------------------------------------------------------
// Golden bytes: the encodings are frozen
// ---------------------------------------------------------------------

/// The frame layout is `[u32 LE len][u32 LE CRC-32][payload]` with the
/// CRC over length-bytes‖payload. Pinned against a hand-computed
/// fixture: any change to the CRC polynomial, the byte order or the
/// header shape breaks this test before it breaks a fleet.
#[test]
fn golden_frame_bytes() {
    let frame = encode_frame(b"socialreach");
    let expected: Vec<u8> = [
        0x0b, 0x00, 0x00, 0x00, // len = 11, little-endian
        0x10, 0x84, 0xf0, 0x7d, // crc32(len_bytes || payload) = 0x7df08410
    ]
    .into_iter()
    .chain(*b"socialreach")
    .collect();
    assert_eq!(frame, expected);
}

/// The serde encodings of the traversal wire types are frozen, field
/// order and all — reordering `MaskedStateKey`'s fields (or renaming
/// one) changes these bytes and must be caught here, not by a
/// mixed-version fleet misrouting masks.
#[test]
fn golden_masked_export_encoding() {
    let export = MaskedExport {
        key: MaskedStateKey {
            member: 7,
            step: 2,
            depth: 9,
            word: 1,
        },
        mask: 11,
    };
    assert_eq!(
        serde_json::to_string(&export).unwrap(),
        r#"{"key":{"member":7,"step":2,"depth":9,"word":1},"mask":11}"#
    );
}

/// Request/response envelope encodings are frozen: externally tagged
/// variants with these exact tags.
#[test]
fn golden_protocol_encodings() {
    assert_eq!(
        String::from_utf8(encode_request(&Request::Hello {
            version: PROTOCOL_VERSION
        }))
        .unwrap(),
        r#"{"Hello":{"version":3}}"#
    );
    let seeds = vec![MaskedExport {
        key: MaskedStateKey {
            member: 7,
            step: 0,
            depth: 0,
            word: 0,
        },
        mask: 1,
    }];
    assert_eq!(
        String::from_utf8(encode_request(&Request::OpenRound {
            eval: 5,
            session: SessionSpec {
                epoch: 3,
                nodes: vec![WirePlanNode {
                    step: "friend+[1,2]".into(),
                    children: vec![],
                    mask: 1,
                    accept: 1,
                }],
                word: 0,
                one_path: true,
                parents: true,
            },
            seeds: seeds.clone(),
            stop: Some(9),
        }))
        .unwrap(),
        r#"{"OpenRound":{"eval":5,"session":{"epoch":3,"nodes":[{"step":"friend+[1,2]","children":[],"mask":1,"accept":1}],"word":0,"one_path":true,"parents":true},"seeds":[{"key":{"member":7,"step":0,"depth":0,"word":0},"mask":1}],"stop":9}}"#
    );
    assert_eq!(
        String::from_utf8(encode_request(&Request::Round {
            eval: 5,
            seeds,
            stop: None,
        }))
        .unwrap(),
        r#"{"Round":{"eval":5,"seeds":[{"key":{"member":7,"step":0,"depth":0,"word":0},"mask":1}],"stop":null}}"#
    );
    assert_eq!(
        String::from_utf8(encode_request(&Request::Census)).unwrap(),
        r#""Census""#
    );
    assert_eq!(
        String::from_utf8(encode_response(&Response::Ok)).unwrap(),
        r#""Ok""#
    );
    assert_eq!(
        String::from_utf8(encode_response(&Response::Refused(
            WireRefusal::EpochMismatch {
                shard_epoch: 4,
                requested: 5,
            }
        )))
        .unwrap(),
        r#"{"Refused":{"EpochMismatch":{"shard_epoch":4,"requested":5}}}"#
    );
    assert_eq!(
        String::from_utf8(encode_request(&Request::Prepare {
            epoch: 2,
            ops: vec![ShardOp::AddEdge {
                src: 1,
                label: "friend".into(),
                dst: 3,
            }],
        }))
        .unwrap(),
        r#"{"Prepare":{"epoch":2,"ops":[{"AddEdge":{"src":1,"label":"friend","dst":3}}]}}"#
    );
}
