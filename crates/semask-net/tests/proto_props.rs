//! Property tests for the wire protocol: every envelope round-trips
//! bit-exactly, no byte soup can panic a decoder, and the buffered
//! [`FrameReader`] is `read_frame` at any chopping of the stream — same
//! frames, same errors — within its memory bound.
//!
//! Round trips are checked by **canonical bytes**: `encode(decode(
//! encode(x)))` must equal `encode(x)`. That covers every field —
//! including float payloads, which travel as raw IEEE-754 bits, so even
//! NaN payload patterns must survive.
//!
//! A list's count is checked against the bytes behind it before anything
//! is sized by it (the per-thread heap counter of `tests/common/heap.rs`).

#[path = "../../../tests/common/heap.rs"]
mod heap;

use heap::peak_bytes_of;
use proptest::prelude::*;

use geotext::BoundingBox;
use semask::{LatencyBreakdown, QueryOutcome, RankedPoi, Reason, SemaSkQuery, StrategyCost};
use semask_net::proto::{
    self, strategy_code, strategy_from_code, Frame, FrameKind, FrameReader, ProtoError, ShardQuery,
    ShardReply, HEADER_LEN, MAX_PAYLOAD,
};
use semask_serve::api::{CacheStatus, Priority, Request, Response, ServeStatus};
use vecdb::{ScoredPoint, ShardSpec};

fn range_from(bits: (u64, u64, u64, u64)) -> BoundingBox {
    // Arbitrary bit patterns: the codec must not care whether the
    // geometry is sane, only that the bits survive.
    BoundingBox {
        min_lat: f64::from_bits(bits.0),
        min_lon: f64::from_bits(bits.1),
        max_lat: f64::from_bits(bits.2),
        max_lon: f64::from_bits(bits.3),
    }
}

fn status_from(code: u8, message: String) -> ServeStatus {
    ServeStatus::from_code(code % 7, message).expect("codes 0..=6 are valid")
}

/// A stream that hands its bytes out in the given piece sizes (cycled),
/// optionally failing with `WouldBlock` — a read timeout — between
/// pieces, and ends like a closed socket.
struct Chopped {
    data: Vec<u8>,
    pos: usize,
    pieces: Vec<usize>,
    reads: usize,
    stall_between: bool,
}

impl Chopped {
    fn new(data: Vec<u8>, pieces: Vec<usize>) -> Self {
        Self {
            data,
            pos: 0,
            pieces,
            reads: 0,
            stall_between: false,
        }
    }
}

impl std::io::Read for Chopped {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        if self.stall_between && self.reads.is_multiple_of(2) {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let piece = self.pieces[self.reads % self.pieces.len()];
        let n = piece.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Frames until the first error, and what that error was.
fn frames_until_error(
    mut next: impl FnMut() -> Result<Frame, ProtoError>,
) -> (Vec<(u8, u64, Vec<u8>)>, String) {
    let mut frames = Vec::new();
    loop {
        match next() {
            Ok(frame) => frames.push((frame.kind as u8, frame.corr, frame.payload)),
            // `read_exact` words its EOF differently; the kind is the contract.
            Err(ProtoError::Io(e)) => return (frames, format!("io: {:?}", e.kind())),
            Err(e) => return (frames, format!("{e:?}")),
        }
    }
}

fn encode_stream(frames: &[(u8, u64, Vec<u8>)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (kind, corr, payload) in frames {
        let kind = FrameKind::from_code(kind % 4 + 1).expect("codes 1..=4 are valid");
        proto::encode_frame_into(&mut wire, kind, *corr, payload).expect("under the cap");
    }
    wire
}

#[test]
fn frame_reader_holds_one_frame_in_progress_plus_the_read_ahead() {
    const READ_AHEAD: usize = 64 * 1024;
    let big = vec![0xAB_u8; 3 * 1024 * 1024];
    let mut wire = Vec::new();
    proto::encode_frame_into(&mut wire, FrameKind::SubmitReply, 1, &big).expect("under the cap");
    proto::encode_frame_into(&mut wire, FrameKind::Submit, 2, b"after").expect("small");
    let mut stream = Chopped::new(wire, vec![48 * 1024]);
    stream.stall_between = true;
    let mut frames = FrameReader::new(stream);

    // Every stall is a look at the buffer with the big frame in progress.
    let mut stalls = 0;
    let frame = loop {
        match frames.next_frame() {
            Ok(frame) => break frame,
            Err(e) => {
                assert!(e.is_timeout(), "unexpected error: {e}");
                stalls += 1;
                assert!(
                    frames.buffer_capacity() <= HEADER_LEN + big.len() + READ_AHEAD,
                    "{} bytes held for a frame of {}",
                    frames.buffer_capacity(),
                    big.len()
                );
            }
        }
    };
    assert!(stalls > 30, "the frame arrived in {stalls} pieces");
    assert_eq!((frame.corr, frame.payload.len()), (1, big.len()));
    assert!(frame.payload == big);
    assert!(
        frames.buffer_capacity() < 2 * READ_AHEAD,
        "{} bytes kept after the big frame was handed out",
        frames.buffer_capacity()
    );
    // What was read past the big frame survived giving the memory back.
    let (rest, end) = frames_until_error(|| loop {
        match frames.next_frame() {
            Err(e) if e.is_timeout() => {}
            other => return other,
        }
    });
    assert_eq!(rest, vec![(FrameKind::Submit as u8, 2, b"after".to_vec())]);
    assert_eq!(end, "io: UnexpectedEof");

    // A length over the cap is refused on the header alone.
    let mut oversize = Vec::new();
    proto::encode_frame_into(&mut oversize, FrameKind::Submit, 3, b"").expect("empty");
    oversize[12..16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    let mut frames = FrameReader::new(oversize.as_slice());
    assert!(matches!(frames.next_frame(), Err(ProtoError::Oversize(n)) if n == MAX_PAYLOAD + 1));
    assert!(frames.buffer_capacity() <= HEADER_LEN + READ_AHEAD);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn frame_reader_is_read_frame_at_any_chopping(
        frames in prop::collection::vec(
            (0u8..4, 0u64..u64::MAX, prop::collection::vec(0u8..u8::MAX, 0..300)),
            1..12,
        ),
        pieces in prop::collection::vec(1usize..97, 1..6),
        one_byte_reads in 0u8..4,
        // 0: intact; 1..=4: bad magic / version / kind / oversize in
        // frame `victim`; 5: the stream ends `cut` bytes early.
        damage in 0u8..6,
        victim in 0usize..12,
        cut in 1usize..400,
    ) {
        let mut wire = encode_stream(&frames);
        let header = frames[..victim % frames.len()]
            .iter()
            .map(|(_, _, payload)| HEADER_LEN + payload.len())
            .sum::<usize>();
        match damage {
            1 => wire[header] ^= 0xFF,
            2 => wire[header + 2] = 9,
            3 => wire[header + 3] = 200,
            4 => wire[header + 12..header + 16].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes()),
            5 => wire.truncate(wire.len() - cut.min(wire.len())),
            _ => {}
        }
        let pieces = if one_byte_reads == 0 { vec![1] } else { pieces };

        let mut whole = wire.as_slice();
        let expected = frames_until_error(|| proto::read_frame(&mut whole));
        let mut reader = FrameReader::new(Chopped::new(wire.clone(), pieces));
        let got = frames_until_error(|| reader.next_frame());
        prop_assert_eq!(&got, &expected);
        if damage == 0 {
            prop_assert_eq!(got.0.len(), frames.len());
            prop_assert_eq!(&got.1, "io: UnexpectedEof");
        }
    }

    #[test]
    fn requests_round_trip_canonically(
        id in 0u64..u64::MAX,
        bits in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        text in "[ -~]{0,48}",
        kw in (0u8..2, "[a-z ]{0,16}"),
        prio in 0u8..3,
        deadline in (0u8..2, 0u64..86_400_000_000),
    ) {
        let mut request = Request::new(id, SemaSkQuery {
            range: range_from(bits),
            text,
            keywords: (kw.0 == 1).then_some(kw.1),
        })
        .with_priority(Priority::from_code(prio).expect("codes 0..=2 are valid"));
        if deadline.0 == 1 {
            request = request.with_deadline(std::time::Duration::from_micros(deadline.1));
        }
        let bytes = proto::encode_request(&request);
        let decoded = proto::decode_request(&bytes).expect("round trip");
        prop_assert_eq!(proto::encode_request(&decoded), bytes);

        // And through a full frame.
        let mut wire = Vec::new();
        proto::write_frame(&mut wire, FrameKind::Submit, id, &proto::encode_request(&request))
            .expect("write");
        let frame = proto::read_frame(&mut wire.as_slice()).expect("read");
        prop_assert_eq!(frame.corr, id);
        prop_assert_eq!(&frame.payload, &proto::encode_request(&request));
    }

    #[test]
    fn responses_round_trip_canonically(
        id in 0u64..u64::MAX,
        status_raw in (0u8..16, "[ -~]{0,32}"),
        has_outcome in 0u8..2,
        pois in prop::collection::vec(
            (0u32..u32::MAX, "[ -~]{0,24}", 0u32..u32::MAX, 0u8..2, (0u8..3, "[ -~]{0,24}")),
            0..6,
        ),
        latency_bits in prop::collection::vec(0u64..u64::MAX, 8),
        cached_code in 0u8..3,
    ) {
        let status = status_from(status_raw.0, status_raw.1);
        let cached = CacheStatus::from_code(cached_code).expect("codes 0..=2 are valid");
        let outcome = (has_outcome == 1).then(|| QueryOutcome {
            pois: pois
                .iter()
                .map(|(id, name, score_bits, rec, (tag, text))| RankedPoi {
                    id: geotext::ObjectId(*id),
                    name: name.as_str().into(),
                    embed_score: f32::from_bits(*score_bits),
                    recommended: *rec == 1,
                    reason: match tag {
                        0 => Reason::Embedding { score: f32::from_bits(*score_bits) },
                        1 => Reason::NotRelevant,
                        _ => Reason::Model(text.clone()),
                    },
                })
                .collect(),
            latency: LatencyBreakdown {
                filtering_ms: f64::from_bits(latency_bits[0]),
                retrieval_ms: f64::from_bits(latency_bits[1]),
                refinement_ms: f64::from_bits(latency_bits[2]),
                filter_strategy: strategy_from_code((latency_bits[3] % 4) as u8),
                estimated_selectivity: f64::from_bits(latency_bits[4]),
                predicted_cost_us: f64::from_bits(latency_bits[5]),
                runner_up: Some(StrategyCost {
                    strategy: strategy_from_code((latency_bits[6] % 4) as u8)
                        .expect("codes 0..=3 are valid"),
                    predicted_us: f64::from_bits(latency_bits[7]),
                    viable: latency_bits[7] % 2 == 0,
                }),
                shard_candidates: vec![latency_bits[1] as usize % 1024, 3],
            },
        });
        let response = Response { id, outcome, status, cached };
        let bytes = proto::encode_response(&response);
        prop_assert!(bytes.len() <= proto::response_size_bound(&response));
        let decoded = proto::decode_response(&bytes).expect("round trip");
        prop_assert_eq!(decoded.id, id);
        prop_assert_eq!(decoded.cached, cached);
        prop_assert_eq!(proto::encode_response(&decoded), bytes);
    }

    #[test]
    fn shard_envelopes_round_trip(
        text in "[ -~]{0,48}",
        bits in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
        k in 0u32..1000,
        ef in (0u8..2, 1u32..100_000),
        strat in 0u8..4,
        topo in (1u32..64, 0u32..64),
        hits in prop::collection::vec((0u64..u64::MAX, 0u32..u32::MAX), 0..32),
    ) {
        let query = ShardQuery {
            text,
            range: range_from(bits),
            k,
            ef: (ef.0 == 1).then_some(ef.1),
            strategy: strategy_from_code(strat).expect("codes 0..=3 are valid"),
            spec: ShardSpec::new(topo.0, topo.1 % topo.0).expect("shard < shards"),
        };
        let decoded = proto::decode_shard_query(&proto::encode_shard_query(&query))
            .expect("round trip");
        prop_assert_eq!(&decoded, &query);
        prop_assert_eq!(strategy_from_code(strategy_code(decoded.strategy)), Some(query.strategy));

        let reply = ShardReply {
            status: ServeStatus::Ok,
            hits: hits
                .iter()
                .map(|&(id, score_bits)| ScoredPoint {
                    id,
                    score: f32::from_bits(score_bits),
                })
                .collect(),
        };
        let bytes = proto::encode_shard_reply(&reply);
        let decoded = proto::decode_shard_reply(&bytes).expect("round trip");
        prop_assert_eq!(proto::encode_shard_reply(&decoded), bytes);
    }

    #[test]
    fn decoders_never_panic_on_byte_soup(
        payload in prop::collection::vec(0u8..u8::MAX, 0..256),
    ) {
        // Any result is fine; reaching the end of the block means no
        // decoder panicked or overflowed.
        let _ = proto::decode_request(&payload);
        let _ = proto::decode_response(&payload);
        let _ = proto::decode_shard_query(&payload);
        let _ = proto::decode_shard_reply(&payload);
        let _ = proto::read_frame(&mut payload.as_slice());
    }
}

/// The four envelopes of [`fixed_envelopes_keep_their_bytes`]: every
/// field set, both option arms, every reason tag, non-ASCII text.
fn fixed_envelopes() -> [Vec<u8>; 4] {
    let range = BoundingBox {
        min_lat: 34.25,
        min_lon: -119.875,
        max_lat: 34.5,
        max_lon: -119.5,
    };
    let request = Request::new(
        0x0102_0304_0506_0708,
        SemaSkQuery {
            range,
            text: "quiet café with \"wifi\"".into(),
            keywords: Some("espresso".into()),
        },
    )
    .with_priority(Priority::High)
    .with_deadline(std::time::Duration::from_micros(250_000));
    let outcome = QueryOutcome {
        pois: vec![
            RankedPoi {
                id: geotext::ObjectId(7),
                name: "Blue Door Café".into(),
                embed_score: 0.875,
                recommended: true,
                reason: Reason::Model("quiet, good wifi \u{1F600}".into()),
            },
            RankedPoi {
                id: geotext::ObjectId(12),
                name: "Espresso Lab".into(),
                embed_score: 0.8125,
                recommended: true,
                reason: Reason::Embedding { score: 0.8125 },
            },
            RankedPoi {
                id: geotext::ObjectId(u32::MAX),
                name: "".into(),
                embed_score: -0.0,
                recommended: false,
                reason: Reason::NotRelevant,
            },
        ],
        latency: LatencyBreakdown {
            filtering_ms: 1.5,
            retrieval_ms: 0.75,
            refinement_ms: 2077.5,
            filter_strategy: strategy_from_code(1),
            estimated_selectivity: 0.125,
            predicted_cost_us: 640.0,
            runner_up: Some(StrategyCost {
                strategy: strategy_from_code(2).expect("code 2 is valid"),
                predicted_us: 900.25,
                viable: true,
            }),
            shard_candidates: vec![10, 0, 7],
        },
    };
    let response = Response {
        id: 99,
        outcome: Some(outcome),
        status: status_from(0, String::new()),
        cached: CacheStatus::from_code(1).expect("code 1 is valid"),
    };
    let query = ShardQuery {
        text: "ramen near the pier".into(),
        range,
        k: 10,
        ef: Some(64),
        strategy: strategy_from_code(3).expect("code 3 is valid"),
        spec: ShardSpec::new(4, 2).expect("shard < shards"),
    };
    let reply = ShardReply {
        status: status_from(4, "shard 2 of 4 is draining".into()),
        hits: vec![
            ScoredPoint { id: 9, score: 0.75 },
            ScoredPoint {
                id: u64::MAX,
                score: f32::MIN_POSITIVE,
            },
        ],
    };
    [
        proto::encode_request(&request),
        proto::encode_response(&response),
        proto::encode_shard_query(&query),
        proto::encode_shard_reply(&reply),
    ]
}

/// Every payload byte of protocol version 4, pinned by length and
/// CRC-32: an encoder change that moves one byte must bump
/// [`proto::VERSION`].
#[test]
fn fixed_envelopes_keep_their_bytes() {
    let got = fixed_envelopes().map(|bytes| (bytes.len(), vecdb::crc32(&bytes)));
    assert_eq!(
        got,
        [
            (90, 0x4AB0_D9D7),
            (194, 0xE2CA_5BA9),
            (73, 0x42AB_4653),
            (33, 0xB531_9444),
        ]
    );
    assert_eq!(proto::VERSION, 4);
}

/// The payload of a response holding one unnamed POI whose reason is
/// the model's `text`, and the offset of that POI's reason tag: id (8),
/// status (5), outcome flag (1), count (4), POI id (4), name length (4),
/// score (4), recommended flag (1).
fn response_with_model_reason(text: &str) -> (Vec<u8>, usize) {
    let outcome = QueryOutcome {
        pois: vec![RankedPoi {
            id: geotext::ObjectId(3),
            name: "".into(),
            embed_score: 0.5,
            recommended: true,
            reason: Reason::Model(text.into()),
        }],
        latency: LatencyBreakdown::default(),
    };
    let response = Response::from_result(5, Ok(outcome));
    (
        proto::encode_response(&response),
        8 + 5 + 1 + 4 + 4 + 4 + 4 + 1,
    )
}

#[test]
fn a_reason_tag_no_version_defines_is_malformed() {
    let (payload, tag_at) = response_with_model_reason("");
    assert_eq!(payload[tag_at], 2, "the model's reason is tag 2");
    for tag in [3u8, 7, 255] {
        let mut bad = payload.clone();
        bad[tag_at] = tag;
        let (result, peak) = peak_bytes_of(|| proto::decode_response(&bad).map(drop));
        assert!(
            matches!(result, Err(ProtoError::Malformed("unknown reason tag"))),
            "tag {tag}: {result:?}"
        );
        assert!(peak <= 512, "tag {tag}: {peak} B held before the refusal");
    }
}

#[test]
fn a_model_reason_the_bytes_do_not_back_is_refused_before_it_allocates() {
    let (payload, tag_at) = response_with_model_reason("fine");
    let len_at = tag_at + 1;
    let behind = (payload.len() - len_at - 4) as u32;
    for declared in [u32::MAX, 1_000_000, behind + 1] {
        let mut bad = payload.clone();
        bad[len_at..len_at + 4].copy_from_slice(&declared.to_le_bytes());
        let (result, peak) = peak_bytes_of(|| proto::decode_response(&bad).map(drop));
        assert!(
            matches!(result, Err(ProtoError::Codec(_))),
            "length {declared}: {result:?}"
        );
        assert!(
            peak <= 512,
            "length {declared}: {peak} B held before the refusal"
        );
    }
}

#[test]
fn a_version_3_frame_is_refused_by_its_version() {
    let (payload, _) = response_with_model_reason("a reason");
    let mut frame = Vec::new();
    proto::write_frame(&mut frame, FrameKind::SubmitReply, 5, &payload).expect("write");
    frame[2] = 3;
    let (result, peak) = peak_bytes_of(|| proto::read_frame(&mut frame.as_slice()).map(drop));
    assert!(
        matches!(result, Err(ProtoError::BadVersion(3))),
        "{result:?}"
    );
    assert!(peak <= 512, "{peak} B held before the refusal");
    let mut reader = FrameReader::new(frame.as_slice());
    assert!(matches!(
        reader.next_frame(),
        Err(ProtoError::BadVersion(3))
    ));
}

/// A count larger than the bytes left behind it is refused before the
/// decoder sizes anything by it: for hits, ranked POIs and per-shard
/// candidate counts, one item short or `u32::MAX` items declared.
#[test]
fn a_count_the_bytes_do_not_back_is_refused_before_it_allocates() {
    let ok_status = [0u8, 0, 0, 0, 0];
    let mut refused = Vec::new();
    for (count, present) in [(u32::MAX, 0usize), (1_000_000, 3), (4, 3)] {
        // A shard reply: status, then `count` hits of 12 bytes.
        let mut reply = ok_status.to_vec();
        reply.extend_from_slice(&count.to_le_bytes());
        reply.extend(std::iter::repeat_n(7u8, 12 * present));
        refused.push(reply);

        // A response: id, status, an outcome of `count` ranked POIs
        // (14 bytes at least each), each here 14 zero bytes.
        let mut response = 5u64.to_le_bytes().to_vec();
        response.extend_from_slice(&ok_status);
        response.push(1);
        response.extend_from_slice(&count.to_le_bytes());
        response.extend(std::iter::repeat_n(0u8, 14 * present));
        refused.push(response);

        // A response whose latency block declares `count` shard
        // candidates of 8 bytes.
        let mut latency = 5u64.to_le_bytes().to_vec();
        latency.extend_from_slice(&ok_status);
        latency.extend_from_slice(&[1, 0, 0, 0, 0]);
        latency.extend_from_slice(&[0; 24]);
        latency.push(0);
        latency.extend_from_slice(&[0; 16]);
        latency.push(0);
        latency.extend_from_slice(&count.to_le_bytes());
        latency.extend(std::iter::repeat_n(0u8, 8 * present));
        refused.push(latency);
    }
    for (i, payload) in refused.iter().enumerate() {
        let (result, peak) = peak_bytes_of(|| {
            if i % 3 == 0 {
                proto::decode_shard_reply(payload).map(drop)
            } else {
                proto::decode_response(payload).map(drop)
            }
        });
        assert!(
            matches!(result, Err(ProtoError::Codec(_))),
            "payload {i}: {result:?}"
        );
        assert!(peak <= 512, "payload {i}: {peak} B held before the refusal");
    }
}
