//! Property tests for the wire framing: whatever bytes a peer sends,
//! `read_frame` and `decode_subframes` answer with frames or an
//! `io::Error`, never a panic, and what `write_frame`/`encode_subframes`
//! write reads back unchanged.

use proptest::prelude::*;
use qsvc::proto::{
    decode_subframes, encode_subframes, read_frame, write_frame, Frame, MAX_HEADER, MAX_PAYLOAD,
};

/// A length word: in range, at and past the payload cap, past `usize`,
/// negative, empty, or not a number.
fn length_word() -> BoxedStrategy<String> {
    prop_oneof![
        (0usize..96).prop_map(|n| n.to_string()),
        Just(MAX_PAYLOAD.to_string()),
        Just((MAX_PAYLOAD + 1).to_string()),
        Just(u64::MAX.to_string()),
        Just("18446744073709551616".to_string()),
        Just("-1".to_string()),
        Just(String::new()),
        Just("12abc".to_string()),
    ]
    .boxed()
}

/// One chunk of a hostile stream: raw noise, a header whose payload may be
/// shorter than its length word says, or a header line longer than
/// `MAX_HEADER` with no newline.
fn chunk() -> BoxedStrategy<Vec<u8>> {
    prop_oneof![
        prop::collection::vec(any::<u8>(), 0..48),
        (
            prop::sample::select(vec!["QUERY -", "LOAD u", "BATCH 2 -", "OK", ""]),
            length_word(),
            prop::collection::vec(any::<u8>(), 0..48),
        )
            .prop_map(|(words, len, payload)| {
                let mut bytes = format!("{words} {len}\n").into_bytes();
                bytes.extend(payload);
                bytes
            }),
        (1usize..3).prop_map(|n| vec![b'Q'; MAX_HEADER * n]),
    ]
    .boxed()
}

/// A byte stream made of up to four chunks, then cut anywhere.
fn stream() -> BoxedStrategy<Vec<u8>> {
    (prop::collection::vec(chunk(), 0..4), any::<u16>())
        .prop_map(|(chunks, cut)| {
            let bytes = chunks.concat();
            let keep = bytes.len() - (cut as usize % (bytes.len() + 1)) / 2;
            bytes[..keep].to_vec()
        })
        .boxed()
}

/// A sub-frame payload: `<len>\n<bytes>` pieces with any length word,
/// chained and cut.
fn subframe_payload() -> BoxedStrategy<Vec<u8>> {
    (
        prop::collection::vec(
            (length_word(), prop::collection::vec(any::<u8>(), 0..32)),
            0..4,
        ),
        prop::collection::vec(any::<u8>(), 0..8),
    )
        .prop_map(|(pieces, tail)| {
            let mut bytes = Vec::new();
            for (len, body) in pieces {
                bytes.extend(format!("{len}\n").into_bytes());
                bytes.extend(body);
            }
            bytes.extend(tail);
            bytes
        })
        .boxed()
}

/// A header word: non-empty, no spaces or newlines.
fn word() -> BoxedStrategy<String> {
    "[A-Za-z0-9_]{1,12}".boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn read_frame_answers_every_stream_without_panicking(bytes in stream()) {
        let mut reader = &bytes[..];
        // Each `Ok(Some)` consumes at least its header's newline, so the
        // loop ends within one read per byte.
        for _ in 0..=bytes.len() {
            match read_frame(&mut reader) {
                Ok(Some(frame)) => prop_assert!(!frame.words.is_empty()),
                Ok(None) | Err(_) => break,
            }
        }
    }

    #[test]
    fn decode_subframes_answers_every_payload_without_panicking(
        noise in prop::collection::vec(any::<u8>(), 0..64),
        framed in subframe_payload(),
    ) {
        for payload in [noise, framed] {
            if let Ok(chunks) = decode_subframes(&payload) {
                prop_assert!(chunks.iter().map(Vec::len).sum::<usize>() <= payload.len());
            }
        }
    }

    #[test]
    fn written_frames_and_subframes_read_back(
        frames in prop::collection::vec(
            (prop::collection::vec(word(), 1..4), prop::collection::vec(any::<u8>(), 0..64)),
            1..4,
        ),
    ) {
        let mut wire = Vec::new();
        for (words, payload) in &frames {
            let words: Vec<&str> = words.iter().map(String::as_str).collect();
            write_frame(&mut wire, &words, payload).unwrap();
        }
        let mut reader = &wire[..];
        for (words, payload) in &frames {
            let expected = Frame { words: words.clone(), payload: payload.clone() };
            prop_assert_eq!(read_frame(&mut reader).unwrap(), Some(expected));
        }
        prop_assert_eq!(read_frame(&mut reader).unwrap(), None);

        let payloads: Vec<&[u8]> = frames.iter().map(|(_, p)| p.as_slice()).collect();
        let packed = encode_subframes(&payloads);
        let unpacked = decode_subframes(&packed).unwrap();
        prop_assert_eq!(unpacked.iter().map(Vec::as_slice).collect::<Vec<_>>(), payloads);
    }
}
