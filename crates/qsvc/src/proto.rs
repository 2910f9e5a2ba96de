//! Wire protocol: length-framed messages over a byte stream.
//!
//! The paper's service-shaped complaint is that engines which look fine on
//! one-shot benchmarks fall over as long-lived servers; the protocol here is
//! deliberately minimal so that everything interesting (plan cache, document
//! cache, per-tenant stats) lives in the engine composition, not in an HTTP
//! stack the container doesn't have.
//!
//! ## Framing
//!
//! Every message — request or response — is one **header line** followed by
//! a **payload**:
//!
//! ```text
//! WORD [WORD ...] <payload-len>\n
//! <payload-len bytes>
//! ```
//!
//! The last header word is always the payload length in bytes, base 10.
//! Header words never contain spaces or newlines; anything bulky (query
//! text, XML documents, results) rides in the payload, which is opaque
//! bytes. Requests lead with a verb (`QUERY`, `LOAD`, `STATS`, …); responses
//! lead with `OK` or `ERR`.
//!
//! ## Error frames
//!
//! An `ERR` payload is structured so positions survive the socket — the
//! paper's complaint about Galax ("It would have been helpful to have a line
//! number in this message") applies doubly to a server whose clients never
//! see stderr:
//!
//! ```text
//! <code> <line> <column>\n
//! <message bytes>
//! ```
//!
//! `line`/`column` are `0 0` when the error genuinely has no position (the
//! Galax-quirk errors reproduce exactly that).
//!
//! ## Batch payloads
//!
//! A `BATCH` request packs several queries into one payload as sub-frames:
//! each is `<len>\n<bytes>`, concatenated. [`encode_subframes`] and
//! [`decode_subframes`] are the two ends of that.

use std::borrow::Cow;
use std::io::{self, BufRead, Read, Write};
use xquery::error::Error;

/// Upper bound on any single payload. Large enough for a hefty document,
/// small enough that a corrupt length header cannot OOM the server.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Upper bound on a header line. Headers carry a verb, a uri, and a length —
/// bounding them keeps a peer that streams bytes with no newline from
/// growing the header buffer without limit.
pub const MAX_HEADER: usize = 4096;

/// One parsed message: header words (the trailing length word stripped) and
/// the payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub words: Vec<String>,
    pub payload: Vec<u8>,
}

impl Frame {
    /// The leading verb, empty for a degenerate header.
    pub fn verb(&self) -> &str {
        self.words.first().map(String::as_str).unwrap_or("")
    }

    /// Payload as UTF-8 (lossy — the protocol itself is byte-clean). A
    /// valid payload is borrowed, not copied.
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.payload)
    }
}

/// Writes one frame and flushes. `words` must be non-empty and
/// space/newline-free.
///
/// The header goes out piece by piece and the frame leaves on the final
/// flush, so `w` should be buffered (a `BufWriter`, or a `Vec`): a frame
/// that fits the buffer then reaches the socket in one `write`, one
/// segment on a `TCP_NODELAY` connection. Formatting allocates nothing.
pub fn write_frame(w: &mut impl Write, words: &[&str], payload: &[u8]) -> io::Result<()> {
    debug_assert!(!words.is_empty());
    debug_assert!(words.iter().all(|s| !s.contains([' ', '\n', '\r'])));
    for word in words {
        w.write_all(word.as_bytes())?;
        w.write_all(b" ")?;
    }
    writeln!(w, "{}", payload.len())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. `Ok(None)` on clean EOF at a frame boundary; an EOF in
/// the middle of a frame is an error (the peer died mid-message).
pub fn read_frame(r: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let mut header = String::new();
    // Bound the header read: read_line on the raw stream would buffer
    // newline-less garbage without limit, bypassing the MAX_PAYLOAD cap.
    let n = r.by_ref().take(MAX_HEADER as u64).read_line(&mut header)?;
    if n == 0 {
        return Ok(None);
    }
    if !header.ends_with('\n') && n == MAX_HEADER {
        return Err(bad(&format!("frame header exceeds {MAX_HEADER} bytes")));
    }
    let mut words: Vec<String> = header.split_whitespace().map(str::to_string).collect();
    let len_word = words.pop().ok_or_else(|| bad("empty frame header"))?;
    let len: usize = len_word
        .parse()
        .map_err(|_| bad(&format!("bad payload length {len_word:?}")))?;
    if len > MAX_PAYLOAD {
        return Err(bad(&format!("payload length {len} exceeds {MAX_PAYLOAD}")));
    }
    if words.is_empty() {
        return Err(bad("frame header has no verb"));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame { words, payload }))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("qsvc protocol: {msg}"))
}

/// Packs byte chunks into one payload as `<len>\n<bytes>` sub-frames.
pub fn encode_subframes(chunks: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    for c in chunks {
        out.extend_from_slice(c.len().to_string().as_bytes());
        out.push(b'\n');
        out.extend_from_slice(c);
    }
    out
}

/// The inverse of [`encode_subframes`].
pub fn decode_subframes(mut payload: &[u8]) -> io::Result<Vec<Vec<u8>>> {
    let mut out = Vec::new();
    while !payload.is_empty() {
        let nl = payload
            .iter()
            .position(|&b| b == b'\n')
            .ok_or_else(|| bad("sub-frame without length line"))?;
        let len: usize = std::str::from_utf8(&payload[..nl])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad sub-frame length"))?;
        payload = &payload[nl + 1..];
        if payload.len() < len {
            return Err(bad("sub-frame truncated"));
        }
        out.push(payload[..len].to_vec());
        payload = &payload[len..];
    }
    Ok(out)
}

/// An error as it crosses the wire: code text, optional 1-based position,
/// message. Round-trips [`xquery::Error`]s losslessly for everything a
/// client can act on, and also carries non-engine failures (parse errors,
/// cache admission refusals, worker panics) under their own codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// `ErrorCode` rendering (`XPST0003`, `FOER0000`, `LOPS0000`, …) or a
    /// service-level code (`XMLPARSE`, `ADMIT`, `NODOC`, `PANIC`, `PROTO`).
    pub code: String,
    pub position: Option<(u32, u32)>,
    pub message: String,
}

impl WireError {
    pub fn new(code: &str, message: impl Into<String>) -> WireError {
        WireError {
            code: code.to_string(),
            position: None,
            message: message.into(),
        }
    }

    pub fn at(mut self, line: u32, column: u32) -> WireError {
        self.position = Some((line, column));
        self
    }

    /// An engine error, position and code preserved bit-for-bit.
    pub fn from_engine(e: &Error) -> WireError {
        WireError {
            code: e.code.to_string(),
            position: e.position,
            message: e.message.clone(),
        }
    }

    /// The `ERR` payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let (line, column) = self.position.unwrap_or((0, 0));
        let mut out = format!("{} {} {}\n", self.code, line, column).into_bytes();
        out.extend_from_slice(self.message.as_bytes());
        out
    }

    /// Parses an `ERR` payload. Malformed payloads decode into a `PROTO`
    /// error carrying the raw bytes, never a panic.
    pub fn decode(payload: &[u8]) -> WireError {
        let text = String::from_utf8_lossy(payload);
        let Some((head, message)) = text.split_once('\n') else {
            return WireError::new("PROTO", text.into_owned());
        };
        let mut it = head.split(' ');
        let code = it.next().unwrap_or("PROTO").to_string();
        let line: u32 = it.next().and_then(|s| s.parse().ok()).unwrap_or(0);
        let column: u32 = it.next().and_then(|s| s.parse().ok()).unwrap_or(0);
        WireError {
            code,
            position: (line != 0 || column != 0).then_some((line, column)),
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.code, self.message)?;
        if let Some((line, column)) = self.position {
            write!(f, " (line {line}, column {column})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &["QUERY", "doc/a"], b"count(//item)").unwrap();
        write_frame(&mut buf, &["STATS"], b"").unwrap();
        let mut r = BufReader::new(&buf[..]);
        let f1 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(f1.verb(), "QUERY");
        assert_eq!(f1.words, vec!["QUERY", "doc/a"]);
        assert_eq!(f1.text(), "count(//item)");
        let f2 = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(f2.verb(), "STATS");
        assert!(f2.payload.is_empty());
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn mid_frame_eof_is_an_error_not_a_silent_none() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &["QUERY", "-"], b"1 + 1").unwrap();
        buf.truncate(buf.len() - 2);
        let mut r = BufReader::new(&buf[..]);
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let header = format!("LOAD u {}\n", MAX_PAYLOAD + 1);
        let mut r = BufReader::new(header.as_bytes());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn newline_less_header_is_rejected_at_the_bound() {
        // A peer streaming bytes with no newline must hit a hard error at
        // MAX_HEADER, not grow the header buffer until OOM.
        let junk = vec![b'A'; MAX_HEADER + 1000];
        let mut r = BufReader::new(&junk[..]);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // A header exactly at the bound (newline included) still parses.
        let mut ok = format!("QUERY {} ", "u".repeat(MAX_HEADER - 9));
        ok.push('0');
        ok.push('\n');
        assert_eq!(ok.len(), MAX_HEADER);
        let mut r = BufReader::new(ok.as_bytes());
        assert!(read_frame(&mut r).unwrap().is_some());
    }

    #[test]
    fn wire_error_round_trips_position_and_its_absence() {
        let with = WireError::new("FOER0000", "boom\nwith newline").at(3, 14);
        assert_eq!(WireError::decode(&with.encode()), with);
        let without = WireError::new("LOPS0000", "Internal_Error: Variable '$glx:dot' not found.");
        assert_eq!(WireError::decode(&without.encode()), without);
        assert_eq!(WireError::decode(&without.encode()).position, None);
    }

    #[test]
    fn hostile_payloads_round_trip_byte_clean() {
        // A 10k-deep document and an escape/control-character-heavy payload
        // cross the framing layer byte-for-byte — the protocol never
        // inspects or mangles payload bytes, however hostile.
        let mut deep = String::new();
        for _ in 0..10_000 {
            deep.push_str("<a>");
        }
        deep.push_str("&lt;&amp;\"'\u{0007}\n\r\n]]>");
        for _ in 0..10_000 {
            deep.push_str("</a>");
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, &["LOAD", "hostile"], deep.as_bytes()).unwrap();
        let mut r = BufReader::new(&buf[..]);
        let frame = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame.words, vec!["LOAD", "hostile"]);
        assert_eq!(frame.payload, deep.as_bytes());

        // The errors those payloads provoke round-trip too: a parse-cap
        // rejection deep into line 1, and a position-free arena error.
        let too_deep = WireError::new(
            "XMLPARSE",
            "element nesting deeper than the limit of 10000 at line 1, column 30002",
        )
        .at(1, 30_002);
        assert_eq!(WireError::decode(&too_deep.encode()), too_deep);
        let arena = WireError::new("XMLPARSE", "node arena is full");
        assert_eq!(WireError::decode(&arena.encode()), arena);
        assert_eq!(WireError::decode(&arena.encode()).position, None);
    }

    #[test]
    fn subframes_round_trip_including_empties() {
        let chunks: Vec<&[u8]> = vec![b"1 + 1", b"", b"a\nb\x1ec"];
        let packed = encode_subframes(&chunks);
        let back = decode_subframes(&packed).unwrap();
        assert_eq!(back, chunks.iter().map(|c| c.to_vec()).collect::<Vec<_>>());
    }
}
