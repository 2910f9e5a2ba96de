//! A blocking client for the query service — the other end of
//! [`crate::proto`], used by the integration tests and the QPS benchmark.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

use crate::proto::{encode_subframes, read_frame, write_frame, WireError};

/// A client-side failure: either the transport died or the service returned
/// a structured `ERR` frame.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    /// The service answered `ERR`; the code, position, and message crossed
    /// the wire intact.
    Service(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The structured service error, if that is what this is.
    pub fn service(&self) -> Option<&WireError> {
        match self {
            ClientError::Service(e) => Some(e),
            ClientError::Io(_) => None,
        }
    }
}

/// One connection to the service.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// The client's write half. Buffered, so [`write_frame`] hands the socket
/// a frame that fits the buffer (every request but a large `LOAD` or
/// `BATCH`) in one `write`: one segment, one wake-up of the server.
fn frame_writer<W: Write>(inner: W) -> BufWriter<W> {
    BufWriter::new(inner)
}

/// A response payload as text, moved rather than copied when it is valid
/// UTF-8 (lossy otherwise).
fn into_text(payload: Vec<u8>) -> String {
    String::from_utf8(payload)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

impl Client {
    /// Connects and (optionally) identifies as `tenant`.
    pub fn connect(addr: SocketAddr, tenant: Option<&str>) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        // A frame too big for the write buffer leaves in more than one
        // write; without this, Nagle holds the tail behind the server's
        // delayed ACK (~40 ms per request — the benchmark caught exactly
        // that when every frame took two writes).
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = frame_writer(stream);
        let mut client = Client { reader, writer };
        if let Some(tenant) = tenant {
            client.request(&["HELLO", tenant], b"")?;
        }
        Ok(client)
    }

    /// Sends one frame and reads the one `OK`/`ERR` response.
    fn request(&mut self, words: &[&str], payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        write_frame(&mut self.writer, words, payload)?;
        self.read_response()
    }

    fn read_response(&mut self) -> Result<Vec<u8>, ClientError> {
        let frame = read_frame(&mut self.reader)?.ok_or_else(|| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "service closed the connection",
            ))
        })?;
        match frame.verb() {
            "OK" => Ok(frame.payload),
            "ERR" => Err(ClientError::Service(WireError::decode(&frame.payload))),
            other => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected response verb {other:?}"),
            ))),
        }
    }

    /// Sets an engine option; returns the new options fingerprint.
    pub fn set_option(&mut self, name: &str, value: &str) -> Result<String, ClientError> {
        let payload = self.request(&["OPTION", name, value], b"")?;
        Ok(into_text(payload))
    }

    /// Loads an XML document into the shared cache under `uri`; returns the
    /// accounted byte size.
    pub fn load(&mut self, uri: &str, xml: &str) -> Result<usize, ClientError> {
        let payload = self.request(&["LOAD", uri], xml.as_bytes())?;
        String::from_utf8_lossy(&payload).parse().map_err(|_| {
            ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "LOAD response was not a byte count",
            ))
        })
    }

    /// Evaluates `query` with the document at `uri` as context (`"-"` for
    /// none); returns the serialized result.
    pub fn query(&mut self, uri: &str, query: &str) -> Result<String, ClientError> {
        let payload = self.request(&["QUERY", uri], query.as_bytes())?;
        Ok(into_text(payload))
    }

    /// The cached-plan explanation for `query`.
    pub fn explain(&mut self, query: &str) -> Result<String, ClientError> {
        let payload = self.request(&["EXPLAIN", "-"], query.as_bytes())?;
        Ok(into_text(payload))
    }

    /// Runs several queries as one batch; returns one result per job, in
    /// job order. A per-job failure is an `Err` slot, not a transport error.
    pub fn batch(
        &mut self,
        uri: &str,
        queries: &[&str],
    ) -> Result<Vec<Result<String, WireError>>, ClientError> {
        let chunks: Vec<&[u8]> = queries.iter().map(|q| q.as_bytes()).collect();
        let count = queries.len().to_string();
        write_frame(
            &mut self.writer,
            &["BATCH", &count, uri],
            &encode_subframes(&chunks),
        )?;
        let mut out = Vec::with_capacity(queries.len());
        for _ in 0..queries.len() {
            out.push(match self.read_response() {
                Ok(payload) => Ok(into_text(payload)),
                Err(ClientError::Service(e)) => Err(e),
                Err(e) => return Err(e),
            });
        }
        Ok(out)
    }

    /// This tenant's stats plus the global cache counters, as `key -> value`.
    pub fn stats(&mut self) -> Result<std::collections::BTreeMap<String, u64>, ClientError> {
        let payload = self.request(&["STATS"], b"")?;
        Ok(crate::stats::parse_stats(&String::from_utf8_lossy(
            &payload,
        )))
    }

    /// Asks a pool worker to panic with `message` (needs
    /// [`crate::ServiceConfig::enable_crash_verb`]); returns the structured
    /// error that came back.
    pub fn crash(&mut self, message: &str) -> Result<WireError, ClientError> {
        match self.request(&["CRASH"], message.as_bytes()) {
            Ok(_) => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "CRASH returned OK",
            ))),
            Err(ClientError::Service(e)) => Ok(e),
            Err(e) => Err(e),
        }
    }

    /// Polite goodbye (the server also tolerates a plain disconnect).
    pub fn quit(mut self) -> Result<(), ClientError> {
        self.request(&["QUIT"], b"")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records the length of every `write` it is handed.
    struct Writes(Vec<usize>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.len());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A request's header and payload reach the socket in one `write`, so
    /// a `TCP_NODELAY` connection sends one segment per request, not two.
    #[test]
    fn a_small_frame_reaches_the_socket_in_one_write() {
        let mut writer = frame_writer(Writes(Vec::new()));
        let query = b"string(/site/people/person[@id = \"person7\"]/name)";
        write_frame(&mut writer, &["QUERY", "xmark"], query).unwrap();
        let header = format!("QUERY xmark {}\n", query.len());
        assert_eq!(writer.get_ref().0, vec![header.len() + query.len()]);
        write_frame(&mut writer, &["STATS"], b"").unwrap();
        assert_eq!(writer.get_ref().0.len(), 2, "one write per frame");
    }

    #[test]
    fn invalid_utf8_payloads_decode_lossily() {
        assert_eq!(into_text(b"caf\xc3\xa9".to_vec()), "café");
        assert_eq!(into_text(b"a\xffb".to_vec()), "a\u{fffd}b");
    }
}
