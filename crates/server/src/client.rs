//! Blocking client for the wire protocol.
//!
//! One method per protocol interaction; each waits for its completion
//! message (no pipelining — the driver gets concurrency from many
//! connections, not from deep pipelines on one).

use crate::protocol::*;
use rdbms::Value;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Server-reported statement failure (distinct from transport errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerError(pub String);

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "server error: {}", self.0)
    }
}

impl std::error::Error for ServerError {}

/// Client-side failure: transport died or the server rejected something.
#[derive(Debug)]
pub enum ClientError {
    Io(io::Error),
    Server(ServerError),
    /// The server answered with a message this client did not expect.
    Unexpected(u8),
    Malformed(Malformed),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Server(e) => e.fmt(f),
            ClientError::Unexpected(tag) => write!(f, "unexpected message tag {tag:#04x}"),
            ClientError::Malformed(m) => m.fmt(f),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<Malformed> for ClientError {
    fn from(e: Malformed) -> Self {
        ClientError::Malformed(e)
    }
}

pub type ClientResult<T> = Result<T, ClientError>;

/// Result rows of one statement.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    /// CommandComplete tag, e.g. `SELECT 4` or `OK 1`.
    pub tag: String,
}

/// Reply to a Parse message.
#[derive(Debug, Clone, Copy)]
pub struct ParseReply {
    /// Did the statement hit the server's shared plan cache?
    pub cache_hit: bool,
    /// Parameters the client must supply at Bind.
    pub n_params: usize,
}

pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { reader, writer: BufWriter::new(stream) })
    }

    fn send(&mut self, tag: u8, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.writer, tag, payload)?;
        self.writer.flush()
    }

    fn recv(&mut self) -> ClientResult<(u8, Vec<u8>)> {
        match read_frame(&mut self.reader, MAX_FRAME)? {
            Some(f) => Ok(f),
            None => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed connection",
            ))),
        }
    }

    fn read_error(payload: &[u8]) -> ClientResult<ServerError> {
        let mut r = PayloadReader::new(payload);
        let msg = r.take_string("error message")?;
        Ok(ServerError(msg))
    }

    /// Simple protocol: send literal SQL, collect rows until
    /// ReadyForQuery. This is the paper's OPEN path — the server parses
    /// and plans the text from scratch.
    pub fn simple_query(&mut self, sql: &str) -> ClientResult<Rows> {
        self.send(MSG_QUERY, sql.as_bytes())?;
        let mut rows = Rows::default();
        let mut err: Option<ServerError> = None;
        loop {
            let (tag, payload) = self.recv()?;
            match tag {
                MSG_ROW_DESC => {
                    let mut r = PayloadReader::new(&payload);
                    let n = r.take_u16("column count")?;
                    for _ in 0..n {
                        rows.columns.push(r.take_string("column name")?);
                    }
                }
                MSG_DATA_ROW => rows.rows.push(Self::decode_row(&payload)?),
                MSG_COMMAND_COMPLETE => {
                    let mut r = PayloadReader::new(&payload);
                    rows.tag = r.take_string("command tag")?;
                }
                MSG_ERROR => err = Some(Self::read_error(&payload)?),
                MSG_READY => {
                    return match err {
                        Some(e) => Err(ClientError::Server(e)),
                        None => Ok(rows),
                    }
                }
                other => return Err(ClientError::Unexpected(other)),
            }
        }
    }

    fn decode_row(payload: &[u8]) -> ClientResult<Vec<Value>> {
        let mut r = PayloadReader::new(payload);
        let n = r.take_u16("value count")?;
        let mut row = Vec::with_capacity(n as usize);
        for _ in 0..n {
            row.push(r.take_value()?);
        }
        r.finish()?;
        Ok(row)
    }

    /// Extended protocol: Parse. Errors here leave the session ignoring
    /// messages until [`Client::sync`].
    pub fn parse(&mut self, name: &str, sql: &str) -> ClientResult<ParseReply> {
        let mut p = Vec::new();
        write_string(&mut p, name);
        write_string(&mut p, sql);
        self.send(MSG_PARSE, &p)?;
        let (tag, payload) = self.recv()?;
        match tag {
            MSG_PARSE_COMPLETE => {
                let mut r = PayloadReader::new(&payload);
                let cache_hit = r.take_u8("cache hit flag")? != 0;
                let n_params = r.take_u32("param count")? as usize;
                Ok(ParseReply { cache_hit, n_params })
            }
            MSG_ERROR => Err(ClientError::Server(Self::read_error(&payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Extended protocol: Bind `params` to statement `stmt` as `portal`.
    pub fn bind(&mut self, portal: &str, stmt: &str, params: &[Value]) -> ClientResult<()> {
        let mut p = Vec::new();
        write_string(&mut p, portal);
        write_string(&mut p, stmt);
        p.extend_from_slice(&(params.len() as u16).to_be_bytes());
        for v in params {
            write_value(&mut p, v);
        }
        self.send(MSG_BIND, &p)?;
        let (tag, payload) = self.recv()?;
        match tag {
            MSG_BIND_COMPLETE => Ok(()),
            MSG_ERROR => Err(ClientError::Server(Self::read_error(&payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Extended protocol: Execute a bound portal and collect its rows.
    pub fn execute(&mut self, portal: &str) -> ClientResult<Rows> {
        let mut p = Vec::new();
        write_string(&mut p, portal);
        self.send(MSG_EXECUTE, &p)?;
        let mut rows = Rows::default();
        loop {
            let (tag, payload) = self.recv()?;
            match tag {
                MSG_ROW_DESC => {
                    let mut r = PayloadReader::new(&payload);
                    let n = r.take_u16("column count")?;
                    for _ in 0..n {
                        rows.columns.push(r.take_string("column name")?);
                    }
                }
                MSG_DATA_ROW => rows.rows.push(Self::decode_row(&payload)?),
                MSG_COMMAND_COMPLETE => {
                    let mut r = PayloadReader::new(&payload);
                    rows.tag = r.take_string("command tag")?;
                    return Ok(rows);
                }
                MSG_ERROR => return Err(ClientError::Server(Self::read_error(&payload)?)),
                other => return Err(ClientError::Unexpected(other)),
            }
        }
    }

    /// Extended protocol: Sync — clears any error state, returns the
    /// session status byte (`I`/`T`/`E`).
    pub fn sync(&mut self) -> ClientResult<u8> {
        self.send(MSG_SYNC, &[])?;
        loop {
            let (tag, payload) = self.recv()?;
            match tag {
                MSG_READY => {
                    return payload
                        .first()
                        .copied()
                        .ok_or_else(|| Malformed("empty ReadyForQuery".into()).into())
                }
                // Late replies from messages the session skipped.
                MSG_ERROR => continue,
                other => return Err(ClientError::Unexpected(other)),
            }
        }
    }

    /// Close a named statement (`kind` `'S'`) or portal (`'P'`).
    pub fn close(&mut self, kind: u8, name: &str) -> ClientResult<()> {
        let mut p = Vec::new();
        p.push(kind);
        write_string(&mut p, name);
        self.send(MSG_CLOSE, &p)?;
        let (tag, payload) = self.recv()?;
        match tag {
            MSG_CLOSE_COMPLETE => Ok(()),
            MSG_ERROR => Err(ClientError::Server(Self::read_error(&payload)?)),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Parse + Bind + Execute + Sync on the unnamed statement/portal —
    /// the paper's REOPEN call shape as one convenience.
    pub fn extended_query(&mut self, sql: &str, params: &[Value]) -> ClientResult<Rows> {
        let parsed = self.parse("", sql);
        let res = parsed.and_then(|_| self.bind("", "", params)).and_then(|_| self.execute(""));
        // Always resynchronize, even after an error.
        let sync = self.sync();
        let rows = res?;
        sync?;
        Ok(rows)
    }

    /// Clean shutdown: Terminate, then close the socket.
    pub fn terminate(mut self) -> io::Result<()> {
        self.send(MSG_TERMINATE, &[])
    }

    /// Bound blocking reads (fuzz tests use this so a server legitimately
    /// waiting for more frame bytes cannot deadlock the test).
    pub fn set_read_timeout(&self, d: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(d)
    }

    /// Send raw bytes (test hook for malformed-frame fuzzing).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read one raw frame (test hook).
    pub fn recv_raw(&mut self) -> ClientResult<(u8, Vec<u8>)> {
        self.recv()
    }
}
