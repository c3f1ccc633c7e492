//! A blocking client for the binary wire protocol.
//!
//! [`NetClient`] speaks the compact frames of [`crate::binwire`] over one
//! kept-alive connection. It is deliberately synchronous (the evented
//! machinery lives server-side): `predict_rows` is one request/one
//! reply, while the split [`NetClient::send_predict_rows`] /
//! [`NetClient::recv_predict`] pair lets callers pipeline many predicts
//! on one socket — the load-generation mode the benches and the
//! overload tests use, and the shape that actually exercises
//! cross-connection micro-batching.
//!
//! Typed outcomes: a server error reply surfaces as
//! [`NetError::Server`], a shed request as [`NetError::Overloaded`]
//! (distinct from transport failures, so callers can retry-with-backoff
//! on exactly the right condition).

use crate::binwire::{
    self, BinRequest, Header, PredictReplyBin, RowsPayload, STATUS_ERROR, STATUS_OK,
    STATUS_OVERLOADED,
};
use crate::error::{NetError, Result};
use ldafp_fixedpoint::{InputScale, QFormat, RoundingMode};
use ldafp_serve::json::{self, Value};
use ldafp_serve::wire::DEFAULT_MAX_FRAME;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client-side quantization for the raw-word predict mode: maps float
/// rows onto the model's `QK.F` grid, producing the flat word buffer
/// [`NetClient::predict_raw`] ships. Shipping words instead of floats
/// moves the quantization cost to the client and halves the payload
/// (4 bytes/element vs 8).
///
/// The server's float path multiplies each row by the artifact's
/// `input_scale` before it quantizes. For a model whose scale is not the
/// identity, apply `input_scale` to the rows first; only then do these
/// words equal the float path's.
pub fn quantize_rows(format: QFormat, rounding: RoundingMode, rows: &[Vec<f64>]) -> Vec<i64> {
    let mut words = vec![0; rows.iter().map(Vec::len).sum()];
    let mut start = 0;
    for row in rows {
        let end = start + row.len();
        format.quantize_into(row, InputScale::Identity, rounding, &mut words[start..end]);
        start = end;
    }
    words
}

/// A blocking connection to an evented server, speaking binary frames.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    addr: String,
    max_frame: usize,
}

impl NetClient {
    /// Resolves `addr` (`host:port`; host names included) and dials each
    /// address it yields until one connects, with `timeout` applied to
    /// connect, reads and writes.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] when resolution or the dial fails.
    pub fn connect(addr: &str, timeout: Duration) -> Result<NetClient> {
        let mut last = None;
        let stream = addr
            .to_socket_addrs()
            .map_err(|e| NetError::io(addr, e))?
            .find_map(|a| {
                TcpStream::connect_timeout(&a, timeout)
                    .map_err(|e| last = Some(e))
                    .ok()
            })
            .ok_or_else(|| {
                let e = last.unwrap_or_else(|| {
                    std::io::Error::new(
                        std::io::ErrorKind::AddrNotAvailable,
                        "address resolved to nothing",
                    )
                });
                NetError::io(addr, e)
            })?;
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| NetError::io(addr, e))?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| NetError::io(addr, e))?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            addr: addr.to_string(),
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// The address this client dialed.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Classifies nested float rows (one request, one reply).
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] for ragged rows; otherwise as
    /// [`Self::recv_predict`].
    pub fn predict_rows(
        &mut self,
        model: Option<&str>,
        rows: &[Vec<f64>],
    ) -> Result<PredictReplyBin> {
        self.send_predict_rows(model, rows)?;
        self.recv_predict()
    }

    /// Sends one float predict without waiting for the reply — the
    /// pipelining half; pair each call with one [`Self::recv_predict`].
    ///
    /// # Errors
    ///
    /// [`NetError::Protocol`] for ragged rows, [`NetError::Io`] on
    /// transport failure.
    pub fn send_predict_rows(&mut self, model: Option<&str>, rows: &[Vec<f64>]) -> Result<()> {
        let features = rows.first().map_or(1, Vec::len);
        let mut values = Vec::with_capacity(rows.len() * features);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != features {
                return Err(NetError::Protocol(format!(
                    "ragged batch: row {i} has {} features, row 0 has {features}",
                    row.len()
                )));
            }
            values.extend_from_slice(row);
        }
        self.send(&BinRequest::Predict {
            model: model.unwrap_or("").to_string(),
            payload: RowsPayload::F64 { features, values },
        })
    }

    /// Classifies pre-quantized raw `QK.F` words (flat row-major; see
    /// [`quantize_rows`]). The server applies no input scaling to raw
    /// words: apply the artifact's `input_scale` to the rows first.
    ///
    /// # Errors
    ///
    /// As [`Self::recv_predict`].
    pub fn predict_raw(
        &mut self,
        model: Option<&str>,
        features: usize,
        words: &[i64],
    ) -> Result<PredictReplyBin> {
        self.send(&BinRequest::Predict {
            model: model.unwrap_or("").to_string(),
            payload: RowsPayload::Raw {
                features,
                words: words.to_vec(),
            },
        })?;
        self.recv_predict()
    }

    /// Receives one predict reply (pairs with a prior send).
    ///
    /// # Errors
    ///
    /// [`NetError::Overloaded`] when the shedder refused the request,
    /// [`NetError::Server`] for typed errors, [`NetError::Protocol`] /
    /// [`NetError::Io`] for wire trouble.
    pub fn recv_predict(&mut self) -> Result<PredictReplyBin> {
        let (_, body) = self.read_reply()?;
        binwire::decode_predict_reply(&body)
    }

    /// Liveness + model identity (`model = None` probes the default).
    ///
    /// # Errors
    ///
    /// As [`Self::recv_predict`], with JSON parse failures as
    /// [`NetError::Protocol`].
    pub fn health(&mut self, model: Option<&str>) -> Result<Value> {
        self.send(&BinRequest::Health {
            model: model.unwrap_or("").to_string(),
        })?;
        self.read_json_reply()
    }

    /// Rolling `net.*` metrics snapshot.
    ///
    /// # Errors
    ///
    /// As [`Self::health`].
    pub fn stats(&mut self) -> Result<Value> {
        self.send(&BinRequest::Stats)?;
        self.read_json_reply()
    }

    /// Atomically installs (or replaces) a registry model from an
    /// artifact JSON document.
    ///
    /// # Errors
    ///
    /// [`NetError::Server`] when the artifact fails validation.
    pub fn reload(&mut self, name: &str, artifact_json: &str) -> Result<Value> {
        self.send(&BinRequest::Reload {
            name: name.to_string(),
            artifact_json: artifact_json.to_string(),
        })?;
        self.read_json_reply()
    }

    /// Asks the server to drain and stop.
    ///
    /// # Errors
    ///
    /// As [`Self::health`].
    pub fn shutdown_server(&mut self) -> Result<Value> {
        self.send(&BinRequest::Shutdown)?;
        self.read_json_reply()
    }

    fn send(&mut self, req: &BinRequest) -> Result<()> {
        let frame = binwire::encode_request(req);
        self.stream
            .write_all(&frame)
            .and_then(|()| self.stream.flush())
            .map_err(|e| NetError::io(&self.addr, e))
    }

    fn read_json_reply(&mut self) -> Result<Value> {
        let (_, body) = self.read_reply()?;
        let text = std::str::from_utf8(&body)
            .map_err(|e| NetError::Protocol(format!("reply body is not UTF-8: {e}")))?;
        json::parse(text).map_err(|e| NetError::Protocol(format!("reply is not JSON: {e}")))
    }

    fn read_reply(&mut self) -> Result<(Header, Vec<u8>)> {
        let mut hdr = [0u8; binwire::HEADER_LEN];
        self.read_exact(&mut hdr)?;
        if hdr[0] != binwire::MAGIC {
            return Err(NetError::Protocol(format!(
                "reply does not start with the binary magic byte (got {:#04x})",
                hdr[0]
            )));
        }
        let header = Header {
            opcode: hdr[1],
            flags: hdr[2],
            status: hdr[3],
            len: u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]),
        };
        if header.len as usize > self.max_frame {
            return Err(NetError::Protocol(format!(
                "reply body of {} bytes exceeds the {}-byte limit",
                header.len, self.max_frame
            )));
        }
        let mut body = vec![0u8; header.len as usize];
        self.read_exact(&mut body)?;
        match header.status {
            STATUS_OK => Ok((header, body)),
            STATUS_OVERLOADED => Err(NetError::Overloaded),
            STATUS_ERROR => Err(NetError::Server(
                String::from_utf8_lossy(&body).into_owned(),
            )),
            other => Err(NetError::Protocol(format!("unknown reply status {other}"))),
        }
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.stream.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(NetError::Protocol(format!(
                        "server closed the connection {filled} bytes into a reply"
                    )))
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::io(&self.addr, e)),
            }
        }
        Ok(())
    }
}
