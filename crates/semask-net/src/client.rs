//! Blocking client for the framed protocol, with connect retry and
//! explicit pipelining.
//!
//! [`NetClient::request`] is the simple call-and-wait form.
//! [`NetClient::send_request`] / [`NetClient::recv_response`] split the
//! two halves so a client can keep several requests in flight on one
//! connection; the server answers each connection in FIFO order, and
//! every response also carries the request id for by-id matching.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use semask_serve::api::{Request, Response};

use crate::proto::{self, FrameKind, FrameReader, ProtoError};

/// Connection policy for [`NetClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect budget per attempt.
    pub connect_timeout: Duration,
    /// How long a [`NetClient::recv_response`] waits before giving up.
    pub read_timeout: Duration,
    /// Connect retries after the first failed attempt (covers the races
    /// where a freshly spawned server has not bound its port yet).
    pub connect_retries: usize,
    /// Backoff before the first connect retry; doubles per retry.
    pub backoff: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_secs(30),
            connect_retries: 5,
            backoff: Duration::from_millis(40),
        }
    }
}

/// One client connection to a [`crate::server::ServeServer`].
pub struct NetClient {
    /// Replies are read through the buffer (one `read` takes every
    /// reply the socket holds); requests are written to the stream
    /// inside it.
    stream: FrameReader<TcpStream>,
}

impl NetClient {
    /// Connects with the config's retry/backoff budget.
    ///
    /// # Errors
    /// [`ProtoError::Io`] when every attempt failed.
    pub fn connect(addr: impl ToSocketAddrs, config: &ClientConfig) -> Result<Self, ProtoError> {
        let resolved: Vec<_> = addr.to_socket_addrs()?.collect();
        let mut delay = config.backoff;
        let mut last = std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no addresses");
        for attempt in 0..=config.connect_retries {
            for sock_addr in &resolved {
                match TcpStream::connect_timeout(sock_addr, config.connect_timeout) {
                    Ok(stream) => {
                        stream.set_nodelay(true)?;
                        stream.set_read_timeout(Some(config.read_timeout))?;
                        return Ok(Self {
                            stream: FrameReader::new(stream),
                        });
                    }
                    Err(e) => last = e,
                }
            }
            if attempt < config.connect_retries {
                std::thread::sleep(delay);
                delay = delay.saturating_mul(2);
            }
        }
        Err(ProtoError::Io(last))
    }

    /// Sends one request without waiting (pipelining half).
    ///
    /// # Errors
    /// [`ProtoError::Io`] when the connection broke.
    pub fn send_request(&mut self, request: &Request) -> Result<(), ProtoError> {
        proto::write_frame(
            self.stream.get_mut(),
            FrameKind::Submit,
            request.id,
            &proto::encode_request(request),
        )
    }

    /// Sends a whole burst of requests in **one** `write_all` (one
    /// syscall, one TCP push) instead of one write per request. The
    /// server batches whatever queued while its executor was busy, so
    /// how a burst arrives decides how it is batched: with per-request
    /// writes and `TCP_NODELAY`, each request tends to arrive as its
    /// own segment and the first ones leave in small flushes while the
    /// rest are still on their way; a packed burst arrives together,
    /// is taken off the socket by one `read`, and queues as a whole
    /// behind at most one flush. Responses still come back one per
    /// request, FIFO — drain with [`NetClient::recv_response`].
    ///
    /// # Errors
    /// [`ProtoError::Io`] when the connection broke; nothing is written
    /// if any request fails to encode.
    pub fn send_requests(&mut self, requests: &[Request]) -> Result<(), ProtoError> {
        use std::io::Write;
        let mut buf = Vec::new();
        for request in requests {
            proto::encode_frame_into(
                &mut buf,
                FrameKind::Submit,
                request.id,
                &proto::encode_request(request),
            )?;
        }
        let stream = self.stream.get_mut();
        stream.write_all(&buf)?;
        stream.flush()?;
        Ok(())
    }

    /// Receives the next pipelined response (FIFO per connection).
    ///
    /// # Errors
    /// Timeouts surface as [`ProtoError::Io`] with
    /// [`ProtoError::is_timeout`] (and lose nothing: a later call picks
    /// the reply up where this one stopped); anything else means the
    /// connection is unusable.
    pub fn recv_response(&mut self) -> Result<Response, ProtoError> {
        let frame = self.stream.next_frame()?;
        if frame.kind != FrameKind::SubmitReply {
            return Err(ProtoError::Malformed("expected a submit reply"));
        }
        proto::decode_response(&frame.payload)
    }

    /// Call-and-wait: [`NetClient::send_request`] then
    /// [`NetClient::recv_response`].
    ///
    /// # Errors
    /// See the two halves.
    pub fn request(&mut self, request: &Request) -> Result<Response, ProtoError> {
        self.send_request(request)?;
        self.recv_response()
    }

    /// Overrides the read timeout for subsequent receives.
    ///
    /// # Errors
    /// [`ProtoError::Io`] when the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), ProtoError> {
        self.stream.get_ref().set_read_timeout(Some(timeout))?;
        Ok(())
    }
}
