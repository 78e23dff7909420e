//! Blocking client for the `ssa_net` protocol.
//!
//! [`Client`] wraps a [`TcpStream`] with the framing + proto layers and a
//! request-id counter. The typed wrappers ([`Client::serve`],
//! [`Client::add_campaign`], …) are strictly request/response; pipelining
//! callers (the load driver, the overload tests) use the split
//! [`Client::send_request`] / [`Client::read_response`] halves to keep
//! many requests in flight on one connection.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use ssa_bidlang::Money;
use ssa_core::marketplace::{AdvertiserHandle, AuctionResponse, CampaignId};
use ssa_core::UserAttrs;

use crate::frame::{read_frame, write_frame, FrameError, FrameKind, PROTO_VERSION};
use crate::proto::{
    BatchSummary, ErrorCode, MarketConfig, ProtoError, Request, Response, ServerStats,
};

/// Typed failure parsing a `--server <addr>` value: the flag is rejected
/// with a message, never a panic (contract-tested in `bench/tests/cli.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAddrError {
    raw: String,
}

impl std::fmt::Display for ParseAddrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid server address {:?} (expected host:port, e.g. 127.0.0.1:7878)",
            self.raw
        )
    }
}

impl std::error::Error for ParseAddrError {}

/// Parses a `host:port` server address, resolving host names; typed error
/// on anything unresolvable.
pub fn parse_addr(s: &str) -> Result<SocketAddr, ParseAddrError> {
    s.trim()
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next())
        .ok_or_else(|| ParseAddrError { raw: s.to_string() })
}

/// Everything that can go wrong talking to a server.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, read, write).
    Io(std::io::Error),
    /// The peer sent a frame we could not read.
    Frame(FrameError),
    /// The peer sent a payload we could not decode.
    Proto(ProtoError),
    /// The connection closed where a response was expected.
    Disconnected,
    /// The server answered [`Response::Failed`].
    Server {
        /// Machine-readable category.
        code: ErrorCode,
        /// Server-provided detail.
        message: String,
    },
    /// The server refused a data-plane request under load.
    Overloaded {
        /// Server-suggested back-off, in milliseconds.
        retry_after_ms: u32,
    },
    /// The server answered with a response type the call did not expect.
    UnexpectedResponse(Response),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport: {e}"),
            NetError::Frame(e) => write!(f, "protocol: framing: {e}"),
            NetError::Proto(e) => write!(f, "protocol: {e}"),
            NetError::Disconnected => f.write_str("server disconnected mid-request"),
            NetError::Server { code, message } => write!(f, "server error ({code:?}): {message}"),
            NetError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms} ms")
            }
            NetError::UnexpectedResponse(r) => write!(f, "unexpected response {r:?}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            NetError::Proto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

/// A blocking protocol connection. Reads are buffered: one `read` brings
/// in every response that has arrived, so a burst of pipelined responses
/// costs one system call, not three per frame.
pub struct Client {
    stream: BufReader<TcpStream>,
    next_id: u64,
}

impl Client {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Client {
            stream: BufReader::new(stream),
            next_id: 0,
        })
    }

    /// Sends a request frame without waiting for its response; returns the
    /// request id to correlate against [`Client::read_response`].
    /// Building block for pipelined clients.
    pub fn send_request(&mut self, request: &Request) -> Result<u64, NetError> {
        self.next_id += 1;
        let id = self.next_id;
        let stream = self.stream.get_mut();
        write_frame(stream, FrameKind::Request, id, &request.encode())?;
        stream.flush()?;
        Ok(id)
    }

    /// Reads the next response frame as `(request_id, response)`.
    pub fn read_response(&mut self) -> Result<(u64, Response), NetError> {
        let frame = read_frame(&mut self.stream)?.ok_or(NetError::Disconnected)?;
        if frame.kind != FrameKind::Response {
            return Err(NetError::Proto(ProtoError::UnknownTag {
                what: "frame kind (expected response)",
                tag: 0,
            }));
        }
        Ok((frame.request_id, Response::decode(&frame.payload)?))
    }

    /// One request, one response: the single-outstanding round trip every
    /// typed wrapper is built on. `Failed` and `Overloaded` become typed
    /// [`NetError`]s here so wrappers only see their success type.
    pub fn request(&mut self, request: &Request) -> Result<Response, NetError> {
        let id = self.send_request(request)?;
        let (got_id, response) = self.read_response()?;
        if got_id != id {
            return Err(NetError::UnexpectedResponse(response));
        }
        match response {
            Response::Failed { code, message } => Err(NetError::Server { code, message }),
            Response::Overloaded { retry_after_ms } => Err(NetError::Overloaded { retry_after_ms }),
            other => Ok(other),
        }
    }

    /// Liveness probe; returns the server-assigned session id.
    pub fn ping(&mut self) -> Result<u64, NetError> {
        match self.request(&Request::Ping)? {
            Response::Pong {
                session,
                proto_version,
            } if proto_version == PROTO_VERSION => Ok(session),
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }

    /// Rebuilds the server's marketplace to `config`.
    pub fn configure(&mut self, config: &MarketConfig) -> Result<(), NetError> {
        match self.request(&Request::Configure(config.clone()))? {
            Response::Ack => Ok(()),
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }

    /// Runs one auction with no user attributes, returning the full
    /// in-process outcome type.
    pub fn serve(&mut self, keyword: usize) -> Result<AuctionResponse, NetError> {
        self.serve_with_attrs(keyword, UserAttrs::new())
    }

    /// Runs one auction for a query carrying typed user attributes
    /// (targeted campaigns only participate when their expression matches).
    pub fn serve_with_attrs(
        &mut self,
        keyword: usize,
        attrs: UserAttrs,
    ) -> Result<AuctionResponse, NetError> {
        match self.request(&Request::Serve {
            keyword: keyword as u64,
            attrs,
        })? {
            Response::Served(auction) => Ok(auction.to_response()),
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }

    /// Runs an attribute-free query stream in one server-side
    /// `serve_batch`.
    pub fn serve_batch(&mut self, keywords: &[usize]) -> Result<BatchSummary, NetError> {
        self.serve_batch_queries(
            keywords
                .iter()
                .map(|&kw| (kw, UserAttrs::new()))
                .collect::<Vec<_>>(),
        )
    }

    /// Runs a typed `(keyword, attributes)` query stream in one
    /// server-side `serve_batch`.
    pub fn serve_batch_queries(
        &mut self,
        queries: Vec<(usize, UserAttrs)>,
    ) -> Result<BatchSummary, NetError> {
        match self.request(&Request::ServeBatch {
            queries: queries
                .into_iter()
                .map(|(kw, attrs)| (kw as u64, attrs))
                .collect(),
        })? {
            Response::BatchServed(summary) => Ok(summary),
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }

    /// Registers an advertiser.
    pub fn register_advertiser(&mut self, name: &str) -> Result<AdvertiserHandle, NetError> {
        match self.request(&Request::RegisterAdvertiser {
            name: name.to_string(),
        })? {
            Response::AdvertiserRegistered { advertiser } => {
                Ok(AdvertiserHandle::from_index(advertiser as usize))
            }
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }

    /// Opens an untargeted per-click campaign.
    #[allow(clippy::too_many_arguments)]
    pub fn add_campaign(
        &mut self,
        advertiser: AdvertiserHandle,
        keyword: usize,
        bid: Money,
        click_value: Money,
        roi_target: Option<f64>,
        click_probs: Option<Vec<f64>>,
    ) -> Result<CampaignId, NetError> {
        self.add_targeted_campaign(
            advertiser,
            keyword,
            bid,
            click_value,
            roi_target,
            click_probs,
            None,
        )
    }

    /// Opens a per-click campaign, optionally with a targeting expression
    /// source. A malformed or hostile source is rejected server-side with
    /// [`ErrorCode::InvalidTargeting`] and the campaign is not registered.
    #[allow(clippy::too_many_arguments)]
    pub fn add_targeted_campaign(
        &mut self,
        advertiser: AdvertiserHandle,
        keyword: usize,
        bid: Money,
        click_value: Money,
        roi_target: Option<f64>,
        click_probs: Option<Vec<f64>>,
        targeting: Option<String>,
    ) -> Result<CampaignId, NetError> {
        match self.request(&Request::AddCampaign {
            advertiser: advertiser.index() as u64,
            keyword: keyword as u64,
            bid_cents: bid.cents(),
            click_value_cents: click_value.cents(),
            roi_target,
            click_probs,
            purchase_probs: None,
            targeting,
        })? {
            Response::CampaignAdded { keyword, index } => {
                Ok(CampaignId::from_parts(keyword as usize, index as usize))
            }
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }

    /// Sets a per-click campaign's bid.
    pub fn update_bid(&mut self, id: CampaignId, bid: Money) -> Result<(), NetError> {
        self.expect_ack(&Request::UpdateBid {
            keyword: id.keyword() as u64,
            index: id.index() as u64,
            bid_cents: bid.cents(),
        })
    }

    /// Pauses a campaign.
    pub fn pause_campaign(&mut self, id: CampaignId) -> Result<(), NetError> {
        self.expect_ack(&Request::PauseCampaign {
            keyword: id.keyword() as u64,
            index: id.index() as u64,
        })
    }

    /// Resumes a paused campaign.
    pub fn resume_campaign(&mut self, id: CampaignId) -> Result<(), NetError> {
        self.expect_ack(&Request::ResumeCampaign {
            keyword: id.keyword() as u64,
            index: id.index() as u64,
        })
    }

    /// Sets or clears a campaign's ROI target.
    pub fn set_roi_target(&mut self, id: CampaignId, target: Option<f64>) -> Result<(), NetError> {
        self.expect_ack(&Request::SetRoiTarget {
            keyword: id.keyword() as u64,
            index: id.index() as u64,
            target,
        })
    }

    /// The highest effective bids on a keyword, descending.
    pub fn top_bids(
        &mut self,
        keyword: usize,
        limit: usize,
    ) -> Result<Vec<(CampaignId, Money)>, NetError> {
        match self.request(&Request::TopBids {
            keyword: keyword as u64,
            limit: limit as u64,
        })? {
            Response::TopBids { bids } => Ok(bids
                .into_iter()
                .map(|(kw, idx, cents)| {
                    (
                        CampaignId::from_parts(kw as usize, idx as usize),
                        Money::from_cents(cents),
                    )
                })
                .collect()),
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }

    /// Server + marketplace counters.
    pub fn stats(&mut self) -> Result<ServerStats, NetError> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        self.expect_ack(&Request::Shutdown)
    }

    fn expect_ack(&mut self, request: &Request) -> Result<(), NetError> {
        match self.request(request)? {
            Response::Ack => Ok(()),
            other => Err(NetError::UnexpectedResponse(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_addr_accepts_socket_addrs_and_rejects_garbage() {
        assert_eq!(
            parse_addr("127.0.0.1:7878"),
            Ok("127.0.0.1:7878".parse().unwrap())
        );
        assert_eq!(parse_addr(" 127.0.0.1:0 ").unwrap().port(), 0);
        for bad in ["", "not an addr", "127.0.0.1", "host:notaport"] {
            let err = parse_addr(bad).expect_err(bad);
            assert!(err.to_string().contains("invalid server address"), "{err}");
        }
    }
}
