//! Seeded workload inputs, generated before any timing starts.
//!
//! Every message the harness sends is a pure function of `(seed, index)`:
//! a pool of seeded envelope templates, each carrying a fixed-width
//! `MessageID` slot that is stamped with the message index at send time.

use wsd_http::Bytes;
use wsd_soap::{rpc, Envelope, SoapVersion};
use wsd_wsa::{EndpointReference, WsaHeaders};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_E2E0_B3AC_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `len` alphanumeric characters (nothing XML would escape).
    pub fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len())] as char)
            .collect()
    }
}

/// Digits in the index part of a stamped `MessageID`.
const INDEX_DIGITS: usize = 10;

/// The `MessageID` prefix shared by every message of one seed.
pub fn id_prefix(seed: u64) -> String {
    format!("uuid:e2e-{seed:016x}-")
}

/// The `MessageID` of message `index`.
pub fn message_id(seed: u64, index: usize) -> String {
    format!("{}{index:0width$}", id_prefix(seed), width = INDEX_DIGITS)
}

/// Finds the first stamped id with `prefix` in `text` and returns its
/// message index.
pub fn parse_index(prefix: &str, text: &str) -> Option<usize> {
    let at = text.find(prefix)? + prefix.len();
    let digits = text.get(at..at + INDEX_DIGITS)?;
    digits.parse().ok()
}

/// Text length that makes a bare echo request exactly the paper's
/// 263-byte message (`rpc::PAPER_XML_BYTES`).
pub fn paper_text_len() -> usize {
    let base = rpc::echo_request(SoapVersion::V11, "").to_xml().len();
    rpc::PAPER_XML_BYTES.saturating_sub(base)
}

/// One serialized envelope with a `MessageID` slot to stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    pub xml: String,
    slot: usize,
}

impl Template {
    fn new(env: &Envelope, seed: u64) -> Template {
        let xml = env.to_xml();
        let slot =
            xml.find(&id_prefix(seed)).expect("template carries its id") + id_prefix(seed).len();
        Template { xml, slot }
    }

    /// The envelope of message `index`.
    pub fn stamp(&self, index: usize) -> Bytes {
        let mut out = self.xml.clone().into_bytes();
        let digits = format!("{index:0width$}", width = INDEX_DIGITS);
        out[self.slot..self.slot + INDEX_DIGITS].copy_from_slice(digits.as_bytes());
        Bytes::from(out)
    }
}

/// Inputs of the MSG workload: message `i` is
/// `templates[i % len]` stamped with `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MsgInputs {
    pub prefix: String,
    pub templates: Vec<Template>,
    /// The echo text each template carries.
    pub texts: Vec<String>,
    /// Mailbox each template's reply goes to.
    pub dest: Vec<usize>,
}

impl MsgInputs {
    pub fn template(&self, index: usize) -> usize {
        index % self.templates.len()
    }
}

/// Templates for `msg_mailbox`: paper-sized echo requests addressed to
/// the logical `Echo` service, each replying to one of `deposit_urls`.
pub fn mailbox_inputs(seed: u64, deposit_urls: &[String]) -> MsgInputs {
    const TEMPLATES: usize = 256;
    let mut rng = Rng::new(seed ^ 0x4D41_494C);
    let text_len = paper_text_len();
    let mut out = MsgInputs {
        prefix: id_prefix(seed),
        templates: Vec::new(),
        texts: Vec::new(),
        dest: Vec::new(),
    };
    for _ in 0..TEMPLATES {
        let text = rng.text(text_len);
        let dest = rng.below(deposit_urls.len());
        let mut env = rpc::echo_request(SoapVersion::V11, &text);
        WsaHeaders::new()
            .to("http://dispatcher/svc/Echo")
            .reply_to(EndpointReference::new(deposit_urls[dest].as_str()))
            .message_id(message_id(seed, 0))
            .apply(&mut env);
        out.templates.push(Template::new(&env, seed));
        out.texts.push(text);
        out.dest.push(dest);
    }
    out
}

/// Inputs of one `rpc_relay` client: paper-sized echo requests and the
/// exact response bytes each must produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RpcInputs {
    pub texts: Vec<String>,
    pub requests: Vec<Bytes>,
    pub expected: Vec<Vec<u8>>,
}

pub fn rpc_inputs(seed: u64, client: usize) -> RpcInputs {
    const TEMPLATES: usize = 256;
    let mut rng = Rng::new(seed ^ 0x5250_4300 ^ (client as u64) << 40);
    let text_len = paper_text_len();
    let mut out = RpcInputs {
        texts: Vec::new(),
        requests: Vec::new(),
        expected: Vec::new(),
    };
    for _ in 0..TEMPLATES {
        let text = rng.text(text_len);
        out.requests.push(Bytes::from(
            rpc::echo_request(SoapVersion::V11, &text).to_xml(),
        ));
        out.expected.push(
            rpc::echo_response(SoapVersion::V11, &text)
                .to_xml()
                .into_bytes(),
        );
        out.texts.push(text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urls() -> Vec<String> {
        (0..8)
            .map(|i| format!("http://dispatcher:8082/deposit/mbox-{i}"))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        assert_eq!(mailbox_inputs(7, &urls()), mailbox_inputs(7, &urls()));
        assert_eq!(rpc_inputs(7, 1), rpc_inputs(7, 1));
        let a = mailbox_inputs(7, &urls()).templates[3].stamp(12345);
        let b = mailbox_inputs(7, &urls()).templates[3].stamp(12345);
        assert_eq!(a.as_ref(), b.as_ref());
        assert_ne!(mailbox_inputs(7, &urls()), mailbox_inputs(8, &urls()));
        assert_ne!(rpc_inputs(7, 0), rpc_inputs(7, 1));
    }

    #[test]
    fn stamped_ids_round_trip() {
        let inputs = mailbox_inputs(42, &urls());
        let msg = inputs.templates[5].stamp(987_654);
        let text = std::str::from_utf8(msg.as_ref()).unwrap();
        assert!(text.contains(&message_id(42, 987_654)));
        assert_eq!(parse_index(&inputs.prefix, text), Some(987_654));
        assert!(Envelope::parse(text).is_ok());
    }

    #[test]
    fn paper_sized_requests() {
        let inputs = rpc_inputs(1, 0);
        assert_eq!(inputs.requests[0].len(), rpc::PAPER_XML_BYTES);
    }
}
