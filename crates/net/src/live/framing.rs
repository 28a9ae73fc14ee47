//! Wire framing shared by the socket transports.
//!
//! Every socket backend speaks the same byte format: a `u32`
//! little-endian length prefix followed by a codec-encoded frame body
//! (`teechain_util::codec`, the workspace's bit-stable wire format).
//! [`TcpNet`](super::TcpNet) bodies are `(from, payload)`;
//! [`ReactorNet`](super::ReactorNet) multiplexes many logical
//! connections over one socket, so its bodies add the destination:
//! `(from, to, payload)`. Both reuse [`FrameBuffer`] for incremental
//! reassembly — partial frames survive short reads, read timeouts and
//! `WouldBlock` returns from nonblocking sockets.

use teechain_util::codec::{Decode, Encode, WireError};

/// Upper bound on a single frame body; anything larger is junk (the
/// biggest legitimate protocol message is a sealed snapshot, well under
/// this).
pub(crate) const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// One point-to-point wire frame (the [`TcpNet`](super::TcpNet) body):
/// who sent it and the payload bytes. The destination is implied by the
/// socket the frame arrives on.
pub(crate) struct Frame {
    pub(crate) from: u32,
    pub(crate) payload: Vec<u8>,
}

teechain_util::impl_wire_struct!(Frame { from, payload });

/// One multiplexed wire frame (the [`ReactorNet`](super::ReactorNet)
/// body): the [`Frame`] fields plus the destination, because a pooled
/// socket carries many (source, destination) flows at once.
pub(crate) struct MuxFrame {
    pub(crate) from: u32,
    pub(crate) to: u32,
    pub(crate) payload: Vec<u8>,
}

teechain_util::impl_wire_struct!(MuxFrame { from, to, payload });

/// Appends the length-prefixed encoding of `body` to `out` (one
/// syscall-sized buffer instead of two small writes).
pub(crate) fn encode_frame<T: Encode>(body: &T, out: &mut Vec<u8>) {
    let bytes = body.encode_to_vec();
    (bytes.len() as u32).encode(out);
    out.extend_from_slice(&bytes);
}

/// Incremental frame parser: bytes accumulate across reads, so a read
/// timeout or `WouldBlock` in the middle of a frame (stalled sender,
/// segmented delivery) never loses the partial prefix — `read_exact`
/// would.
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    pub(crate) fn new() -> Self {
        FrameBuffer { buf: Vec::new() }
    }

    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, `Ok(None)` if more bytes are
    /// needed, `Err` if the stream is corrupt (oversized or undecodable
    /// frame — the connection must be dropped, resynchronization is
    /// impossible).
    pub(crate) fn next_frame<T: Decode>(&mut self) -> Result<Option<T>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            return Err(WireError::InvalidValue("frame exceeds MAX_FRAME"));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let frame = T::decode_exact(&self.buf[4..total])?;
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mux_frame_roundtrip() {
        let f = MuxFrame {
            from: 3,
            to: 9,
            payload: vec![1, 2, 3, 4],
        };
        let body = f.encode_to_vec();
        let back = MuxFrame::decode_exact(&body).unwrap();
        assert_eq!((back.from, back.to, back.payload), (3, 9, vec![1, 2, 3, 4]));
    }

    #[test]
    fn frame_buffer_reassembles_dribbled_bytes() {
        let mut wire = Vec::new();
        encode_frame(
            &MuxFrame {
                from: 1,
                to: 2,
                payload: b"abc".to_vec(),
            },
            &mut wire,
        );
        let mut fb = FrameBuffer::new();
        for b in &wire[..wire.len() - 1] {
            fb.extend(std::slice::from_ref(b));
            assert!(fb.next_frame::<MuxFrame>().unwrap().is_none());
        }
        fb.extend(&wire[wire.len() - 1..]);
        let f = fb.next_frame::<MuxFrame>().unwrap().expect("complete");
        assert_eq!((f.from, f.to, &f.payload[..]), (1, 2, &b"abc"[..]));
    }

    #[test]
    fn oversized_frame_is_an_error() {
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert!(fb.next_frame::<MuxFrame>().is_err());
    }
}
