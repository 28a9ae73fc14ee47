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
    use proptest::prelude::*;
    use teechain_util::hex;

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

    /// Two sealed enclave frames as a node sends them, a `Pay` and a
    /// `RepUpdate` (the first two frames `crates/core/tests/wire_golden.rs`
    /// pins): the payloads the reactor carries. Its frame length is the
    /// only delimiter in front of the enclave.
    const SEALED: [&str; 2] = [
        "\
        0206fe3f96a67b3600a85e09e226d2f1fde12849e787d72af81b9bed8824e32014cb4ca8755ac786\
        a79bc5e9fe8fc1c0bb537131e929f7a6b756201e87c5b236d50000000000000000013d00000083de\
        726aa196d563df4857b074f5f94038ba651f03d5d5bc8d92fb1f18150c2bc3566efd4997dd783542\
        1e731cd20dcb51d1287f6585c0a6701b6091e8",
        "\
        0206fe3f96a67b3600a85e09e226d2f1fde12849e787d72af81b9bed8824e32014cb4ca8755ac786\
        a79bc5e9fe8fc1c0bb537131e929f7a6b756201e87c5b236d50100000000000000024e00000040a5\
        07f7b875cccd9287a2a4534ce9298e9546302f0599b702649ff60a21b8d6e28f523039a194f478d0\
        da5a4aba29a9c727f1bdff53ff3fd6e1d3dbd3ac2d0baf8ee15cf1574e27823b3d0f10a0",
    ];

    /// A stream of `picks.len()` multiplexed frames, each carrying the
    /// sealed frame `picks[i] % 2` between nodes drawn from it too: the
    /// frames and their encoding, back to back.
    fn stream(picks: &[u32]) -> (Vec<MuxFrame>, Vec<u8>) {
        let sealed = SEALED.map(|h| hex::decode(h).expect("hex"));
        let frames: Vec<MuxFrame> = picks
            .iter()
            .map(|&p| MuxFrame {
                from: p >> 8,
                to: p >> 20,
                payload: sealed[p as usize % 2].clone(),
            })
            .collect();
        let mut wire = Vec::new();
        frames.iter().for_each(|f| encode_frame(f, &mut wire));
        (frames, wire)
    }

    /// How many of `sent`'s frames end at or before byte `at` of their
    /// stream.
    fn whole_before(sent: &[MuxFrame], at: usize) -> usize {
        let ends = sent.iter().scan(0, |end, f| {
            *end += 4 + f.encode_to_vec().len();
            Some(*end)
        });
        ends.take_while(|&end| end <= at).count()
    }

    fn parts(f: &MuxFrame) -> (u32, u32, &[u8]) {
        (f.from, f.to, &f.payload)
    }

    /// Pops every complete frame; returns them and the answer that ended
    /// the run (`Ok(None)` or an error).
    fn drain(fb: &mut FrameBuffer) -> (Vec<MuxFrame>, Result<(), WireError>) {
        let mut out = Vec::new();
        loop {
            match fb.next_frame::<MuxFrame>() {
                Ok(Some(f)) => out.push(f),
                Ok(None) => return (out, Ok(())),
                Err(e) => return (out, Err(e)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The stream as sent, split into chunks at any points, yields
        /// exactly the frames that were sent, and nothing is left over.
        #[test]
        fn a_stream_split_anywhere_yields_the_frames_sent(
            picks in proptest::collection::vec(any::<u32>(), 1..6),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let (sent, wire) = stream(&picks);
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
            cuts.push(wire.len());
            cuts.sort_unstable();
            let (mut fb, mut got, mut at) = (FrameBuffer::new(), Vec::new(), 0);
            for cut in cuts {
                fb.extend(&wire[at..cut]);
                at = cut;
                let (frames, end) = drain(&mut fb);
                prop_assert!(end.is_ok(), "a genuine stream is refused: {end:?}");
                got.extend(frames);
            }
            prop_assert!(got.iter().map(parts).eq(sent.iter().map(parts)));
            prop_assert!(fb.buf.is_empty());
        }

        /// A stream cut anywhere yields the frames wholly before the cut,
        /// then waits for more.
        #[test]
        fn a_truncated_stream_yields_its_whole_frames_then_waits(
            picks in proptest::collection::vec(any::<u32>(), 1..6),
            cut in any::<usize>(),
        ) {
            let (sent, wire) = stream(&picks);
            let cut = cut % wire.len();
            let mut fb = FrameBuffer::new();
            fb.extend(&wire[..cut]);
            let (got, end) = drain(&mut fb);
            prop_assert!(end.is_ok(), "cut at {cut}: {end:?}");
            let before = whole_before(&sent, cut);
            prop_assert!(got.iter().map(parts).eq(sent[..before].iter().map(parts)));
        }

        /// Any single-bit flip ends in a wait or a typed error, never a
        /// panic; the frames before the flipped one come out as sent.
        #[test]
        fn a_flipped_bit_is_waited_on_or_refused_never_a_panic(
            picks in proptest::collection::vec(any::<u32>(), 1..6),
            bit in any::<usize>(),
        ) {
            let (sent, mut wire) = stream(&picks);
            let bit = bit % (wire.len() * 8);
            wire[bit / 8] ^= 1 << (bit % 8);
            let mut fb = FrameBuffer::new();
            fb.extend(&wire);
            let (got, _) = drain(&mut fb);
            let before = whole_before(&sent, bit / 8);
            prop_assert!(got.len() <= sent.len());
            prop_assert!(got.iter().take(before).map(parts).eq(sent[..before].iter().map(parts)));
        }

        /// A first frame whose length prefix claims anything up to
        /// `MAX_FRAME + 1` but its true length is waited on or refused:
        /// it never yields a frame, and past `MAX_FRAME` it is an error.
        #[test]
        fn a_false_length_claim_is_waited_on_or_refused(
            picks in proptest::collection::vec(any::<u32>(), 1..6),
            claim in 0u32..MAX_FRAME + 2,
        ) {
            let (_, mut wire) = stream(&picks);
            let true_len = u32::from_le_bytes(wire[..4].try_into().expect("4 bytes"));
            prop_assume!(claim != true_len);
            for claim in [claim, MAX_FRAME + 1] {
                wire[..4].copy_from_slice(&claim.to_le_bytes());
                let mut fb = FrameBuffer::new();
                fb.extend(&wire);
                let first = fb.next_frame::<MuxFrame>();
                prop_assert!(matches!(first, Ok(None) | Err(_)), "claim {claim}");
                if claim > MAX_FRAME {
                    prop_assert!(first.is_err(), "claim {claim} past MAX_FRAME");
                }
            }
        }
    }
}
