//! Media payloads: RTP packets whose every byte is derived from
//! (seed, source, sequence), so a receiver can check them without a
//! stored copy.

use bytes::Bytes;
use mmcs_rtp::packet::{payload_type, RtpHeader, WireRtp};

use crate::common::mix;

/// One media format: payload type, body size and RTP timestamp step.
#[derive(Clone, Copy, Debug)]
pub struct Format {
    pub payload_type: u8,
    /// Payload bytes after the 12-byte RTP header.
    pub body: usize,
    /// RTP timestamp increment per packet.
    pub ts_step: u32,
}

/// PCMU at 20 ms pacing: 160 samples, 172 bytes with the header.
pub const PCMU_20MS: Format = Format {
    payload_type: payload_type::PCMU,
    body: 160,
    ts_step: 160,
};

/// 600 Kbps H.263 at 75 pps: 988 + 12 = 1000-byte packets, one
/// 90 kHz clock step of 1200 per packet.
pub const H263_600K: Format = Format {
    payload_type: payload_type::H263,
    body: 988,
    ts_step: 1200,
};

fn stream_key(seed: u64, source: u32, seq: u64) -> u64 {
    mix(seed ^ (u64::from(source) << 40) ^ seq)
}

/// The SSRC every packet of `source` carries.
pub fn ssrc(seed: u64, source: u32) -> u32 {
    (mix(seed ^ 0x55AA ^ u64::from(source)) as u32) | 1
}

fn body_byte(key: u64, k: usize) -> u8 {
    ((key >> ((k & 7) * 8)) as u8) ^ ((k >> 3) as u8)
}

/// Builds the RTP packet `source` sends as its `seq`-th packet.
pub fn packet(format: Format, seed: u64, source: u32, seq: u64) -> Bytes {
    let key = stream_key(seed, source, seq);
    let header = RtpHeader::new(
        format.payload_type,
        seq as u16,
        (seq as u32).wrapping_mul(format.ts_step),
        ssrc(seed, source),
    );
    // A plain heap buffer, not `RtpPacket::encode`'s pooled one: the
    // generator keeps every packet until the phase is checked, which
    // would drain the buffer pool the program's own frames draw on.
    let mut wire = Vec::with_capacity(header.wire_len() + format.body);
    header.encode_into(&mut wire);
    wire.extend((0..format.body).map(|k| body_byte(key, k)));
    Bytes::from(wire)
}

/// Checks a received payload against what `source` sent as `seq`:
/// the RTP header parses, carries the source's SSRC, the sequence
/// number and timestamp that follow from `seq`, and every body byte.
pub fn verify(
    format: Format,
    seed: u64,
    source: u32,
    seq: u64,
    payload: &[u8],
) -> Result<(), String> {
    let rtp = WireRtp::parse(payload).map_err(|e| format!("RTP header does not parse: {e}"))?;
    if rtp.payload_type() != format.payload_type
        || rtp.ssrc() != ssrc(seed, source)
        || rtp.sequence_number() != seq as u16
        || rtp.timestamp() != (seq as u32).wrapping_mul(format.ts_step)
    {
        return Err(format!(
            "RTP header of source {source} seq {seq} is wrong (pt {}, ssrc {:#x}, rtp seq {})",
            rtp.payload_type(),
            rtp.ssrc(),
            rtp.sequence_number()
        ));
    }
    let body = rtp.payload();
    if body.len() != format.body {
        return Err(format!(
            "source {source} seq {seq}: body is {} bytes",
            body.len()
        ));
    }
    let key = stream_key(seed, source, seq);
    if let Some(k) = (0..body.len()).find(|&k| body[k] != body_byte(key, k)) {
        return Err(format!(
            "source {source} seq {seq}: payload byte {k} differs"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packets_round_trip_and_sizes_match_the_formats() {
        let p = packet(PCMU_20MS, 9, 3, 70_000);
        assert_eq!(p.len(), 172);
        verify(PCMU_20MS, 9, 3, 70_000, &p).unwrap();
        assert!(verify(PCMU_20MS, 9, 4, 70_000, &p).is_err());
        assert!(verify(PCMU_20MS, 10, 3, 70_000, &p).is_err());
        assert_eq!(packet(H263_600K, 1, 0, 0).len(), 1000);
    }
}
