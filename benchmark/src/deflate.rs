//! Set-up-only gzip encoder: greedy hash-chain LZ77 over a 32 KiB
//! window, coded with the fixed Huffman tables of RFC 1951 §3.2.6.
//!
//! `flate_lite::write::GzEncoder` emits literals only, so its output
//! is larger than its input and never exercises the inflater's
//! match-copy path. Archives compressed here look like what the
//! collectors publish (`gzip`-like ratios, mostly matches), depend on
//! no host tool and are byte-deterministic.

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const MAX_CHAIN: usize = 48;
/// A match this long is taken without walking the rest of the chain.
const GOOD_ENOUGH: usize = 96;
const HASH_BITS: u32 = 15;
const NIL: u32 = u32::MAX;

const LEN_BASE: [u16; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u8; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];
const DIST_BASE: [u16; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u8; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// LSB-first bit sink. Huffman codes are defined MSB-first, so they
/// are stored bit-reversed and written like any other field.
struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    n: u32,
}

impl BitWriter {
    fn put(&mut self, value: u32, bits: u32) {
        self.acc |= u64::from(value) << self.n;
        self.n += bits;
        while self.n >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.n -= 8;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        if self.n > 0 {
            self.out.push(self.acc as u8);
        }
        self.out
    }
}

fn reverse(code: u32, bits: u32) -> u32 {
    code.reverse_bits() >> (32 - bits)
}

/// Fixed literal/length code of `sym` as (bit-reversed code, length).
fn fixed_code(sym: u32) -> (u32, u32) {
    let (code, bits) = match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + sym - 144, 9),
        256..=279 => (sym - 256, 7),
        _ => (0xC0 + sym - 280, 8),
    };
    (reverse(code, bits), bits)
}

fn hash3(d: &[u8], i: usize) -> usize {
    let v = u32::from(d[i]) | u32::from(d[i + 1]) << 8 | u32::from(d[i + 2]) << 16;
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// One gzip member holding `data` (MTIME 0, OS unknown).
pub fn gzip(data: &[u8]) -> Vec<u8> {
    let lit: Vec<(u32, u32)> = (0..288).map(fixed_code).collect();
    // Symbol index of every match length 3..=258.
    let mut len_sym = [0u8; MAX_MATCH + 1];
    for (s, &base) in LEN_BASE.iter().enumerate() {
        len_sym[base as usize..].fill(s as u8);
    }

    let mut w = BitWriter {
        out: Vec::with_capacity(data.len() / 4 + 64),
        acc: 0,
        n: 0,
    };
    w.out
        .extend_from_slice(&[0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff]);
    w.put(1, 1); // BFINAL
    w.put(1, 2); // BTYPE = fixed Huffman

    let mut head = vec![NIL; 1 << HASH_BITS];
    let mut prev = vec![NIL; WINDOW];
    let insert = |head: &mut [u32], prev: &mut [u32], i: usize| {
        let h = hash3(data, i);
        prev[i % WINDOW] = head[h];
        head[h] = i as u32;
    };

    let n = data.len();
    let mut i = 0;
    while i < n {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= n {
            let limit = (n - i).min(MAX_MATCH);
            let mut cand = head[hash3(data, i)];
            let mut chain = 0;
            while cand != NIL && chain < MAX_CHAIN {
                let c = cand as usize;
                if i - c > WINDOW - 1 {
                    break;
                }
                if data[c + best_len.min(limit - 1)] == data[i + best_len.min(limit - 1)] {
                    let mut l = 0;
                    while l < limit && data[c + l] == data[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - c;
                        if l >= GOOD_ENOUGH.min(limit) {
                            break;
                        }
                    }
                }
                cand = prev[c % WINDOW];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            let s = len_sym[best_len] as usize;
            let (code, bits) = lit[257 + s];
            w.put(code, bits);
            w.put(
                (best_len - LEN_BASE[s] as usize) as u32,
                u32::from(LEN_EXTRA[s]),
            );
            let d = DIST_BASE.partition_point(|&b| b as usize <= best_dist) - 1;
            w.put(reverse(d as u32, 5), 5);
            w.put(
                (best_dist - DIST_BASE[d] as usize) as u32,
                u32::from(DIST_EXTRA[d]),
            );
            let end = i + best_len;
            while i < end {
                if i + MIN_MATCH <= n {
                    insert(&mut head, &mut prev, i);
                }
                i += 1;
            }
        } else {
            let (code, bits) = lit[data[i] as usize];
            w.put(code, bits);
            if i + MIN_MATCH <= n {
                insert(&mut head, &mut prev, i);
            }
            i += 1;
        }
    }
    let (code, bits) = lit[256];
    w.put(code, bits);

    let mut out = w.finish();
    out.extend_from_slice(&flate_lite::crc32(0, data).to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::gzip;
    use std::io::Read;

    fn gunzip(gz: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        flate_lite::read::MultiGzDecoder::new(gz)
            .read_to_end(&mut out)
            .expect("inflates");
        out
    }

    #[test]
    fn round_trips_edge_cases() {
        for data in [
            &b""[..],
            b"a",
            b"ab",
            b"abc",
            b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        ] {
            assert_eq!(gunzip(&gzip(data)), data);
        }
    }

    #[test]
    fn round_trips_and_shrinks_repetitive_input_beyond_one_window() {
        // 160 KiB of one random 4 KiB unit repeated: all matches, the
        // hash chains wrap the window several times.
        let mut data = Vec::new();
        let mut x = 12345u32;
        let unit: Vec<u8> = (0..4099)
            .map(|_| {
                x = x.wrapping_mul(1_103_515_245).wrapping_add(12345);
                (x >> 16) as u8
            })
            .collect();
        for k in 0..40u8 {
            data.extend_from_slice(&unit);
            data.push(k);
        }
        let gz = gzip(&data);
        assert_eq!(gunzip(&gz), data);
        assert!(gz.len() * 4 < data.len(), "{} -> {}", data.len(), gz.len());
        assert_eq!(gz, gzip(&data), "byte-deterministic");
    }
}
