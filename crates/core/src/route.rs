//! Request routing keys for multi-worker placement.
//!
//! A sharded front end (see `at-server`'s `ShardedServer`) places each
//! submission on one of N workers. The placement that preserves the
//! paper's batched-serving win is **hash affinity**: requests that are
//! byte-equal land on the same worker, so the duplicate collapse inside
//! [`FanOutService::serve_batch`](crate::FanOutService::serve_batch)
//! keeps seeing its duplicates — a zipf-skewed stream split round-robin
//! would scatter each hot request across every worker's micro-batches
//! and pay the synopsis pass once *per worker* instead of once.
//!
//! [`RouteKey`] is the one contract that placement needs: a stable hash
//! of the request's identity. The law mirrors `Eq`/`Hash`: two requests
//! that compare equal under the service's `PartialEq` **must** return
//! the same key. The duplicate collapse buckets a batch by this key and
//! confirms every hit with `PartialEq`, so a collision costs one extra
//! comparison and a law violation costs a missed collapse — neither can
//! merge two different requests.
//!
//! The default building block is the FNV-1a streaming hash — small,
//! allocation-free, and stable across runs and platforms (routing must
//! be reproducible for replayed request streams, so `std`'s randomly
//! seeded `DefaultHasher` is not an option).

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher: feed words, take the key.
///
/// Allocation-free and deterministic across processes — the properties
/// the routing hot path and replayed-stream reproducibility need.
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Start a fresh hash at the FNV offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mix one byte.
    #[inline]
    pub fn write_u8(&mut self, byte: u8) {
        self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }

    /// Mix a `u32` (little-endian bytes).
    #[inline]
    pub fn write_u32(&mut self, word: u32) {
        for byte in word.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Mix a `u64` (little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Mix an `f64` by its bit pattern, with `-0.0` canonicalised to
    /// `0.0`: the two compare equal, so the [`RouteKey`] law requires
    /// them to hash alike. (`NaN` never equals anything, itself
    /// included, so its payload bits are free to differ.)
    #[inline]
    pub fn write_f64(&mut self, value: f64) {
        let canonical = if value == 0.0 { 0.0 } else { value };
        self.write_u64(canonical.to_bits());
    }

    /// The accumulated 64-bit hash.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash a byte slice with FNV-1a (convenience over [`Fnv1a`]).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for &b in bytes {
        h.write_u8(b);
    }
    h.finish()
}

/// A stable request hash: multi-worker placement routes by it and the
/// batched duplicate collapse buckets by it.
///
/// # Contract
/// `a == b` (the request type's `PartialEq`) implies
/// `a.route_key() == b.route_key()`. The key must be deterministic
/// across runs — replayed request streams route identically.
pub trait RouteKey {
    /// This request's stable placement hash.
    fn route_key(&self) -> u64;
}

macro_rules! impl_route_key_uint {
    ($($t:ty),*) => {$(
        impl RouteKey for $t {
            #[inline]
            fn route_key(&self) -> u64 {
                let mut h = Fnv1a::new();
                h.write_u64(*self as u64);
                h.finish()
            }
        }
    )*};
}

impl_route_key_uint!(u8, u16, u32, u64, usize);

impl<K: RouteKey + ?Sized> RouteKey for &K {
    fn route_key(&self) -> u64 {
        (**self).route_key()
    }
}

impl RouteKey for () {
    fn route_key(&self) -> u64 {
        Fnv1a::new().finish()
    }
}

impl<K: RouteKey> RouteKey for Vec<K> {
    fn route_key(&self) -> u64 {
        let mut h = Fnv1a::new();
        for item in self {
            h.write_u64(item.route_key());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn equal_requests_share_a_key() {
        assert_eq!(7u32.route_key(), 7u32.route_key());
        // The blanket `&K` impl, called explicitly, forwards to the
        // value impl.
        let seven = 7u32;
        assert_eq!(<&u32 as RouteKey>::route_key(&&seven), seven.route_key());
    }

    #[test]
    fn keys_spread_small_domains() {
        // 24 distinct requests over 4 workers: every worker owns at
        // least one key (the quick-deployment shape the shard bench
        // routes).
        let mut owners = [false; 4];
        for r in 0..24u32 {
            owners[(r.route_key() % 4) as usize] = true;
        }
        assert!(
            owners.iter().all(|&o| o),
            "hash must spread 24 keys over 4 workers"
        );
    }

    #[test]
    fn signed_zeros_hash_alike() {
        let key = |v: f64| {
            let mut h = Fnv1a::new();
            h.write_f64(v);
            h.finish()
        };
        assert_eq!(key(0.0), key(-0.0));
        assert_ne!(key(0.0), key(1.0));
        assert_ne!(key(1.0), key(-1.0));
    }

    #[test]
    fn streaming_words_match_byte_feed() {
        let mut h = Fnv1a::new();
        h.write_u32(0x0403_0201);
        assert_eq!(h.finish(), fnv1a(&[1, 2, 3, 4]));
    }
}
