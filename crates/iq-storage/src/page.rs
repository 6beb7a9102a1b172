//! Physical page images.
//!
//! The storage unit in SAP IQ is a page; "a page is stored physically as a
//! contiguous set of blocks and can occupy anywhere between 1–16 blocks"
//! (§2, footnote 2). A [`Page`] is the logical object; [`Page::seal`]
//! produces the physical image — header with checksum, then the
//! page-compressed payload, and not one byte more — and [`Page::unseal`]
//! reverses it, verifying the checksum. The image is byte-exact because an
//! object store bills and moves bytes, not blocks: a whole object, a
//! composite member and an OCM entry all hold exactly the image. Only a
//! block device stores whole blocks, so only its `write_blocks` pads the
//! last one; `unseal` reads `payload_len` and ignores what follows.

use bytes::Bytes;
use iq_common::{IqError, IqResult, PageId, VersionId};
use serde::{Deserialize, Serialize};

use crate::checksum::checksum64;
use crate::compress;

/// Fixed header size of a sealed page image.
pub const HEADER_LEN: usize = 40;
const MAGIC: u32 = 0x4951_5047; // "IQPG"
/// Header bytes `[0, CHECKSUM_AT)` are the fields, the rest the checksum.
const CHECKSUM_AT: usize = HEADER_LEN - 8;
/// The one flag bit in use: the payload is page-compressed.
const FLAG_COMPRESSED: u8 = 1;

/// Blocks-per-page: IQ pages span 1–16 blocks.
pub const MAX_BLOCKS_PER_PAGE: u32 = 16;

/// Global storage geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StorageConfig {
    /// Logical page size in bytes. SAP IQ's cloud deployments use 512 KiB
    /// pages (the paper calls the unified page size an intrinsic limit,
    /// §6); tests shrink this.
    pub page_size: u32,
}

impl StorageConfig {
    /// Production-like geometry: 512 KiB pages, 32 KiB blocks.
    pub fn paper_default() -> Self {
        Self {
            page_size: 512 * 1024,
        }
    }

    /// Small geometry for tests: 4 KiB pages, 256-byte blocks.
    pub fn test_small() -> Self {
        Self { page_size: 4096 }
    }

    /// Block size: a page spans at most 16 blocks, so one block is 1/16 of
    /// a page.
    pub fn block_size(&self) -> u32 {
        self.page_size / MAX_BLOCKS_PER_PAGE
    }
}

/// What a page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[repr(u8)]
pub enum PageKind {
    /// User/table data.
    Data = 0,
    /// A blockmap tree node.
    Blockmap = 1,
    /// Index structure.
    Index = 2,
    /// Metadata (catalog blob segments, RF/RB bitmap images, …).
    Meta = 3,
}

impl PageKind {
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(PageKind::Data),
            1 => Some(PageKind::Blockmap),
            2 => Some(PageKind::Index),
            3 => Some(PageKind::Meta),
            _ => None,
        }
    }
}

/// A logical page: identity plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// Logical page number.
    pub id: PageId,
    /// Version counter under which this image was produced.
    pub version: VersionId,
    /// Payload kind.
    pub kind: PageKind,
    /// Uncompressed payload. At most `page_size - HEADER_LEN` bytes.
    pub body: Bytes,
}

impl Page {
    /// Create a data page.
    pub fn new(id: PageId, version: VersionId, kind: PageKind, body: Bytes) -> Self {
        Self {
            id,
            version,
            kind,
            body,
        }
    }

    /// Maximum payload bytes a page can carry under `config`.
    pub fn max_body_len(config: &StorageConfig) -> usize {
        config.page_size as usize - HEADER_LEN
    }

    /// Produce the physical image: header and compressed (or raw) payload,
    /// exactly `HEADER_LEN + payload_len` bytes. Returns the image and the
    /// number of blocks it spans on a block device (1–16); only the device
    /// pads the last one.
    pub fn seal(&self, config: &StorageConfig) -> IqResult<(Bytes, u8)> {
        let body = &self.body[..];
        if body.len() > Self::max_body_len(config) {
            return Err(IqError::Invalid(format!(
                "page body of {} bytes exceeds page size {}",
                body.len(),
                config.page_size
            )));
        }
        // Room for the raw body, the larger of the two payloads; the
        // compressor writes behind the reserved header and gives up once
        // it is no smaller than that.
        let mut image = Vec::with_capacity(HEADER_LEN + body.len());
        image.resize(HEADER_LEN, 0);
        // Store compressed only when it actually saves space.
        let compressed =
            !body.is_empty() && compress::compress_into(body, &mut image, body.len() - 1);
        if !compressed {
            image.extend_from_slice(body);
        }
        let payload_len = image.len() - HEADER_LEN;

        let header = &mut image[..HEADER_LEN];
        header[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        header[4] = self.kind as u8;
        header[5] = if compressed { FLAG_COMPRESSED } else { 0 };
        // [6, 8) reserved, zero.
        header[8..16].copy_from_slice(&self.id.0.to_le_bytes());
        header[16..24].copy_from_slice(&self.version.0.to_le_bytes());
        header[24..28].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[28..32].copy_from_slice(&(payload_len as u32).to_le_bytes());
        let checksum = image_checksum(&image);
        image[CHECKSUM_AT..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());

        let blocks = image.len().div_ceil(config.block_size() as usize) as u8;
        debug_assert!(blocks as u32 <= MAX_BLOCKS_PER_PAGE);
        Ok((Bytes::from(image), blocks))
    }

    /// Parse and verify a physical image.
    pub fn unseal(image: &[u8]) -> IqResult<Page> {
        if image.len() < HEADER_LEN {
            return Err(IqError::Corruption("page image shorter than header".into()));
        }
        let magic = u32::from_le_bytes(image[0..4].try_into().unwrap());
        if magic != MAGIC {
            return Err(IqError::Corruption(format!("bad page magic {magic:#x}")));
        }
        let kind = PageKind::from_u8(image[4])
            .ok_or_else(|| IqError::Corruption(format!("bad page kind {}", image[4])))?;
        let flags = image[5];
        if flags & !FLAG_COMPRESSED != 0 {
            return Err(IqError::Corruption(format!(
                "unknown page flags {flags:#x}"
            )));
        }
        let id = PageId(u64::from_le_bytes(image[8..16].try_into().unwrap()));
        let version = VersionId(u64::from_le_bytes(image[16..24].try_into().unwrap()));
        let body_len = u32::from_le_bytes(image[24..28].try_into().unwrap()) as usize;
        let payload_len = u32::from_le_bytes(image[28..32].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(image[CHECKSUM_AT..HEADER_LEN].try_into().unwrap());
        let end = HEADER_LEN + payload_len;
        if end > image.len() {
            return Err(IqError::Corruption("payload extends past image".into()));
        }
        if image_checksum(&image[..end]) != checksum {
            return Err(IqError::Corruption(format!(
                "checksum mismatch on page {id}"
            )));
        }
        let payload = &image[HEADER_LEN..end];
        let body = if flags & FLAG_COMPRESSED != 0 {
            // `decompress` bounds `body_len` by what `payload` can encode
            // before it allocates.
            Bytes::from(compress::decompress(payload, body_len)?)
        } else {
            if payload_len != body_len {
                return Err(IqError::Corruption("raw payload length mismatch".into()));
            }
            Bytes::copy_from_slice(payload)
        };
        Ok(Page {
            id,
            version,
            kind,
            body,
        })
    }
}

/// The sum stored at [`CHECKSUM_AT`]: over the header fields before it,
/// chained into the payload. `image` ends where the payload does.
fn image_checksum(image: &[u8]) -> u64 {
    checksum64(checksum64(0, &image[..CHECKSUM_AT]), &image[HEADER_LEN..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> StorageConfig {
        StorageConfig::test_small()
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let body = Bytes::from(vec![42u8; 1000]);
        let page = Page::new(PageId(7), VersionId(3), PageKind::Data, body);
        let (image, blocks) = page.seal(&cfg()).unwrap();
        let payload_len = u32::from_le_bytes(image[28..32].try_into().unwrap()) as usize;
        assert_eq!(image.len(), HEADER_LEN + payload_len, "no padding");
        assert_eq!(
            blocks as usize,
            image.len().div_ceil(cfg().block_size() as usize)
        );
        let back = Page::unseal(&image).unwrap();
        assert_eq!(back, page);
    }

    #[test]
    fn compressible_page_spans_fewer_blocks() {
        let compressible = Page::new(
            PageId(1),
            VersionId(1),
            PageKind::Data,
            Bytes::from(vec![0u8; 3000]),
        );
        let (_, blocks_c) = compressible.seal(&cfg()).unwrap();
        let mut rng = iq_common::DetRng::new(1);
        let random: Vec<u8> = (0..3000).map(|_| rng.next_u64() as u8).collect();
        let incompressible =
            Page::new(PageId(2), VersionId(1), PageKind::Data, Bytes::from(random));
        let (_, blocks_r) = incompressible.seal(&cfg()).unwrap();
        assert!(
            blocks_c < blocks_r,
            "compressible={blocks_c} random={blocks_r}"
        );
    }

    #[test]
    fn oversized_body_rejected() {
        let body = Bytes::from(vec![0u8; cfg().page_size as usize]);
        let page = Page::new(PageId(1), VersionId(1), PageKind::Data, body);
        assert!(page.seal(&cfg()).is_err());
    }

    #[test]
    fn corruption_detected() {
        let page = Page::new(
            PageId(1),
            VersionId(1),
            PageKind::Data,
            Bytes::from_static(b"some page payload data here"),
        );
        let (image, _) = page.seal(&cfg()).unwrap();
        let mut bad = image.to_vec();
        bad[HEADER_LEN + 3] ^= 0xff;
        assert!(matches!(Page::unseal(&bad), Err(IqError::Corruption(_))));
        // Bad magic.
        let mut bad = image.to_vec();
        bad[0] = 0;
        assert!(Page::unseal(&bad).is_err());
        // Truncated.
        assert!(Page::unseal(&image[..10]).is_err());
    }

    #[test]
    fn kinds_roundtrip() {
        for kind in [
            PageKind::Data,
            PageKind::Blockmap,
            PageKind::Index,
            PageKind::Meta,
        ] {
            let page = Page::new(PageId(9), VersionId(1), kind, Bytes::from_static(b"k"));
            let (image, _) = page.seal(&cfg()).unwrap();
            assert_eq!(Page::unseal(&image).unwrap().kind, kind);
        }
    }

    proptest! {
        #[test]
        fn arbitrary_bodies_roundtrip(
            body in proptest::collection::vec(any::<u8>(), 0..4000),
            id in any::<u64>(),
            ver in any::<u64>(),
        ) {
            let page = Page::new(PageId(id), VersionId(ver), PageKind::Data, Bytes::from(body));
            let (image, blocks) = page.seal(&cfg()).unwrap();
            prop_assert!(blocks >= 1 && blocks as u32 <= MAX_BLOCKS_PER_PAGE);
            prop_assert_eq!(Page::unseal(&image).unwrap(), page);
        }

        /// What a block device hands back — the image zero-filled to its
        /// last block — unseals to the same page; and with no padding
        /// left to hide a truncation, every strict prefix is corrupt.
        #[test]
        fn block_padded_image_unseals_and_every_prefix_is_corrupt(
            body in proptest::collection::vec(0u8..4, 0..2000),
            id in any::<u64>(),
        ) {
            let page = Page::new(PageId(id), VersionId(1), PageKind::Data, Bytes::from(body));
            let (image, blocks) = page.seal(&cfg()).unwrap();
            let mut padded = image.to_vec();
            padded.resize(blocks as usize * cfg().block_size() as usize, 0);
            prop_assert_eq!(Page::unseal(&padded).unwrap(), page);
            for cut in 0..image.len() {
                prop_assert!(
                    matches!(Page::unseal(&image[..cut]), Err(IqError::Corruption(_))),
                    "prefix of {} / {} bytes accepted", cut, image.len()
                );
            }
        }
    }
}
