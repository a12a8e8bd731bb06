//! Binary (de)serialization of traces.
//!
//! A compact hand-rolled format (magic `DGTRACE1`, little endian), so
//! captured traces can be stored and replayed against many
//! configurations without re-running the workload.

use crate::{
    Access, AccessKind, Addr, AnnotationTable, ApproxRegion, BlockData, ElemType, MemoryImage,
    Trace, BLOCK_BYTES,
};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"DGTRACE1";

/// Cap on the pre-allocation of the per-core stream list.
///
/// Length fields come verbatim from the (untrusted) file, so a corrupt
/// header must not be able to request a multi-GiB allocation — or a
/// capacity-overflow abort — before the per-element reads hit EOF and
/// surface a clean `InvalidData`/`UnexpectedEof` error. The access
/// streams themselves are sized in one fallible step instead (see
/// [`Trace::read_from`]): growing a multi-million-record vector by
/// doubling from a cap was a measurable share of decode time.
const MAX_PREALLOC: usize = 4096;

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn read_exact<R: Read, const N: usize>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    Ok(u32::from_le_bytes(read_exact(r)?))
}

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    Ok(u64::from_le_bytes(read_exact(r)?))
}

fn read_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    Ok(f64::from_le_bytes(read_exact(r)?))
}

impl Trace {
    /// Serialize the trace (initial image + annotations + per-core
    /// access streams) into `w`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        // Annotations.
        write_u32(w, self.annotations.len() as u32)?;
        for r in self.annotations.iter() {
            write_u64(w, r.start.0)?;
            write_u64(w, r.len)?;
            w.write_all(&[r.ty.code()])?;
            write_f64(w, r.min)?;
            write_f64(w, r.max)?;
        }
        // Initial image.
        write_u64(w, self.initial.populated_blocks() as u64)?;
        for (addr, data) in self.initial.iter_blocks() {
            write_u64(w, addr.0)?;
            w.write_all(data.as_bytes())?;
        }
        // Per-core streams.
        write_u32(w, self.cores.len() as u32)?;
        for core in &self.cores {
            write_u64(w, core.len() as u64)?;
            for a in core {
                write_u64(w, a.addr.0)?;
                let flags = u8::from(a.kind.is_store())
                    | (u8::from(a.approx) << 1)
                    | (u8::from(a.data.is_some()) << 2);
                w.write_all(&[flags, a.size])?;
                write_u32(w, a.think)?;
                if let Some(d) = a.data {
                    w.write_all(&d)?;
                }
            }
        }
        Ok(())
    }

    /// Deserialize a trace previously written by [`Trace::write_to`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a bad magic/contents, or any reader
    /// error.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Trace> {
        let magic: [u8; 8] = read_exact(r)?;
        if &magic != MAGIC {
            return Err(bad("not a DGTRACE1 file"));
        }
        let mut annotations = AnnotationTable::new();
        let n_regions = read_u32(r)?;
        for _ in 0..n_regions {
            let start = read_u64(r)?;
            let len = read_u64(r)?;
            let [code] = read_exact(r)?;
            let ty = ElemType::from_code(code).ok_or_else(|| bad("bad element type"))?;
            let min = read_f64(r)?;
            let max = read_f64(r)?;
            // `ApproxRegion::new` and `AnnotationTable::add` assert
            // their invariants; a corrupt file must fail with an
            // `io::Error`, not a panic, so validate here first.
            if len == 0 {
                return Err(bad("empty annotation region"));
            }
            if !(min <= max) {
                return Err(bad("annotation range must satisfy min <= max"));
            }
            let end = start
                .checked_add(len)
                .ok_or_else(|| bad("annotation region wraps the address space"))?;
            if annotations.iter().any(|r| start < r.start.0 + r.len && r.start.0 < end) {
                return Err(bad("overlapping annotation regions"));
            }
            annotations.add(ApproxRegion::new(Addr(start), len, ty, min, max));
        }
        let mut initial = MemoryImage::new();
        let n_blocks = read_u64(r)?;
        for _ in 0..n_blocks {
            let addr = read_u64(r)?;
            let bytes: [u8; BLOCK_BYTES] = read_exact(r)?;
            initial.set_block(crate::BlockAddr(addr), BlockData::from_bytes(bytes));
        }
        let n_cores = read_u32(r)? as usize;
        let mut cores = Vec::with_capacity(n_cores.min(MAX_PREALLOC));
        for _ in 0..n_cores {
            // One allocation of the declared size, asked for fallibly:
            // a count no allocator can satisfy is a corrupt file, not an
            // abort, and one that merely overstates the stream costs
            // untouched address space until the reads below hit EOF.
            let n = usize::try_from(read_u64(r)?).map_err(|_| bad("access count out of range"))?;
            let mut stream: Vec<Access> = Vec::new();
            stream.try_reserve_exact(n).map_err(|_| bad("access count exceeds memory"))?;
            for _ in 0..n {
                let addr = read_u64(r)?;
                let [flags, size] = read_exact(r)?;
                let think = read_u32(r)?;
                let kind = if flags & 1 != 0 { AccessKind::Store } else { AccessKind::Load };
                let data = if flags & 4 != 0 { Some(read_exact::<R, 8>(r)?) } else { None };
                if !(1..=8).contains(&size) {
                    return Err(bad("access size out of range"));
                }
                stream.push(Access {
                    addr: Addr(addr),
                    kind,
                    size,
                    approx: flags & 2 != 0,
                    think,
                    data,
                });
            }
            cores.push(stream);
        }
        Ok(Trace::new(initial, annotations, cores))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Memory;

    fn sample_trace() -> Trace {
        let mut image = MemoryImage::new();
        image.store_f32(Addr(64), 1.5);
        image.store_i32(Addr(4096), -7);
        let mut annotations = AnnotationTable::new();
        annotations.add(ApproxRegion::new(Addr(0), 1024, ElemType::F32, -1.0, 1.0));
        let mut a0 = Access::new(Addr(64), AccessKind::Load, 4).approximate();
        a0.think = 17;
        let a1 = Access::new(Addr(4096), AccessKind::Store, 4).with_data([9, 8, 7, 6, 0, 0, 0, 0]);
        Trace::new(image, annotations, vec![vec![a0, a1], vec![]])
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.cores, t.cores);
        assert_eq!(back.annotations.len(), 1);
        assert_eq!(back.initial.populated_blocks(), 2);
        let mut img = back.initial.clone();
        assert_eq!(img.load_f32(Addr(64)), 1.5);
        assert_eq!(img.load_i32(Addr(4096)), -7);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = Trace::read_from(&mut &b"NOTATRACE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn rejects_truncation() {
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(Trace::read_from(&mut buf.as_slice()).is_err());
    }

    /// Header for a trace with no annotations and no initial image,
    /// ready for an adversarial core-stream section.
    fn empty_header() -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u32.to_le_bytes()); // n_regions
        buf.extend_from_slice(&0u64.to_le_bytes()); // n_blocks
        buf
    }

    #[test]
    fn rejects_absurd_core_count() {
        // A file that claims u32::MAX cores and then ends. Pre-fix this
        // tried `Vec::with_capacity(u32::MAX)` of `Vec<Access>` (~100 GiB)
        // and aborted before any EOF error could surface.
        let mut buf = empty_header();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Trace::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_absurd_access_count() {
        // One core claiming u64::MAX accesses: pre-fix this panicked in
        // `Vec::with_capacity` with a capacity overflow.
        let mut buf = empty_header();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Trace::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_plausible_count_larger_than_the_stream() {
        // A count that allocates fine (a million records) in front of
        // two records' worth of bytes: the reservation succeeds and the
        // third read reports the truncation.
        let mut buf = empty_header();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1_000_000u64.to_le_bytes());
        for addr in [64u64, 128] {
            buf.extend_from_slice(&addr.to_le_bytes());
            buf.extend_from_slice(&[0, 4]); // load, 4 bytes
            buf.extend_from_slice(&0u32.to_le_bytes()); // think
        }
        let err = Trace::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_truncation_at_every_prefix() {
        // No prefix of a valid file may parse, panic, or abort.
        let t = sample_trace();
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        for cut in 0..buf.len() {
            assert!(Trace::read_from(&mut &buf[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
    }

    fn region_bytes(start: u64, len: u64, min: f64, max: f64) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&start.to_le_bytes());
        buf.extend_from_slice(&len.to_le_bytes());
        buf.push(ElemType::F32.code());
        buf.extend_from_slice(&min.to_le_bytes());
        buf.extend_from_slice(&max.to_le_bytes());
        buf
    }

    #[test]
    fn rejects_invalid_regions_without_panicking() {
        // Each corrupt region header must come back as a clean Err; the
        // pre-fix code forwarded them into asserting constructors.
        let cases: Vec<(Vec<u8>, &str)> = vec![
            (region_bytes(0, 0, -1.0, 1.0), "empty region"),
            (region_bytes(0, 1024, 1.0, -1.0), "inverted range"),
            (region_bytes(0, 1024, f64::NAN, 1.0), "NaN bound"),
            (region_bytes(u64::MAX - 4, 1024, -1.0, 1.0), "wrapping region"),
        ];
        for (region, what) in cases {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&1u32.to_le_bytes());
            buf.extend_from_slice(&region);
            let err = Trace::read_from(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
    }

    #[test]
    fn rejects_overlapping_regions() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&region_bytes(0, 1024, -1.0, 1.0));
        buf.extend_from_slice(&region_bytes(512, 1024, -1.0, 1.0));
        let err = Trace::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new(MemoryImage::new(), AnnotationTable::new(), vec![]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert!(back.cores.is_empty());
        assert_eq!(back.initial.populated_blocks(), 0);
    }
}
