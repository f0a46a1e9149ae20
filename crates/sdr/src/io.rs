//! IQ capture file I/O in the **cf32** format: interleaved little-endian
//! `f32` I/Q pairs (GNU Radio's `file_sink` with `gr_complex`).
//!
//! It lets waveforms generated here be inspected in external tools
//! (inspectrum, GNU Radio) and let real captures be replayed through the
//! detector models.

use crate::complex::Cf64;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes a waveform as interleaved little-endian f32 pairs (cf32).
pub fn write_cf32(path: &Path, buf: &[Cf64]) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    for s in buf {
        w.write_all(&(s.re as f32).to_le_bytes())?;
        w.write_all(&(s.im as f32).to_le_bytes())?;
    }
    w.flush()
}

/// Reads a cf32 capture. Trailing partial samples are an error.
pub fn read_cf32(path: &Path) -> io::Result<Vec<Cf64>> {
    let mut r = BufReader::new(File::open(path)?);
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    if bytes.len() % 8 != 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("cf32 file length {} not a multiple of 8", bytes.len()),
        ));
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| {
            Cf64::new(
                f32::from_le_bytes([c[0], c[1], c[2], c[3]]) as f64,
                f32::from_le_bytes([c[4], c[5], c[6], c[7]]) as f64,
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("rjam_io_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn cf32_roundtrip() {
        let mut rng = Rng::seed_from(1);
        let buf: Vec<Cf64> = (0..1000)
            .map(|_| Cf64::new(rng.gaussian() as f32 as f64, rng.gaussian() as f32 as f64))
            .collect();
        let path = temp_path("a.cf32");
        write_cf32(&path, &buf).unwrap();
        let back = read_cf32(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.len(), buf.len());
        for (a, b) in buf.iter().zip(back.iter()) {
            assert!(
                (*a - *b).abs() < 1e-12,
                "f32-representable values round-trip exactly"
            );
        }
    }

    #[test]
    fn empty_files() {
        let path = temp_path("empty.cf32");
        write_cf32(&path, &[]).unwrap();
        assert!(read_cf32(&path).unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_rejected() {
        let path = temp_path("bad.cf32");
        std::fs::write(&path, [0u8; 7]).unwrap();
        assert!(read_cf32(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_size_matches_format() {
        let buf = vec![Cf64::ONE; 10];
        let p1 = temp_path("size.cf32");
        write_cf32(&p1, &buf).unwrap();
        assert_eq!(std::fs::metadata(&p1).unwrap().len(), 80);
        std::fs::remove_file(&p1).ok();
    }
}
