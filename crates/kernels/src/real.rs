//! Real, runnable kernels.
//!
//! These are genuine kernels that execute on the host, sequentially:
//! a STREAM-style triad, a blocked DGEMM, a Jacobi 2-D stencil, and a
//! Monte-Carlo transport sweep — one representative of each personality in
//! the benchmark suite. The examples use them to show how a user would
//! instrument *their own* code with `scorep-lite` probes and derive an
//! approximate [`RegionCharacter`] from known operation counts, then tune
//! it with the plugin.

use simnode::RegionCharacter;

/// STREAM triad: `a[i] = b[i] + s * c[i]`. Returns the checksum of `a`.
pub fn triad(a: &mut [f64], b: &[f64], c: &[f64], s: f64) -> f64 {
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), c.len());
    a.iter_mut()
        .zip(b.iter().zip(c.iter()))
        .for_each(|(ai, (bi, ci))| *ai = bi + s * ci);
    a.iter().sum()
}

/// Approximate character of a triad over `n` elements: 24 bytes of DRAM
/// traffic per element, ~6 instructions per element — memory bound.
pub fn triad_character(n: usize) -> RegionCharacter {
    let ins = 6.0 * n as f64;
    RegionCharacter::builder(ins.max(1.0))
        .ipc(1.0)
        .parallel(0.995)
        .dram_bytes(24.0 * n as f64)
        .mix(0.34, 0.17, 0.05, 0.34)
        .vectorised(0.9)
        .stalls(0.7)
        .build()
}

/// Blocked matrix multiply `C += A · B` for square `n × n` row-major
/// matrices, one row block at a time.
pub fn dgemm(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert_eq!(a.len(), n * n);
    assert_eq!(b.len(), n * n);
    assert_eq!(c.len(), n * n);
    const BLOCK: usize = 32;
    c.chunks_mut(n * BLOCK)
        .enumerate()
        .for_each(|(bi, c_rows)| {
            let i0 = bi * BLOCK;
            let rows = c_rows.len() / n;
            for kk in (0..n).step_by(BLOCK) {
                let k_hi = (kk + BLOCK).min(n);
                for i in 0..rows {
                    for k in kk..k_hi {
                        let aik = a[(i0 + i) * n + k];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &b[k * n..k * n + n];
                        let crow = &mut c_rows[i * n..i * n + n];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += aik * bv;
                        }
                    }
                }
            }
        });
}

/// Approximate character of an `n × n` DGEMM: `2n³` flops, cache-blocked so
/// DRAM traffic is `O(n³ / BLOCK)` — compute bound.
pub fn dgemm_character(n: usize) -> RegionCharacter {
    let flops = 2.0 * (n as f64).powi(3);
    RegionCharacter::builder((flops * 1.5).max(1.0))
        .ipc(2.2)
        .parallel(0.997)
        .dram_bytes(flops / 32.0 * 8.0 / 2.0)
        .mix(0.30, 0.10, 0.03, 0.50)
        .vectorised(0.95)
        .stalls(0.12)
        .build()
}

/// One Jacobi sweep of the 2-D Laplace stencil on an `nx × ny` grid
/// (row-major, boundary untouched). Returns the maximum update delta.
pub fn jacobi_sweep(nx: usize, ny: usize, src: &[f64], dst: &mut [f64]) -> f64 {
    assert_eq!(src.len(), nx * ny);
    assert_eq!(dst.len(), nx * ny);
    assert!(nx >= 3 && ny >= 3, "grid too small");
    // Copy boundaries, compute interior one row at a time.
    dst[..nx].copy_from_slice(&src[..nx]);
    dst[(ny - 1) * nx..].copy_from_slice(&src[(ny - 1) * nx..]);
    let deltas: Vec<f64> = dst[nx..(ny - 1) * nx]
        .chunks_mut(nx)
        .enumerate()
        .map(|(j, row)| {
            let y = j + 1;
            row[0] = src[y * nx];
            row[nx - 1] = src[y * nx + nx - 1];
            let mut max_d: f64 = 0.0;
            for x in 1..nx - 1 {
                let v = 0.25
                    * (src[y * nx + x - 1]
                        + src[y * nx + x + 1]
                        + src[(y - 1) * nx + x]
                        + src[(y + 1) * nx + x]);
                max_d = max_d.max((v - src[y * nx + x]).abs());
                row[x] = v;
            }
            max_d
        })
        .collect();
    deltas.into_iter().fold(0.0, f64::max)
}

/// Approximate character of one Jacobi sweep: 4 flops and ~40 bytes of
/// traffic per cell for grids larger than cache — bandwidth bound.
pub fn jacobi_character(nx: usize, ny: usize) -> RegionCharacter {
    let cells = (nx * ny) as f64;
    RegionCharacter::builder((10.0 * cells).max(1.0))
        .ipc(1.2)
        .parallel(0.99)
        .dram_bytes(40.0 * cells)
        .mix(0.38, 0.10, 0.06, 0.36)
        .vectorised(0.8)
        .stalls(0.6)
        .build()
}

/// Monte-Carlo particle attenuation: tracks `n` particles through a slab
/// with a deterministic per-particle hash stream (reproducible without an
/// RNG dependency at this layer). Returns the transmitted fraction.
pub fn mc_transport(n: usize, slab_thickness: f64, sigma: f64) -> f64 {
    assert!(n > 0);
    let transmitted: usize = (0..n)
        .filter(|&i| {
            // SplitMix64-style hash → uniform in (0,1).
            let mut z = (i as u64).wrapping_add(0x9E3779B97F4A7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64;
            // Free path ~ Exp(sigma): particle transmits if path > slab.
            let path = -(1.0 - u).ln() / sigma;
            path > slab_thickness
        })
        .count();
    transmitted as f64 / n as f64
}

/// Approximate character of the MC sweep: branchy, latency-bound lookups.
pub fn mc_character(n: usize) -> RegionCharacter {
    let ins = 60.0 * n as f64;
    RegionCharacter::builder(ins.max(1.0))
        .ipc(0.9)
        .parallel(0.98)
        .dram_bytes(3.0 * ins)
        .mix(0.33, 0.07, 0.18, 0.14)
        .branches(0.06, 0.55)
        .stalls(0.72)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triad_computes_elementwise() {
        let b = vec![1.0; 1000];
        let c = vec![2.0; 1000];
        let mut a = vec![0.0; 1000];
        let sum = triad(&mut a, &b, &c, 3.0);
        assert!(a.iter().all(|&x| (x - 7.0).abs() < 1e-12));
        assert!((sum - 7000.0).abs() < 1e-9);
    }

    #[test]
    fn dgemm_matches_naive() {
        let n = 64;
        let a: Vec<f64> = (0..n * n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let b: Vec<f64> = (0..n * n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let mut c = vec![0.0; n * n];
        dgemm(n, &a, &b, &mut c);

        let mut expected = vec![0.0; n * n];
        for i in 0..n {
            for k in 0..n {
                for j in 0..n {
                    expected[i * n + j] += a[i * n + k] * b[k * n + j];
                }
            }
        }
        for (got, want) in c.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9, "dgemm mismatch: {got} vs {want}");
        }
    }

    #[test]
    fn jacobi_converges_toward_harmonic() {
        let (nx, ny) = (32, 32);
        let mut grid = vec![0.0; nx * ny];
        // Hot top edge.
        grid[..nx].fill(100.0);
        let mut next = grid.clone();
        let mut delta = f64::INFINITY;
        for _ in 0..500 {
            delta = jacobi_sweep(nx, ny, &grid, &mut next);
            std::mem::swap(&mut grid, &mut next);
        }
        assert!(delta < 0.05, "did not converge: delta {delta}");
        // Interior values must be between the boundary extremes.
        let mid = grid[(ny / 2) * nx + nx / 2];
        assert!(mid > 0.0 && mid < 100.0, "mid {mid}");
    }

    #[test]
    fn jacobi_preserves_boundary() {
        let (nx, ny) = (16, 8);
        let grid: Vec<f64> = (0..nx * ny).map(|i| i as f64).collect();
        let mut next = vec![0.0; nx * ny];
        jacobi_sweep(nx, ny, &grid, &mut next);
        assert_eq!(&next[..nx], &grid[..nx], "top boundary changed");
        assert_eq!(
            &next[(ny - 1) * nx..],
            &grid[(ny - 1) * nx..],
            "bottom boundary changed"
        );
        for y in 0..ny {
            assert_eq!(next[y * nx], grid[y * nx], "left boundary changed");
            assert_eq!(
                next[y * nx + nx - 1],
                grid[y * nx + nx - 1],
                "right boundary changed"
            );
        }
    }

    #[test]
    fn mc_transport_matches_beer_lambert() {
        // Transmission through a slab = exp(-sigma * d).
        let got = mc_transport(200_000, 1.0, 2.0);
        let want = (-2.0f64).exp();
        assert!((got - want).abs() < 0.01, "got {got}, want {want}");
    }

    #[test]
    fn mc_transport_is_deterministic() {
        assert_eq!(
            mc_transport(10_000, 0.5, 1.0),
            mc_transport(10_000, 0.5, 1.0)
        );
    }

    #[test]
    fn characters_are_valid_and_typed() {
        assert!(triad_character(1 << 20).validate().is_ok());
        assert!(dgemm_character(512).validate().is_ok());
        assert!(jacobi_character(1024, 1024).validate().is_ok());
        assert!(mc_character(1 << 20).validate().is_ok());
        // Personalities: triad/jacobi memory-bound, dgemm compute-bound.
        assert!(triad_character(1 << 20).intensity() < 1.0);
        assert!(jacobi_character(512, 512).intensity() < 1.0);
        assert!(dgemm_character(512).intensity() > 5.0);
    }
}
