//! Native Rust computations of each precise app's outputs, made apart
//! from the interpreter and the simulator.
//!
//! Each check reads the app's inputs from its initial memory, recomputes
//! the outputs with the benchmark crates' reference functions, composed
//! here where no whole-application reference exists, and compares them
//! with the outputs the app left in memory. The tolerances allow for
//! float association differences between the IR and native code.

use benchmarks::fft::fft_reference;
use benchmarks::inversek2j::{forward_kinematics, inversek2j_reference};
use benchmarks::jmeint::tri_tri_intersects;
use benchmarks::jpeg::codec::{dct_quantize, decode_coefficient_stream};
use benchmarks::kmeans::distance_reference;
use benchmarks::sobel::sobel_reference;
use benchmarks::{benchmark_by_name, Scale};

/// FFT bins: absolute error over the spectrum's largest magnitude.
const FFT_REL_TOL: f32 = 1e-4;
/// Joint angles, radians.
const IK_TOL: f32 = 1e-4;
/// Forward kinematics of the app's angles against the target, in the
/// arm's length units.
const FK_TOL: f32 = 1e-3;
/// Pixels, on the `[0, 1]` scale of sobel and kmeans outputs.
const PIXEL_TOL: f32 = 1e-5;
/// JPEG: quantized coefficients may round one step apart when the DCT
/// sum lands on a rounding boundary; decoded pixels, `[0, 255]`.
const JPEG_COEFF_TOL: f32 = 1.0;
const JPEG_PIXEL_TOL: f32 = 2.0;

/// Compares the precise app's final memory `out` with the native
/// computation on its initial memory `init`.
pub fn check(name: &str, init: &[f32], out: &[f32], scale: &Scale) -> Result<(), String> {
    let bench = benchmark_by_name(name).ok_or_else(|| format!("unknown benchmark {name}"))?;
    let got = bench.extract_outputs(out, scale);
    match name {
        "fft" => fft(init, &got, scale),
        "inversek2j" => inversek2j(init, &got, scale),
        "jmeint" => jmeint(init, &got, scale),
        "jpeg" => jpeg(init, &got, scale),
        "kmeans" => kmeans(init, &got, scale),
        "sobel" => sobel(init, &got, scale),
        _ => Err(format!("no reference for {name}")),
    }
}

fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f32::max)
}

fn within(what: &str, want: &[f32], got: &[f32], tol: f32) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "{what}: {} values, expected {}",
            got.len(),
            want.len()
        ));
    }
    let diff = max_abs_diff(want, got);
    if diff <= tol {
        Ok(())
    } else {
        Err(format!(
            "{what}: max difference {diff} over tolerance {tol}"
        ))
    }
}

fn fft(init: &[f32], got: &[f32], scale: &Scale) -> Result<(), String> {
    let n = scale.fft_points;
    let mut re = init[..n].to_vec();
    let mut im = init[n..2 * n].to_vec();
    fft_reference(&mut re, &mut im);
    re.extend_from_slice(&im);
    let peak = re.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    within("spectrum", &re, got, FFT_REL_TOL * peak)
}

fn inversek2j(init: &[f32], got: &[f32], scale: &Scale) -> Result<(), String> {
    let n = scale.ik_pairs;
    let mut want = Vec::with_capacity(2 * n);
    let mut reached = Vec::with_capacity(2 * n);
    for (k, target) in init[..2 * n].chunks_exact(2).enumerate() {
        let (th1, th2) = inversek2j_reference(target[0], target[1]);
        want.extend([th1, th2]);
        let (x, y) = forward_kinematics(got[2 * k], got[2 * k + 1]);
        reached.extend([x, y]);
    }
    within("joint angles", &want, got, IK_TOL)?;
    within(
        "forward kinematics of the angles",
        &init[..2 * n],
        &reached,
        FK_TOL,
    )
}

fn jmeint(init: &[f32], got: &[f32], scale: &Scale) -> Result<(), String> {
    let n = scale.tri_pairs;
    let want: Vec<f32> = init[..18 * n]
        .chunks_exact(18)
        .map(|c| {
            let vertex = |i: usize| [c[3 * i], c[3 * i + 1], c[3 * i + 2]];
            let v = [vertex(0), vertex(1), vertex(2)];
            let u = [vertex(3), vertex(4), vertex(5)];
            f32::from(u8::from(tri_tri_intersects(&v, &u)))
        })
        .collect();
    within("intersection decisions", &want, got, 0.0)
}

/// Luma in the order the apps compute it: `(r·cr + g·cg) + b·cb`.
fn luma(rgb: &[f32], gain: f32) -> Vec<f32> {
    let (cr, cg, cb) = (0.299 * gain, 0.587 * gain, 0.114 * gain);
    rgb.chunks_exact(3)
        .map(|p| p[0] * cr + p[1] * cg + p[2] * cb)
        .collect()
}

fn jpeg(init: &[f32], got: &[f32], scale: &Scale) -> Result<(), String> {
    let dim = (scale.image_dim / 8) * 8;
    let gray = luma(&init[..3 * dim * dim], 255.0);
    let mut want = Vec::with_capacity(dim * dim);
    for by in 0..dim / 8 {
        for bx in 0..dim / 8 {
            let mut block = [0.0f32; 64];
            for y in 0..8 {
                for x in 0..8 {
                    block[y * 8 + x] = gray[(by * 8 + y) * dim + bx * 8 + x];
                }
            }
            want.extend_from_slice(&dct_quantize(&block));
        }
    }
    within("quantized coefficients", &want, got, JPEG_COEFF_TOL)?;
    within(
        "decoded image",
        &decode_coefficient_stream(&want, dim),
        &decode_coefficient_stream(got, dim),
        JPEG_PIXEL_TOL,
    )
}

fn kmeans(init: &[f32], got: &[f32], scale: &Scale) -> Result<(), String> {
    let px = scale.image_dim * scale.image_dim;
    let k = scale.kmeans_k;
    let pixels: Vec<[f32; 3]> = init[..3 * px]
        .chunks_exact(3)
        .map(|p| [p[0], p[1], p[2]])
        .collect();
    let mut centroids: Vec<[f32; 3]> = (0..k)
        .map(|c| pixels[c * (px / k) + px / (2 * k)])
        .collect();
    let mut assign = vec![0usize; px];
    for _ in 0..scale.kmeans_iters {
        let mut sums = vec![[0.0f32; 4]; k];
        for (p, pixel) in pixels.iter().enumerate() {
            let mut best = (f32::MAX, 0);
            for (c, centroid) in centroids.iter().enumerate() {
                let d = distance_reference(*pixel, *centroid);
                if d < best.0 {
                    best = (d, c);
                }
            }
            assign[p] = best.1;
            let s = &mut sums[best.1];
            for ch in 0..3 {
                s[ch] += pixel[ch];
            }
            s[3] += 1.0;
        }
        for (centroid, s) in centroids.iter_mut().zip(&sums) {
            if s[3] > 0.0 {
                *centroid = [s[0] / s[3], s[1] / s[3], s[2] / s[3]];
            }
        }
    }
    let want: Vec<f32> = assign.iter().flat_map(|&c| centroids[c]).collect();
    within("clustered image", &want, got, PIXEL_TOL)
}

fn sobel(init: &[f32], got: &[f32], scale: &Scale) -> Result<(), String> {
    let dim = scale.image_dim;
    let gray = luma(&init[..3 * dim * dim], 1.0);
    let mut want = vec![0.0f32; dim * dim];
    for y in 1..dim - 1 {
        for x in 1..dim - 1 {
            let mut window = [0.0f32; 9];
            for (i, w) in window.iter_mut().enumerate() {
                *w = gray[(y + i / 3 - 1) * dim + x + i % 3 - 1];
            }
            want[y * dim + x] = sobel_reference(&window);
        }
    }
    within("gradient image", &want, got, PIXEL_TOL)
}
