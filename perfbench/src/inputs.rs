//! Evaluation inputs of the six apps, made from the benchmark's seed.
//!
//! The apps are built with their own fixed evaluation inputs; the
//! benchmark overwrites the input region of each app's initial memory
//! with inputs drawn from the same distributions under the run's seed.
//! Every seed gives the same amount of work: input sizes, loop trip
//! counts and networks do not change, only the values.

use benchmarks::image::RgbImage;
use benchmarks::inversek2j::forward_kinematics;
use benchmarks::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Writes the seeded inputs of benchmark `name` into `memory`, the
/// initial memory of its precise or transformed app.
pub fn seed(name: &str, memory: &mut [f32], seed: u64, scale: &Scale) {
    let seed = ann::seed::mix_str(seed, &format!("eval/{name}"));
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        // Real signal at [0, n); the imaginary half stays zero.
        "fft" => {
            for v in &mut memory[..scale.fft_points] {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        // Reachable targets, by forward kinematics of random angles.
        "inversek2j" => {
            for target in memory[..2 * scale.ik_pairs].chunks_exact_mut(2) {
                let th1 = rng.gen_range(0.1..std::f32::consts::FRAC_PI_2);
                let th2 = rng.gen_range(0.1..std::f32::consts::FRAC_PI_2);
                let (x, y) = forward_kinematics(th1, th2);
                target.copy_from_slice(&[x, y]);
            }
        }
        // Triangle pairs near each other, as after a broad phase: V
        // around a random anchor, U around the anchor plus an offset.
        "jmeint" => {
            for pair in memory[..18 * scale.tri_pairs].chunks_exact_mut(18) {
                let anchor: [f32; 3] = [rng.gen(), rng.gen(), rng.gen()];
                for (i, v) in pair[..9].iter_mut().enumerate() {
                    *v = anchor[i % 3] + rng.gen_range(-0.3f32..0.3);
                }
                let offset: [f32; 3] = [
                    rng.gen_range(-0.25..0.25),
                    rng.gen_range(-0.25..0.25),
                    rng.gen_range(-0.25..0.25),
                ];
                for (i, v) in pair[9..].iter_mut().enumerate() {
                    *v = anchor[i % 3] + offset[i % 3] + rng.gen_range(-0.3f32..0.3);
                }
            }
        }
        // RGB images at [0, 3·px); jpeg uses the largest multiple of 8.
        "jpeg" | "kmeans" | "sobel" => {
            let dim = if name == "jpeg" {
                (scale.image_dim / 8) * 8
            } else {
                scale.image_dim
            };
            let img = RgbImage::synthetic(dim, dim, seed);
            memory[..3 * dim * dim].copy_from_slice(img.data());
        }
        other => panic!("no input generator for {other}"),
    }
}
