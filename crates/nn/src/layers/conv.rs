//! 2-D convolution via `im2col` + GEMM.

use crate::init;
use crate::module::{Layer, Param};
use mixmatch_tensor::im2col::{col2im, im2col, ConvGeometry};
use mixmatch_tensor::{gemm, Tensor, TensorRng};

/// 2-D convolution on `[B, C, H, W]` input, lowered to GEMM.
///
/// The weight is stored as the GEMM matrix `[Cout, (Cin/g)·k·k]`, i.e. **one
/// row per filter** — exactly the matrix whose rows the paper's MSQ algorithm
/// assigns to SP2 or fixed-point. Grouped convolution covers the depthwise
/// case used by MobileNet-v2 (`groups == channels`).
pub struct Conv2d {
    geom: ConvGeometry,
    weight: Param,
    bias: Option<Param>,
    cached: Option<ConvCache>,
}

struct ConvCache {
    /// Per-(batch, group) patch matrices from the forward pass.
    cols: Vec<Tensor>,
    batch: usize,
    in_h: usize,
    in_w: usize,
}

impl Conv2d {
    /// Creates a dense convolution with Kaiming init.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut TensorRng,
    ) -> Self {
        Self::with_geometry(
            "conv",
            ConvGeometry::new(in_channels, out_channels, kernel, stride, padding),
            bias,
            rng,
        )
    }

    /// Creates a depthwise convolution (`groups == channels`).
    pub fn depthwise(
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        bias: bool,
        rng: &mut TensorRng,
    ) -> Self {
        Self::with_geometry(
            "dwconv",
            ConvGeometry::depthwise(channels, kernel, stride, padding),
            bias,
            rng,
        )
    }

    /// Creates a convolution from an explicit [`ConvGeometry`], naming the
    /// parameters `{name}.weight` / `{name}.bias`.
    ///
    /// # Panics
    ///
    /// Panics when channels are not divisible by groups.
    pub fn with_geometry(name: &str, geom: ConvGeometry, bias: bool, rng: &mut TensorRng) -> Self {
        assert_eq!(
            geom.in_channels % geom.groups,
            0,
            "in_channels must divide by groups"
        );
        assert_eq!(
            geom.out_channels % geom.groups,
            0,
            "out_channels must divide by groups"
        );
        let k = geom.gemm_k();
        let weight = Param::new(
            format!("{name}.weight"),
            init::kaiming_normal(&[geom.out_channels, k], k, rng),
        );
        let bias =
            bias.then(|| Param::new(format!("{name}.bias"), Tensor::zeros(&[geom.out_channels])));
        Conv2d {
            geom,
            weight,
            bias,
            cached: None,
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geom
    }

    /// The `[Cout, K]` GEMM-form weight parameter.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Mutable access to the weight parameter (used by quantization).
    pub fn weight_mut(&mut self) -> &mut Param {
        &mut self.weight
    }

    fn out_channels_per_group(&self) -> usize {
        self.geom.out_channels / self.geom.groups
    }
}

impl Layer for Conv2d {
    fn lowering(&self) -> crate::lower::LayerLowering {
        crate::lower::LayerLowering::Step(crate::lower::LoweredOp::Conv {
            name: self.weight.name().to_string(),
        })
    }

    fn quant_descs(&self) -> Vec<crate::quantize::QuantLayerDesc> {
        vec![crate::quantize::QuantLayerDesc::for_conv(self)]
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().rank(), 4, "Conv2d expects [B, C, H, W] input");
        let (batch, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        assert_eq!(c, self.geom.in_channels, "Conv2d channel mismatch");
        let out_h = self.geom.output_size(h);
        let out_w = self.geom.output_size(w);
        let patches = out_h * out_w;
        let cpg = self.out_channels_per_group();
        let k = self.geom.gemm_k();
        let mut out = Tensor::zeros(&[batch, self.geom.out_channels, out_h, out_w]);
        let mut cols_cache = Vec::new();
        for b in 0..batch {
            let xb = Tensor::from_vec(
                input.as_slice()[b * c * h * w..(b + 1) * c * h * w].to_vec(),
                &[c, h, w],
            )
            .expect("contiguous slice");
            for g in 0..self.geom.groups {
                let cols = im2col(&xb, &self.geom, g);
                let w_g = &self.weight.value.as_slice()[g * cpg * k..(g + 1) * cpg * k];
                let out_off = (b * self.geom.out_channels + g * cpg) * patches;
                gemm::gemm(
                    w_g,
                    cols.as_slice(),
                    &mut out.as_mut_slice()[out_off..out_off + cpg * patches],
                    cpg,
                    k,
                    patches,
                );
                if train {
                    cols_cache.push(cols);
                }
            }
        }
        if let Some(bias) = &self.bias {
            let bs = bias.value.as_slice();
            let o = out.as_mut_slice();
            for b in 0..batch {
                for ch in 0..self.geom.out_channels {
                    let base = (b * self.geom.out_channels + ch) * patches;
                    for p in 0..patches {
                        o[base + p] += bs[ch];
                    }
                }
            }
        }
        if train {
            self.cached = Some(ConvCache {
                cols: cols_cache,
                batch,
                in_h: h,
                in_w: w,
            });
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let cache = self
            .cached
            .take()
            .expect("Conv2d::backward called without cached forward");
        let (batch, h, w) = (cache.batch, cache.in_h, cache.in_w);
        let out_h = self.geom.output_size(h);
        let out_w = self.geom.output_size(w);
        let patches = out_h * out_w;
        let cpg = self.out_channels_per_group();
        let k = self.geom.gemm_k();
        assert_eq!(
            grad_output.dims(),
            &[batch, self.geom.out_channels, out_h, out_w],
            "Conv2d grad_output shape mismatch"
        );
        let mut grad_in = Tensor::zeros(&[batch, self.geom.in_channels, h, w]);
        for b in 0..batch {
            for g in 0..self.geom.groups {
                let cols = &cache.cols[b * self.geom.groups + g];
                let go_off = (b * self.geom.out_channels + g * cpg) * patches;
                let go = &grad_output.as_slice()[go_off..go_off + cpg * patches];
                // dW_g += G (cpg, P) × colsᵀ (P, K)
                let cols_t = cols.transpose();
                gemm::gemm_accumulate(
                    go,
                    cols_t.as_slice(),
                    &mut self.weight.grad.as_mut_slice()[g * cpg * k..(g + 1) * cpg * k],
                    cpg,
                    patches,
                    k,
                );
                // dcols = W_gᵀ (K, cpg) × G (cpg, P)
                let w_g = Tensor::from_vec(
                    self.weight.value.as_slice()[g * cpg * k..(g + 1) * cpg * k].to_vec(),
                    &[cpg, k],
                )
                .expect("contiguous weight group");
                let mut dcols = Tensor::zeros(&[k, patches]);
                gemm::gemm(
                    w_g.transpose().as_slice(),
                    go,
                    dcols.as_mut_slice(),
                    k,
                    cpg,
                    patches,
                );
                let dxg = col2im(&dcols, &self.geom, g, h, w);
                let gi = &mut grad_in.as_mut_slice()
                    [b * self.geom.in_channels * h * w..(b + 1) * self.geom.in_channels * h * w];
                for (dst, &src) in gi.iter_mut().zip(dxg.as_slice()) {
                    *dst += src;
                }
            }
        }
        if let Some(bias) = &mut self.bias {
            let gb = bias.grad.as_mut_slice();
            let go = grad_output.as_slice();
            for b in 0..batch {
                for ch in 0..self.geom.out_channels {
                    let base = (b * self.geom.out_channels + ch) * patches;
                    gb[ch] += go[base..base + patches].iter().sum::<f32>();
                }
            }
        }
        grad_in
    }

    fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.weight];
        if let Some(b) = &self.bias {
            v.push(b);
        }
        v
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.weight];
        if let Some(b) = &mut self.bias {
            v.push(b);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn identity_1x1_conv_passes_through() {
        let mut rng = TensorRng::seed_from(0);
        let mut conv = Conv2d::new(2, 2, 1, 1, 0, false, &mut rng);
        conv.weight.value = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let x = Tensor::randn(&[1, 2, 3, 3], &mut rng);
        let y = conv.forward(&x, false);
        assert!(y.max_abs_diff(&x) < 1e-6);
    }

    #[test]
    fn known_3x3_convolution() {
        let mut rng = TensorRng::seed_from(1);
        let mut conv = Conv2d::new(1, 1, 3, 1, 0, false, &mut rng);
        conv.weight.value = Tensor::ones(&[1, 9]);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[1, 1, 1, 1]);
        assert_eq!(y.as_slice()[0], 9.0);
    }

    #[test]
    fn stride_and_padding_shapes() {
        let mut rng = TensorRng::seed_from(2);
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, true, &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let y = conv.forward(&x, false);
        assert_eq!(y.dims(), &[2, 8, 4, 4]);
    }

    #[test]
    fn depthwise_channels_are_independent() {
        let mut rng = TensorRng::seed_from(3);
        let mut conv = Conv2d::depthwise(2, 3, 1, 1, false, &mut rng);
        // Zero the second channel's filter: its output must be zero while the
        // first channel's output is untouched.
        for v in &mut conv.weight.value.as_mut_slice()[9..18] {
            *v = 0.0;
        }
        let x = Tensor::randn(&[1, 2, 4, 4], &mut rng);
        let y = conv.forward(&x, false);
        let second = &y.as_slice()[16..32];
        assert!(second.iter().all(|&v| v == 0.0));
        assert!(y.as_slice()[..16].iter().any(|&v| v != 0.0));
    }

    #[test]
    fn gradcheck_dense_conv() {
        let mut rng = TensorRng::seed_from(4);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, true, &mut rng);
        check_layer_gradients(&mut conv, &[2, 2, 4, 4], 2e-2, &mut rng);
    }

    #[test]
    fn gradcheck_strided_conv() {
        let mut rng = TensorRng::seed_from(5);
        let mut conv = Conv2d::new(2, 2, 3, 2, 1, false, &mut rng);
        check_layer_gradients(&mut conv, &[1, 2, 5, 5], 2e-2, &mut rng);
    }

    #[test]
    fn gradcheck_depthwise_conv() {
        let mut rng = TensorRng::seed_from(6);
        let mut conv = Conv2d::depthwise(3, 3, 1, 1, true, &mut rng);
        check_layer_gradients(&mut conv, &[1, 3, 4, 4], 2e-2, &mut rng);
    }

    #[test]
    fn weight_rows_are_filters() {
        let mut rng = TensorRng::seed_from(7);
        let conv = Conv2d::new(4, 16, 3, 1, 1, false, &mut rng);
        assert_eq!(conv.weight().value.dims(), &[16, 36]);
    }
}
