//! Layer trait and named parameters.

use crate::lower::LayerLowering;
use crate::quantize::QuantLayerDesc;
use mixmatch_tensor::Tensor;

/// A trainable parameter: value, gradient accumulator and a stable name.
///
/// Names follow a dotted path convention (`"stage1.block0.conv1.weight"`) so
/// quantization reports can identify layers the way the paper's tables do.
#[derive(Debug, Clone)]
pub struct Param {
    name: String,
    /// Current value. Public: optimizers and the ADMM loop read and write it
    /// freely; `Param` maintains no invariant beyond shape stability.
    pub value: Tensor,
    /// Gradient accumulator, always the same shape as `value`.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Param {
            name: name.into(),
            value,
            grad,
        }
    }

    /// The parameter's dotted-path name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Zeroes the gradient accumulator in place.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable computation stage.
///
/// `forward` caches whatever `backward` will need; `backward` consumes the
/// most recent cache, accumulates parameter gradients, and returns the
/// gradient with respect to the layer input. Layers are stateful by design —
/// training loops drive them strictly in forward-then-backward order.
pub trait Layer {
    /// Runs the layer. `train` selects training behaviour (e.g. batch-norm
    /// batch statistics, dropout).
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_output`, accumulating into parameter `grad`s, and
    /// returns the gradient with respect to the input of the latest
    /// [`forward`](Layer::forward).
    ///
    /// # Panics
    ///
    /// Implementations panic when called without a preceding training-mode
    /// `forward` (no cache).
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Immutable access to the layer's parameters. Layers without parameters
    /// return an empty vector.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Mutable access to the layer's parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }

    /// How this layer participates in dataflow lowering
    /// (see [`crate::lower`]): one lowered step, transparent (skipped on
    /// the integer path), or opaque. The default is
    /// [`LayerLowering::Opaque`] — layers the compiled integer path cannot
    /// express keep their containing model plan-free rather than silently
    /// changing semantics.
    fn lowering(&self) -> LayerLowering {
        LayerLowering::Opaque
    }

    /// Descriptors of this layer's quantizable weight matrices. The default
    /// derives them from the parameter list, which carries no conv
    /// geometry; [`Conv2d`](crate::layers::Conv2d) attaches its own so it
    /// deploys through the im2col path, and [`Sequential`] concatenates its
    /// children's.
    fn quant_descs(&self) -> Vec<QuantLayerDesc> {
        crate::quantize::descs_from_params(&self.params())
    }
}

/// A sequence of layers applied in order.
///
/// # Example
///
/// ```
/// use mixmatch_nn::module::{Layer, Sequential};
/// use mixmatch_nn::layers::{Linear, Relu};
/// use mixmatch_tensor::{Tensor, TensorRng};
///
/// let mut rng = TensorRng::seed_from(1);
/// let mut net = Sequential::new();
/// net.push(Linear::new(4, 8, true, &mut rng));
/// net.push(Relu::new());
/// net.push(Linear::new(8, 2, true, &mut rng));
/// let y = net.forward(&Tensor::randn(&[3, 4], &mut rng), false);
/// assert_eq!(y.dims(), &[3, 2]);
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Lowers the pipeline into a dataflow graph by chaining each layer's
    /// [`Layer::lowering`]: `Step` layers append a node, `Transparent`
    /// layers are skipped, and any `Opaque` layer makes the whole pipeline
    /// unlowerable (`None`).
    pub fn lower_graph(&self) -> Option<crate::lower::LoweredGraph> {
        let mut g = crate::lower::GraphBuilder::new();
        let mut x = g.input();
        for layer in &self.layers {
            match layer.lowering() {
                LayerLowering::Step(op) => x = g.push(op, vec![x]),
                LayerLowering::Transparent => {}
                LayerLowering::Opaque => return None,
            }
        }
        Some(g.finish(x))
    }

    /// `true` when the pipeline holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    fn quant_descs(&self) -> Vec<QuantLayerDesc> {
        self.layers.iter().flat_map(|l| l.quant_descs()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Relu};
    use mixmatch_tensor::TensorRng;

    #[test]
    fn param_zero_grad_clears() {
        let mut p = Param::new("w", Tensor::ones(&[2, 2]));
        p.grad = Tensor::ones(&[2, 2]);
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn sequential_collects_params_in_order() {
        let mut rng = TensorRng::seed_from(0);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 5, true, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(5, 2, false, &mut rng));
        let names: Vec<String> = net.params().iter().map(|p| p.name().to_string()).collect();
        assert_eq!(names.len(), 3); // w+b, w
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn sequential_forward_backward_shapes() {
        let mut rng = TensorRng::seed_from(1);
        let mut net = Sequential::new();
        net.push(Linear::new(4, 6, true, &mut rng));
        net.push(Relu::new());
        let x = Tensor::randn(&[2, 4], &mut rng);
        let y = net.forward(&x, true);
        let gx = net.backward(&Tensor::ones(y.dims()));
        assert_eq!(gx.dims(), x.dims());
    }

    #[test]
    fn zero_grad_cascades() {
        let mut rng = TensorRng::seed_from(2);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, true, &mut rng));
        let x = Tensor::randn(&[1, 2], &mut rng);
        let y = net.forward(&x, true);
        net.backward(&Tensor::ones(y.dims()));
        assert!(net.params()[0].grad.as_slice().iter().any(|&g| g != 0.0));
        net.zero_grad();
        assert!(net
            .params()
            .iter()
            .all(|p| p.grad.as_slice().iter().all(|&g| g == 0.0)));
    }
}
