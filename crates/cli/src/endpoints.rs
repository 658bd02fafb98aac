//! The MobileNet DSC layers as serving endpoints — shared by `serve-net`
//! and every `chaos-bench` mode that serves single layers.

use npcgra::nn::{models, reference, ConvLayer, Tensor};
use npcgra::serve::{ModelId, Server};

/// The MobileNet tables named by `which` (`v1|v2|mixed`).
pub fn build_models(which: &str, alpha: f64, res: usize) -> Result<Vec<models::Model>, String> {
    // `models` panics on any other resolution; refuse it here, once.
    if res == 0 || !res.is_multiple_of(32) {
        return Err(format!("--res must be a positive multiple of 32, got {res}"));
    }
    match which {
        "v1" => Ok(vec![models::mobilenet_v1(alpha, res)]),
        "v2" => Ok(vec![models::mobilenet_v2(alpha, res)]),
        "mixed" => Ok(vec![models::mobilenet_v1(alpha, res), models::mobilenet_v2(alpha, res)]),
        other => Err(format!("--model must be v1|v2|mixed, got '{other}'")),
    }
}

/// Registered endpoints: the ids, aligned with the layer + weights behind
/// each, so an audit can recompute any reply's golden host reference.
pub struct Endpoints {
    pub ids: Vec<ModelId>,
    pub layers: Vec<(ConvLayer, Tensor)>,
}

impl Endpoints {
    /// Register every DSC layer of each table as `<model>.<layer>`. The
    /// order is deterministic, so ids are stable across server lives.
    pub fn register(server: &Server, tables: &[models::Model]) -> Result<Endpoints, String> {
        let mut eps = Endpoints {
            ids: Vec::new(),
            layers: Vec::new(),
        };
        for (mi, model) in tables.iter().enumerate() {
            for layer in model.dsc_layers() {
                let name = format!("{}.{}", model.name(), layer.name());
                let named = layer.renamed(&name);
                let weights = named.random_weights(0xC0FFEE + mi as u64);
                let id = server
                    .register(&name, named.clone(), weights.clone())
                    .map_err(|e| format!("registering {name}: {e}"))?;
                eps.ids.push(id);
                eps.layers.push((named, weights));
            }
        }
        Ok(eps)
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// A deterministic random input matching endpoint `idx`'s IFM shape.
    pub fn input(&self, idx: usize, seed: u64) -> Tensor {
        let layer = &self.layers[idx].0;
        Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), seed)
    }

    /// The golden host-reference output of endpoint `idx` for `input`.
    pub fn golden(&self, idx: usize, input: &Tensor) -> Tensor {
        let (layer, weights) = &self.layers[idx];
        reference::run_layer(layer, input, weights).expect("golden reference")
    }
}
