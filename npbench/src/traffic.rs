//! What the workloads send: layer sets, the input pool with its golden
//! outputs (all built before timing), and the seeded request mix.

use std::collections::VecDeque;
use std::time::Instant;

use npcgra::nn::{models, reference};
use npcgra::serve::Priority;
use npcgra::{ConvLayer, Tensor};

use crate::rng::{popularity_order, skewed_rank, Rng};

/// Input tensors pooled per served endpoint.
pub const POOL: usize = 4;

// PRNG stream labels, one per purpose.
const STREAM_TENSORS: u64 = 1;
const STREAM_MIX: u64 = 2;
pub const STREAM_ARRIVALS: u64 = 3;
const STREAM_DUPLICATES: u64 = 4;

/// One layer with its weights, its pooled inputs and, for each input, the
/// output `nn::reference` says it must produce.
pub struct Endpoint {
    pub name: String,
    pub layer: ConvLayer,
    pub weights: Tensor,
    pub inputs: Vec<Tensor>,
    pub golden: Vec<Tensor>,
}

impl Endpoint {
    fn new(name: String, layer: &ConvLayer, rng: &mut Rng, pool: usize) -> Endpoint {
        let layer = layer.renamed(&name);
        let weights = layer.random_weights(rng.next_u64());
        let inputs: Vec<Tensor> = (0..pool)
            .map(|_| Tensor::random(layer.in_channels(), layer.in_h(), layer.in_w(), rng.next_u64()))
            .collect();
        let golden = inputs
            .iter()
            .map(|x| reference::run_layer(&layer, x, &weights).expect("generated tensors fit the layer"))
            .collect();
        Endpoint {
            name,
            layer,
            weights,
            inputs,
            golden,
        }
    }

    pub fn out_words(&self) -> u64 {
        self.layer.ofm_elems()
    }
}

/// Seconds spent building a pool, reported as `bench.pool_build_s` and kept
/// out of `setup_s`: it is the harness's cost, not the program's.
pub struct Built<T> {
    pub value: T,
    pub build_s: f64,
}

fn timed<T>(build: impl FnOnce() -> T) -> Built<T> {
    let t0 = Instant::now();
    let value = build();
    Built {
        value,
        build_s: t0.elapsed().as_secs_f64(),
    }
}

fn endpoints_of(model_layers: &[(String, Vec<ConvLayer>)], seed: u64, pool: usize) -> Vec<Endpoint> {
    let mut rng = Rng::new(seed, STREAM_TENSORS);
    model_layers
        .iter()
        .flat_map(|(model, layers)| layers.iter().map(move |l| (format!("{model}.{}", l.name()), l)))
        .map(|(name, l)| Endpoint::new(name, l, &mut rng, pool))
        .collect()
}

fn dsc(model: &models::Model) -> (String, Vec<ConvLayer>) {
    (model.name().to_string(), model.dsc_layers().cloned().collect())
}

/// The served endpoints: the 77 DSC layers of MobileNet V1 and V2
/// (α = 0.25, resolution 32).
pub fn served_endpoints(seed: u64) -> Built<Vec<Endpoint>> {
    timed(|| {
        let sets = [dsc(&models::mobilenet_v1(0.25, 32)), dsc(&models::mobilenet_v2(0.25, 32))];
        endpoints_of(&sets, seed, POOL)
    })
}

/// The `sim_direct` set: the three full-size Table 5 layers and the 26 DSC
/// layers of MobileNetV1-0.5-64, one input each.
pub fn sim_direct_set(seed: u64) -> Built<Vec<Endpoint>> {
    timed(|| {
        let (pw, dw1, dw2) = models::table5_layers();
        let sets = [
            ("table5".to_string(), vec![pw, dw1, dw2]),
            dsc(&models::mobilenet_v1(0.5, 64)),
        ];
        endpoints_of(&sets, seed, 1)
    })
}

/// A whole model served as one chain: its layers and weights, pooled
/// inputs, and the chained `nn::reference` output for each.
pub struct Chain {
    pub name: String,
    pub layers: Vec<ConvLayer>,
    pub weights: Vec<Tensor>,
    pub inputs: Vec<Tensor>,
    pub golden: Vec<Tensor>,
}

impl Chain {
    /// The chain as single layers, each with the activation the first
    /// pooled input brings it and the output it must make of it: what the
    /// isolated `nn`/`sim` probes run on.
    pub fn units(&self) -> Vec<Endpoint> {
        let mut act = self.inputs[0].clone();
        self.layers
            .iter()
            .zip(&self.weights)
            .map(|(layer, weights)| {
                let out = reference::run_layer(layer, &act, weights).expect("the DSC chain's shapes line up");
                let input = std::mem::replace(&mut act, out.clone());
                Endpoint {
                    name: layer.name().to_string(),
                    layer: layer.clone(),
                    weights: weights.clone(),
                    inputs: vec![input],
                    golden: vec![out],
                }
            })
            .collect()
    }
}

/// MobileNetV1-0.25-32's 26 DSC layers, for `pipeline_saturate`.
pub fn pipeline_chain(seed: u64) -> Built<Chain> {
    timed(|| {
        let model = models::mobilenet_v1(0.25, 32);
        let layers: Vec<ConvLayer> = model.dsc_layers().cloned().collect();
        let mut rng = Rng::new(seed, STREAM_TENSORS);
        let weights: Vec<Tensor> = layers.iter().map(|l| l.random_weights(rng.next_u64())).collect();
        let first = &layers[0];
        let inputs: Vec<Tensor> = (0..POOL)
            .map(|_| Tensor::random(first.in_channels(), first.in_h(), first.in_w(), rng.next_u64()))
            .collect();
        let golden = inputs
            .iter()
            .map(|x| {
                layers.iter().zip(&weights).fold(x.clone(), |act, (l, w)| {
                    reference::run_layer(l, &act, w).expect("the DSC chain's shapes line up")
                })
            })
            .collect();
        Chain {
            name: model.name().to_string(),
            layers,
            weights,
            inputs,
            golden,
        }
    })
}

/// One request as drawn: which endpoint, which pooled input, which class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    pub endpoint: usize,
    pub input: usize,
    pub class: Priority,
}

/// A draw and the idempotency key it travels under (0 = unkeyed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Req {
    pub draw: Draw,
    pub key: u64,
}

/// Share of keyed submissions that re-send a key whose reply already came.
const RESEND_SHARE: f64 = 0.05;
/// Re-sent keys are drawn from this many most recent acknowledgments: well
/// inside the journal's default 1024-key dedup window, so a re-send must be
/// redelivered, never re-executed.
const RESEND_WINDOW: usize = 256;

/// The seeded request stream over `n` endpoints: skewed endpoint
/// popularity, uniform pooled input, classes Interactive/Batch/BestEffort
/// 60/30/10 (only the open loop submits by class).
pub struct Source {
    order: Vec<usize>,
    rng: Rng,
    /// Keyed streams only: the duplicate draw, the next fresh key, and the
    /// recently acknowledged requests a re-send is drawn from.
    keyed: Option<(Rng, u64, VecDeque<Req>)>,
}

impl Source {
    pub fn new(seed: u64, endpoints: usize) -> Source {
        Source {
            order: popularity_order(endpoints),
            rng: Rng::new(seed, STREAM_MIX),
            keyed: None,
        }
    }

    /// The same stream under fresh idempotency keys, with [`RESEND_SHARE`]
    /// of the submissions repeating an acknowledged one.
    pub fn keyed(seed: u64, endpoints: usize) -> Source {
        Source {
            keyed: Some((Rng::new(seed, STREAM_DUPLICATES), 1, VecDeque::new())),
            ..Source::new(seed, endpoints)
        }
    }

    fn draw(&mut self) -> Draw {
        let endpoint = self.order[skewed_rank(self.rng.unit(), self.order.len())];
        let input = self.rng.below(POOL);
        let class = match self.rng.unit() {
            u if u < 0.6 => Priority::Interactive,
            u if u < 0.9 => Priority::Batch,
            _ => Priority::BestEffort,
        };
        Draw { endpoint, input, class }
    }

    pub fn next(&mut self) -> Req {
        let draw = self.draw();
        let Some((rng, next_key, acked)) = &mut self.keyed else {
            return Req { draw, key: 0 };
        };
        if !acked.is_empty() && rng.unit() < RESEND_SHARE {
            return acked[rng.below(acked.len())];
        }
        *next_key += 1;
        Req {
            draw,
            key: *next_key - 1,
        }
    }

    /// A keyed request's reply came: its key may now be re-sent.
    pub fn acked(&mut self, req: Req) {
        if let Some((_, _, acked)) = &mut self.keyed {
            if acked.len() == RESEND_WINDOW {
                acked.pop_front();
            }
            acked.push_back(req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_mix_is_a_pure_function_of_the_seed() {
        let take = |seed| {
            let mut m = Source::new(seed, 77);
            (0..200).map(|_| m.next()).collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
        let interactive = take(3).iter().filter(|r| r.draw.class == Priority::Interactive).count();
        assert!((90..150).contains(&interactive), "{interactive} of 200 interactive");
        assert!(take(3).iter().all(|r| r.key == 0));
    }

    #[test]
    fn a_keyed_stream_resends_only_acknowledged_keys() {
        let mut src = Source::keyed(5, 77);
        let mut sent = std::collections::BTreeMap::new();
        let mut resent = 0;
        for _ in 0..4000 {
            let req = src.next();
            assert_ne!(req.key, 0);
            match sent.insert(req.key, req.draw) {
                None => src.acked(req),
                Some(first) => {
                    assert_eq!(first, req.draw, "a re-sent key carries the request it first carried");
                    resent += 1;
                }
            }
        }
        assert!((120..280).contains(&resent), "{resent} of 4000 re-sent");
    }

    #[test]
    fn served_set_is_the_77_dsc_layers_with_golden_outputs() {
        let eps = served_endpoints(1).value;
        assert_eq!(eps.len(), 77);
        assert!(eps.iter().all(|e| e.inputs.len() == POOL && e.golden.len() == POOL));
        let again = served_endpoints(1).value;
        assert_eq!(eps[5].inputs[2], again[5].inputs[2]);
        assert_ne!(eps[5].inputs[2], served_endpoints(2).value[5].inputs[2]);
    }
}
