//! Tiny flag parser shared by the subcommands (no external dependencies).

use npcgra::nn::Activation;
use npcgra::sim::{BackendTier, MappingKind};
use npcgra::{CgraSpec, ConvLayer};

/// The flags [`Flags::layer`] reads, for a caller's `known` list.
pub const LAYER_FLAGS: &str = "kind channels size stride relu leaky";

/// Parsed `--flag value` pairs.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
}

impl Flags {
    /// Parse `--flag [value]` sequences; a flag followed by another flag (or
    /// the end) is boolean. `known` names every flag the caller reads,
    /// space-separated: any other is an error here, before the caller does
    /// any work, so a typo'd flag can never run with the default it meant
    /// to override.
    pub fn parse(args: &[String], known: &str) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("expected --flag, got '{a}'"));
            };
            if !known.split_whitespace().any(|k| k == name) {
                return Err(format!("unknown flag --{name} (this command reads: {known})"));
            }
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    Some(v.clone())
                }
                _ => None,
            };
            pairs.push((name.to_string(), value));
            i += 1;
        }
        Ok(Flags { pairs })
    }

    /// The raw value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    /// Whether a boolean flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    /// A required flag's value.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing --{name}"))
    }

    /// A flag's parsed value, if the flag is present.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{name}: bad value '{v}'")),
            None if self.has(name) => Err(format!("--{name} expects a value")),
            None => Ok(None),
        }
    }

    /// A flag's parsed value, or `default` when it is absent.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// Parse `RxC` / `HxW` pairs.
    pub fn dims(&self, name: &str, default: (usize, usize)) -> Result<(usize, usize), String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => {
                let (a, b) = v.split_once('x').ok_or_else(|| format!("--{name} expects AxB, got '{v}'"))?;
                Ok((
                    a.parse().map_err(|_| format!("--{name}: bad number '{a}'"))?,
                    b.parse().map_err(|_| format!("--{name}: bad number '{b}'"))?,
                ))
            }
        }
    }

    /// The machine spec from `--machine RxC` (default 8×8).
    pub fn machine(&self) -> Result<CgraSpec, String> {
        let (r, c) = self.dims("machine", (8, 8))?;
        if r == 0 || c == 0 {
            return Err("--machine dimensions must be nonzero".into());
        }
        Ok(CgraSpec::np_cgra(r, c))
    }

    /// The activation from `--relu` / `--leaky N`.
    pub fn activation(&self) -> Result<Activation, String> {
        if self.has("relu") {
            Ok(Activation::Relu)
        } else if self.has("leaky") {
            let shift: u8 = self
                .require("leaky")?
                .parse()
                .map_err(|_| "--leaky expects a shift amount".to_string())?;
            Ok(Activation::LeakyRelu { shift })
        } else {
            Ok(Activation::None)
        }
    }

    /// The execution tier from `--tier`, or `default` when it is absent.
    pub fn tier(&self, default: BackendTier) -> Result<BackendTier, String> {
        match self.get("tier") {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e: String| format!("--tier: {e}")),
        }
    }

    /// The mapping from `--mapping`.
    pub fn mapping(&self) -> Result<MappingKind, String> {
        match self.get("mapping").unwrap_or("auto") {
            "auto" => Ok(MappingKind::Auto),
            "matmul" => Ok(MappingKind::MatmulDwc),
            "batched" => Ok(MappingKind::BatchedDwcS1),
            other => Err(format!("--mapping must be auto|matmul|batched, got '{other}'")),
        }
    }

    /// Build the layer described by `--kind/--channels/--size/--stride`.
    pub fn layer(&self) -> Result<ConvLayer, String> {
        let kind = self.require("kind")?;
        let (h, w) = self.dims("size", (16, 16))?;
        let act = self.activation()?;
        match kind {
            "dw" => {
                let ch: usize = self
                    .require("channels")?
                    .parse()
                    .map_err(|_| "--channels: bad number".to_string())?;
                let s: usize = self
                    .get("stride")
                    .unwrap_or("1")
                    .parse()
                    .map_err(|_| "--stride: bad number".to_string())?;
                Ok(ConvLayer::depthwise("cli-dw", ch, h, w, 3, s, 1).with_activation(act))
            }
            "pw" => {
                let spec = self.require("channels")?;
                let (ci, co) = spec.split_once(',').ok_or("--channels for pw expects in,out (e.g. 32,64)")?;
                let ci: usize = ci.parse().map_err(|_| "--channels: bad number".to_string())?;
                let co: usize = co.parse().map_err(|_| "--channels: bad number".to_string())?;
                Ok(ConvLayer::pointwise("cli-pw", ci, co, h, w).with_activation(act))
            }
            other => Err(format!("--kind must be dw|pw, got '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &str = "kind channels size stride relu leaky machine mapping tier cycles";

    fn try_flags(s: &str) -> Result<Flags, String> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        Flags::parse(&args, KNOWN)
    }

    fn flags(s: &str) -> Flags {
        try_flags(s).unwrap()
    }

    #[test]
    fn parses_values_and_booleans() {
        let f = flags("--kind dw --channels 8 --relu --size 12x10");
        assert_eq!(f.get("kind"), Some("dw"));
        assert!(f.has("relu"));
        assert_eq!(f.dims("size", (0, 0)).unwrap(), (12, 10));
        assert_eq!(f.dims("machine", (8, 8)).unwrap(), (8, 8), "default applies");
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(try_flags("oops").is_err());
        let typo = try_flags("--kind dw --chanels 8")
            .err()
            .expect("an unread flag must not parse");
        assert!(typo.contains("--chanels"), "the error names the flag: {typo}");
    }

    #[test]
    fn parse_or_defaults_parses_and_refuses_a_missing_value() {
        assert_eq!(flags("").parse_or("cycles", 64usize).unwrap(), 64);
        assert_eq!(flags("--cycles 9").parse_or("cycles", 64usize).unwrap(), 9);
        assert!(flags("--cycles nine").parse_or("cycles", 64usize).is_err());
        assert!(
            flags("--cycles --relu").parse_or("cycles", 64usize).is_err(),
            "value forgotten"
        );
    }

    #[test]
    fn builds_dw_and_pw_layers() {
        let dw = flags("--kind dw --channels 8 --size 12x12 --stride 2").layer().unwrap();
        assert_eq!(dw.s(), 2);
        assert_eq!(dw.in_channels(), 8);
        let pw = flags("--kind pw --channels 32,64 --size 7x7").layer().unwrap();
        assert_eq!((pw.in_channels(), pw.out_channels()), (32, 64));
    }

    #[test]
    fn activation_flags() {
        assert_eq!(flags("--relu").activation().unwrap(), Activation::Relu);
        assert_eq!(flags("--leaky 3").activation().unwrap(), Activation::LeakyRelu { shift: 3 });
        assert_eq!(flags("").activation().unwrap(), Activation::None);
    }

    #[test]
    fn mapping_flags() {
        assert_eq!(flags("--mapping batched").mapping().unwrap(), MappingKind::BatchedDwcS1);
        assert_eq!(flags("").mapping().unwrap(), MappingKind::Auto);
        assert!(flags("--mapping bogus").mapping().is_err());
    }

    #[test]
    fn tier_flag() {
        assert_eq!(
            flags("").tier(BackendTier::Fast).unwrap(),
            BackendTier::Fast,
            "default applies"
        );
        assert_eq!(
            flags("--tier fast").tier(BackendTier::CycleAccurate).unwrap(),
            BackendTier::Fast
        );
        assert_eq!(
            flags("--tier cycle-accurate").tier(BackendTier::Fast).unwrap(),
            BackendTier::CycleAccurate
        );
        assert!(flags("--tier warp").tier(BackendTier::Fast).is_err());
    }

    #[test]
    fn missing_required_flag_errors() {
        assert!(flags("--size 4x4").layer().is_err());
        assert!(
            flags("--kind pw --channels 32 --size 4x4").layer().is_err(),
            "pw needs in,out"
        );
    }
}
