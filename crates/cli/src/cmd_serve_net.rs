//! `serve-net` — run the socket front-end as a standalone server.
//!
//! Registers the DSC layers of the selected models as endpoints, starts
//! the `npcgra-net` reactor on `--addr`, prints the model table (wire
//! model id → layer name → input shape) and serves until `--seconds`
//! elapses (`0` = forever, until the process is killed). Shutdown drains
//! admitted work and prints the final serving statistics.
//!
//! Tenants are optional (`--tenants name:token[:rate[:burst[:quota]]]`,
//! comma-separated); with none configured the front-end runs open, the
//! defaults-off posture. Clients speak the DESIGN §17 wire protocol —
//! `NetClient` in `npcgra::net` is the reference implementation.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use npcgra::net::{NetConfig, NetServer, TenantSpec};
use npcgra::serve::{BackendTier, ServeConfig, Server};

use crate::args::Flags;
use crate::endpoints::{build_models, Endpoints};

pub fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        "machine tier workers max-batch linger-us model alpha res seconds addr tenants \
         max-conns read-timeout-ms write-timeout-ms idle-timeout-ms backlog-limit",
    )?;
    let spec = flags.machine()?;
    let window = Duration::try_from_secs_f64(flags.parse_or("seconds", 0.0)?).map_err(|e| format!("--seconds: {e}"))?;
    let max_conns: usize = flags.parse_or("max-conns", 0)?;
    let read_timeout_ms: u64 = flags.parse_or("read-timeout-ms", 0)?;
    let write_timeout_ms: u64 = flags.parse_or("write-timeout-ms", 0)?;
    let idle_timeout_ms: u64 = flags.parse_or("idle-timeout-ms", 0)?;
    let backlog_limit: usize = flags.parse_or("backlog-limit", 0)?;
    let tier = flags.tier(BackendTier::CycleAccurate)?;
    let addr: SocketAddr = flags
        .get("addr")
        .unwrap_or("127.0.0.1:0")
        .parse()
        .map_err(|e| format!("--addr: {e}"))?;
    if !addr.ip().is_loopback() {
        return Err("--addr must be a loopback address (the wire protocol carries no transport security)".to_string());
    }
    let tables = build_models(
        flags.get("model").unwrap_or("v1"),
        flags.parse_or("alpha", 0.25)?,
        flags.parse_or("res", 32)?,
    )?;

    let defaults = ServeConfig::for_spec(&spec);
    let linger = flags.parsed("linger-us")?.map_or(defaults.max_linger, Duration::from_micros);
    let config = defaults
        .with_workers(flags.parse_or("workers", 4)?)
        .with_max_batch(flags.parse_or("max-batch", 4)?)
        .with_max_linger(linger)
        .with_backend_tier(tier);
    let server = Arc::new(Server::start(config));
    let endpoints = Endpoints::register(&server, &tables)?;

    let mut net_config = NetConfig::default().with_addr(addr);
    if max_conns > 0 {
        net_config = net_config.with_max_conns(max_conns);
    }
    if read_timeout_ms > 0 {
        net_config = net_config.with_read_timeout(Some(Duration::from_millis(read_timeout_ms)));
    }
    if write_timeout_ms > 0 {
        net_config = net_config.with_write_timeout(Some(Duration::from_millis(write_timeout_ms)));
    }
    if idle_timeout_ms > 0 {
        net_config = net_config.with_idle_timeout(Some(Duration::from_millis(idle_timeout_ms)));
    }
    if backlog_limit > 0 {
        net_config = net_config.with_write_backlog_limit(backlog_limit);
    }
    for spec in parse_tenants(flags.get("tenants").unwrap_or(""))? {
        net_config = net_config.with_tenant(spec);
    }

    let net = NetServer::start(Arc::clone(&server), net_config).map_err(|e| format!("binding {addr}: {e}"))?;
    println!("serve-net [{tier}]: listening on {}", net.local_addr());
    for (id, (layer, _)) in endpoints.ids.iter().zip(&endpoints.layers) {
        let (c, h, w) = (layer.in_channels(), layer.in_h(), layer.in_w());
        println!("  model {:>3}  {}  input {c}x{h}x{w}", id.index(), layer.name());
    }
    if window.is_zero() {
        println!("serve-net: serving until killed (pass --seconds N for a bounded run)");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(window);

    let net_stats = net.shutdown();
    println!("{net_stats}");
    let server = Arc::try_unwrap(server).unwrap_or_else(|_| panic!("front-end still holds the server"));
    let stats = server.shutdown();
    println!("{stats}");
    Ok(())
}

/// `name:token[:rate[:burst[:quota]]]`, comma-separated. Rate is
/// requests/second (0 = unlimited), burst the bucket size, quota the
/// in-flight cap (0 = unbounded).
fn parse_tenants(arg: &str) -> Result<Vec<TenantSpec>, String> {
    let mut specs = Vec::new();
    for entry in arg.split(',').filter(|e| !e.is_empty()) {
        let parts: Vec<&str> = entry.split(':').collect();
        let (name, token) = match parts.as_slice() {
            [name, token, ..] if !name.is_empty() && !token.is_empty() => (*name, *token),
            _ => return Err(format!("--tenants: '{entry}' is not name:token[:rate[:burst[:quota]]]")),
        };
        let num = |i: usize| -> Result<f64, String> {
            parts.get(i).map_or(Ok(0.0), |v| {
                v.parse().map_err(|_| format!("--tenants: bad number '{v}' in '{entry}'"))
            })
        };
        let mut spec = TenantSpec::open(name, token.as_bytes());
        let rate = num(2)?;
        if rate > 0.0 {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let burst = num(3)?.max(1.0) as u32;
            spec = spec.with_rate(rate, burst);
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let quota = num(4)? as u32;
        if quota > 0 {
            spec = spec.with_max_inflight(quota);
        }
        specs.push(spec);
    }
    Ok(specs)
}

#[cfg(test)]
mod tests {
    use super::parse_tenants;

    #[test]
    fn tenant_grammar() {
        let specs = parse_tenants("a:tok,b:s3cret:100:16:8").unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!((specs[0].name.as_str(), specs[0].rate_per_sec), ("a", 0.0));
        assert_eq!(specs[1].token, b"s3cret");
        assert_eq!((specs[1].rate_per_sec, specs[1].burst, specs[1].max_inflight), (100.0, 16, 8));
        assert!(parse_tenants("").unwrap().is_empty());
        assert!(parse_tenants("noseparator").is_err());
        assert!(parse_tenants("a:").is_err());
    }
}
