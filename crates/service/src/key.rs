//! Canonical request keys: the content-addressed identity of a solve.
//!
//! Two requests that would produce the same schedule must produce the same
//! key, across processes and machines. The fingerprint therefore hashes
//! *canonical* content, not incidental representation:
//!
//! * the topology via [`Topology::fingerprint`] (canonical edge ordering,
//!   names excluded, α/β quantized),
//! * the collective kind, chunk count, and requested formulation,
//! * the solver configuration with floats quantized,
//! * the output-buffer size **bucketed** onto a half-octave log₂ grid
//!   ([`teccl_util::hash::size_bucket`]) — requests within ~19% of each
//!   other share one cache entry, mirroring the observation (Cloud
//!   Collectives) that production workloads re-request collectives over a
//!   small set of effective sizes.
//!
//! The `family` half of the key deliberately excludes the size bucket: it
//! groups all size variants of one `(topology, collective, config)` request
//! so completed solves can publish their final LP basis to *neighbouring*
//! buckets for warm starting.

use teccl_collective::{CollectiveKind, CollectiveSizing, DemandMatrix};
use teccl_core::{BufferMode, EpochStrategy, SolverConfig, SwitchModel};
use teccl_topology::{NodeId, Topology};
use teccl_util::hash::{size_bucket, StableHasher};
use teccl_util::json::{JsonError, Value};

/// A typed request-validation error.
///
/// The wire layer used to surface every parse failure as one opaque string;
/// semantically invalid requests now carry a machine-readable code so clients
/// can distinguish "fix your JSON" from "fix your request". The motivating
/// case is [`InvalidBufferSize`](RequestError::InvalidBufferSize):
/// [`teccl_util::hash::size_bucket`] maps every zero / negative / non-finite
/// size to the same degenerate `i64::MIN` bucket, so if such requests reached
/// the cache they would all collapse into one entry and cross-warm-start each
/// other. They are rejected here, before a key is ever formed.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The request line is not valid JSON.
    Json(String),
    /// The `verb` field is missing or names no known verb.
    BadVerb(String),
    /// A field is missing, has the wrong type, or an out-of-range value.
    BadField(String),
    /// `output_buffer` is zero, negative, NaN or infinite.
    InvalidBufferSize(f64),
}

impl RequestError {
    /// Stable machine-readable code carried on error responses.
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::Json(_) => "bad_json",
            RequestError::BadVerb(_) => "bad_verb",
            RequestError::BadField(_) => "bad_field",
            RequestError::InvalidBufferSize(_) => "invalid_buffer_size",
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Json(e) => write!(f, "invalid JSON: {e}"),
            RequestError::BadVerb(v) if v.is_empty() => write!(f, "missing verb"),
            RequestError::BadVerb(v) => write!(f, "unknown verb `{v}`"),
            RequestError::BadField(msg) => write!(f, "{msg}"),
            RequestError::InvalidBufferSize(v) => {
                write!(f, "output_buffer must be positive and finite (got {v})")
            }
        }
    }
}

impl std::error::Error for RequestError {}

impl From<JsonError> for RequestError {
    fn from(e: JsonError) -> Self {
        RequestError::BadField(e.to_string())
    }
}

/// Which formulation a request asks for: the solver's own [`Method`], whose
/// `name` is the wire and cache-key name.
///
/// [`Method`]: teccl_core::Method
pub use teccl_core::Method as RequestMethod;

/// Stable wire / hash name of a collective kind.
pub fn collective_name(kind: CollectiveKind) -> &'static str {
    match kind {
        CollectiveKind::AllGather => "all_gather",
        CollectiveKind::AllToAll => "all_to_all",
        CollectiveKind::Broadcast => "broadcast",
        CollectiveKind::Gather => "gather",
        CollectiveKind::Scatter => "scatter",
        CollectiveKind::ReduceScatter => "reduce_scatter",
        CollectiveKind::AllReduce => "all_reduce",
    }
}

/// Parses a collective kind from its wire name.
pub fn collective_from_name(s: &str) -> Option<CollectiveKind> {
    Some(match s {
        "all_gather" => CollectiveKind::AllGather,
        "all_to_all" => CollectiveKind::AllToAll,
        "broadcast" => CollectiveKind::Broadcast,
        "gather" => CollectiveKind::Gather,
        "scatter" => CollectiveKind::Scatter,
        "reduce_scatter" => CollectiveKind::ReduceScatter,
        "all_reduce" => CollectiveKind::AllReduce,
        _ => return None,
    })
}

/// The canonical identity of a request in the schedule cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestKey {
    /// Hash of everything *except* the size bucket: the warm-start
    /// neighbourhood (same topology / collective / chunks / method / config).
    pub family: u64,
    /// Half-octave log₂ bucket of the output-buffer size.
    pub size_bucket: i64,
    /// Content hash of the full request (`family` ⊕ bucket): the cache and
    /// on-disk key.
    pub hash: u64,
}

/// A solve request: everything the service needs to reproduce a
/// [`teccl_core::SolveOutcome`] from scratch.
#[derive(Debug, Clone)]
pub struct SolveRequest {
    /// The cluster topology.
    pub topology: Topology,
    /// Which collective to schedule.
    pub collective: CollectiveKind,
    /// Chunks per source/destination pair (finer pipelining for more chunks).
    pub chunks: usize,
    /// Output-buffer size in bytes (the paper's x-axis unit).
    pub output_buffer: f64,
    /// Requested formulation.
    pub method: RequestMethod,
    /// Solver configuration.
    pub config: SolverConfig,
    /// How long the caller is willing to wait (measured from submission).
    /// When it expires the service serves the best degraded answer it has
    /// (see `teccl_service::service::Quality`) instead of blocking.
    ///
    /// Deliberately **excluded** from [`SolveRequest::key`]: a deadline
    /// changes how long we wait, not which schedule is correct, so
    /// deadline-bearing requests must share cache entries with patient ones.
    pub deadline: Option<std::time::Duration>,
}

impl SolveRequest {
    /// A request with the default configuration and automatic dispatch.
    pub fn new(
        topology: Topology,
        collective: CollectiveKind,
        chunks: usize,
        output_buffer: f64,
    ) -> Self {
        Self {
            topology,
            collective,
            chunks,
            output_buffer,
            method: RequestMethod::Auto,
            config: SolverConfig::default(),
            deadline: None,
        }
    }

    /// Sets the formulation.
    pub fn with_method(mut self, method: RequestMethod) -> Self {
        self.method = method;
        self
    }

    /// Sets the serving deadline.
    pub fn with_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the solver configuration.
    pub fn with_config(mut self, config: SolverConfig) -> Self {
        self.config = config;
        self
    }

    /// The chunk size implied by the output buffer (the paper's
    /// parameterization, as in `Scenario::collective`).
    pub fn chunk_bytes(&self) -> f64 {
        let sizing = CollectiveSizing::new(self.collective, self.topology.num_gpus());
        sizing.transfer_bytes_for_output_buffer(self.output_buffer) / self.chunks as f64
    }

    /// Builds the demand matrix for this request.
    pub fn demand(&self) -> DemandMatrix {
        let gpus: Vec<NodeId> = self.topology.gpus().collect();
        DemandMatrix::for_collective(
            self.collective,
            self.topology.num_nodes(),
            &gpus,
            self.chunks,
        )
    }

    /// The canonical content-addressed key of this request.
    pub fn key(&self) -> RequestKey {
        let mut h = StableHasher::new();
        h.write_u64(self.topology.fingerprint());
        h.write_str(collective_name(self.collective));
        h.write_usize(self.chunks);
        h.write_str(self.method.name());
        hash_config(&mut h, &self.config);
        let family = h.finish();
        let bucket = size_bucket(self.output_buffer);
        let mut full = StableHasher::new();
        full.write_u64(family).write_i64(bucket);
        RequestKey {
            family,
            size_bucket: bucket,
            hash: full.finish(),
        }
    }

    /// Serializes the request (used by the wire protocol and request files).
    pub fn to_json_value(&self) -> Value {
        let mut pairs = vec![
            ("topology", self.topology.to_json_value()),
            ("collective", Value::from(collective_name(self.collective))),
            ("chunks", Value::from(self.chunks)),
            ("output_buffer", Value::from(self.output_buffer)),
            ("method", Value::from(self.method.name())),
            ("config", config_to_json(&self.config)),
        ];
        if let Some(d) = self.deadline {
            pairs.push(("deadline_ms", Value::from(d.as_secs_f64() * 1e3)));
        }
        Value::obj(pairs)
    }

    /// Deserializes a request. `topology` may be a full topology document or
    /// the string name of a prebuilt one (see [`builtin_topology`]); every
    /// field except `topology`, `collective` and `output_buffer` is optional.
    pub fn from_json_value(v: &Value) -> Result<SolveRequest, RequestError> {
        let bad = |msg: &str| RequestError::BadField(msg.to_string());
        let topology = match v.get("topology") {
            Some(Value::Str(name)) => {
                builtin_topology(name).ok_or(bad("unknown builtin topology"))?
            }
            Some(t) => Topology::from_json_value(t)?,
            None => return Err(bad("missing topology")),
        };
        topology
            .validate()
            .map_err(|e| bad(&format!("invalid topology: {e}")))?;
        let collective = v
            .get("collective")
            .and_then(Value::as_str)
            .and_then(collective_from_name)
            .ok_or(bad("missing/unknown collective"))?;
        let output_buffer = v
            .get("output_buffer")
            .and_then(Value::as_f64)
            .ok_or(bad("missing output_buffer"))?;
        if output_buffer <= 0.0 || !output_buffer.is_finite() {
            return Err(RequestError::InvalidBufferSize(output_buffer));
        }
        let chunks = match v.get("chunks") {
            None => 1,
            Some(c) => c.as_usize().filter(|&c| c >= 1).ok_or(bad("bad chunks"))?,
        };
        let method = match v.get("method") {
            None => RequestMethod::Auto,
            Some(m) => m
                .as_str()
                .and_then(RequestMethod::from_name)
                .ok_or(bad("unknown method"))?,
        };
        let config = match v.get("config") {
            None => SolverConfig::default(),
            Some(c) => config_from_json(c)?,
        };
        let deadline = match v.get("deadline_ms") {
            None => None,
            Some(d) => {
                let ms = d
                    .as_f64()
                    .filter(|ms| *ms >= 0.0 && ms.is_finite())
                    .ok_or(bad("bad deadline_ms"))?;
                Some(std::time::Duration::from_secs_f64(ms / 1e3))
            }
        };
        Ok(SolveRequest {
            topology,
            collective,
            chunks,
            output_buffer,
            method,
            config,
            deadline,
        })
    }
}

/// Absorbs a solver configuration into a fingerprint, floats quantized so
/// noise-level differences don't split the cache. `chunk_priorities` is part
/// of the identity (a differently-weighted multi-tenant solve is a different
/// schedule); the time limit is too — a tighter budget can legitimately
/// change the (early-stopped) result.
fn hash_config(h: &mut StableHasher, c: &SolverConfig) {
    h.write_u64(match c.epoch_strategy {
        EpochStrategy::SlowestLink => 0,
        EpochStrategy::FastestLink => 1,
    });
    h.write_f64_quantized(c.epoch_multiplier, 1e6);
    h.write_u64(match c.switch_model {
        SwitchModel::CopyCapable => 0,
        SwitchModel::NonCopy => 1,
        SwitchModel::HyperEdge => 2,
    });
    match c.buffer_mode {
        BufferMode::Unlimited => h.write_u64(0),
        BufferMode::LimitedChunks(n) => h.write_u64(1).write_usize(n),
        BufferMode::NoStoreAndForward => h.write_u64(2),
    };
    h.write_i64(c.max_epochs.map(|k| k as i64).unwrap_or(-1));
    match c.early_stop_gap {
        None => h.write_i64(-1),
        Some(g) => h.write_f64_quantized(g, 1e9),
    };
    match c.time_limit {
        None => h.write_i64(-1),
        Some(d) => h.write_i64(d.as_millis() as i64),
    };
    h.write_i64(c.astar_epochs_per_round.map(|e| e as i64).unwrap_or(-1));
    h.write_f64_quantized(c.astar_gamma, 1e9);
    h.write_usize(c.astar_max_rounds);
    h.write_u64(c.warm_start as u64);
    h.write_u64(c.astar_warm_rounds as u64);
    match &c.chunk_priorities {
        None => {
            h.write_i64(-1);
        }
        Some(p) => {
            h.write_usize(p.len());
            for &w in p {
                h.write_f64_quantized(w, 1e9);
            }
        }
    }
}

/// Serializes a solver configuration for the wire protocol.
pub fn config_to_json(c: &SolverConfig) -> Value {
    let mut pairs = vec![
        (
            "epoch_strategy",
            Value::from(match c.epoch_strategy {
                EpochStrategy::SlowestLink => "slowest_link",
                EpochStrategy::FastestLink => "fastest_link",
            }),
        ),
        ("epoch_multiplier", Value::from(c.epoch_multiplier)),
        (
            "switch_model",
            Value::from(match c.switch_model {
                SwitchModel::CopyCapable => "copy_capable",
                SwitchModel::NonCopy => "non_copy",
                SwitchModel::HyperEdge => "hyper_edge",
            }),
        ),
        (
            "buffer_mode",
            match c.buffer_mode {
                BufferMode::Unlimited => Value::from("unlimited"),
                BufferMode::LimitedChunks(n) => {
                    Value::obj(vec![("limited_chunks", Value::from(n))])
                }
                BufferMode::NoStoreAndForward => Value::from("no_store_and_forward"),
            },
        ),
        ("astar_gamma", Value::from(c.astar_gamma)),
        ("astar_max_rounds", Value::from(c.astar_max_rounds)),
        ("warm_start", Value::from(c.warm_start)),
        ("astar_warm_rounds", Value::from(c.astar_warm_rounds)),
    ];
    if let Some(k) = c.max_epochs {
        pairs.push(("max_epochs", Value::from(k)));
    }
    if let Some(g) = c.early_stop_gap {
        pairs.push(("early_stop_gap", Value::from(g)));
    }
    if let Some(d) = c.time_limit {
        pairs.push(("time_limit_s", Value::from(d.as_secs_f64())));
    }
    if let Some(e) = c.astar_epochs_per_round {
        pairs.push(("astar_epochs_per_round", Value::from(e)));
    }
    if let Some(p) = &c.chunk_priorities {
        pairs.push((
            "chunk_priorities",
            Value::Arr(p.iter().map(|&w| Value::from(w)).collect()),
        ));
    }
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Deserializes a solver configuration; absent fields keep their defaults.
pub fn config_from_json(v: &Value) -> Result<SolverConfig, JsonError> {
    let bad = |msg: &str| JsonError {
        pos: 0,
        msg: msg.to_string(),
    };
    let mut c = SolverConfig::default();
    if let Some(s) = v.get("epoch_strategy").and_then(Value::as_str) {
        c.epoch_strategy = match s {
            "slowest_link" => EpochStrategy::SlowestLink,
            "fastest_link" => EpochStrategy::FastestLink,
            _ => return Err(bad("unknown epoch_strategy")),
        };
    }
    if let Some(m) = v.get("epoch_multiplier").and_then(Value::as_f64) {
        if m < 1.0 || m.is_nan() {
            return Err(bad("epoch_multiplier must be >= 1"));
        }
        c.epoch_multiplier = m;
    }
    if let Some(s) = v.get("switch_model").and_then(Value::as_str) {
        c.switch_model = match s {
            "copy_capable" => SwitchModel::CopyCapable,
            "non_copy" => SwitchModel::NonCopy,
            "hyper_edge" => SwitchModel::HyperEdge,
            _ => return Err(bad("unknown switch_model")),
        };
    }
    if let Some(b) = v.get("buffer_mode") {
        c.buffer_mode = match b {
            Value::Str(s) if s == "unlimited" => BufferMode::Unlimited,
            Value::Str(s) if s == "no_store_and_forward" => BufferMode::NoStoreAndForward,
            other => match other.get("limited_chunks").and_then(Value::as_usize) {
                Some(n) => BufferMode::LimitedChunks(n),
                None => return Err(bad("unknown buffer_mode")),
            },
        };
    }
    if let Some(k) = v.get("max_epochs") {
        c.max_epochs = Some(k.as_usize().ok_or(bad("bad max_epochs"))?);
    }
    if let Some(g) = v.get("early_stop_gap") {
        c.early_stop_gap = Some(g.as_f64().ok_or(bad("bad early_stop_gap"))?);
    }
    if let Some(d) = v.get("time_limit_s") {
        let secs = d
            .as_f64()
            .filter(|s| *s > 0.0)
            .ok_or(bad("bad time_limit_s"))?;
        c.time_limit = Some(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(e) = v.get("astar_epochs_per_round") {
        c.astar_epochs_per_round = Some(e.as_usize().ok_or(bad("bad astar_epochs_per_round"))?);
    }
    if let Some(g) = v.get("astar_gamma").and_then(Value::as_f64) {
        c.astar_gamma = g;
    }
    if let Some(r) = v.get("astar_max_rounds").and_then(Value::as_usize) {
        c.astar_max_rounds = r;
    }
    if let Some(w) = v.get("warm_start").and_then(Value::as_bool) {
        c.warm_start = w;
    }
    if let Some(w) = v.get("astar_warm_rounds").and_then(Value::as_bool) {
        c.astar_warm_rounds = w;
    }
    if let Some(p) = v.get("chunk_priorities").and_then(Value::as_arr) {
        c.chunk_priorities = Some(
            p.iter()
                .map(|w| w.as_f64().ok_or(bad("bad chunk_priorities entry")))
                .collect::<Result<Vec<f64>, _>>()?,
        );
    }
    Ok(c)
}

/// Resolves the name of a prebuilt topology, e.g. `"dgx1"`, `"ndv2x2"`,
/// `"internal1x2"`, `"internal2x4"` (the chassis count after the `x` is
/// optional and defaults to 1). Handy for handwritten request files — a full
/// topology JSON document is accepted everywhere a name is.
pub fn builtin_topology(spec: &str) -> Option<Topology> {
    // Exact names first — "dgx1" must not parse as base "dg" × 1 chassis.
    match spec {
        "dgx1" => return Some(teccl_topology::dgx1()),
        "ndv2" => return Some(teccl_topology::ndv2(1)),
        "dgx2" => return Some(teccl_topology::dgx2(1)),
        "internal1" => return Some(teccl_topology::internal1(1)),
        "internal2" => return Some(teccl_topology::internal2(1)),
        _ => {}
    }
    let (base, n) = spec.rsplit_once('x')?;
    if n.is_empty() || !n.bytes().all(|c| c.is_ascii_digit()) {
        return None;
    }
    let chassis = n.parse::<usize>().ok()?;
    if chassis == 0 {
        return None;
    }
    Some(match base {
        "ndv2" => teccl_topology::ndv2(chassis),
        "dgx2" => teccl_topology::dgx2(chassis),
        "internal1" => teccl_topology::internal1(chassis),
        "internal2" => teccl_topology::internal2(chassis),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teccl_topology::{internal1, internal2, ring_topology};

    fn base_request() -> SolveRequest {
        SolveRequest::new(internal2(2), CollectiveKind::AllToAll, 1, 1024.0 * 1024.0)
    }

    #[test]
    fn key_is_deterministic_and_canonical() {
        let a = base_request().key();
        let b = base_request().key();
        assert_eq!(a, b);
        // Renaming the topology does not change the key.
        let mut renamed = base_request();
        renamed.topology.name = "prod-cluster-17".into();
        assert_eq!(renamed.key(), a);
    }

    #[test]
    fn key_separates_real_differences() {
        let a = base_request().key();
        let mut other = base_request();
        other.collective = CollectiveKind::AllGather;
        assert_ne!(other.key().family, a.family);
        let mut topo = base_request();
        topo.topology = internal1(2);
        assert_ne!(topo.key().family, a.family);
        let mut cfg = base_request();
        cfg.config.epoch_multiplier = 2.0;
        assert_ne!(cfg.key().family, a.family);
        let mut method = base_request();
        method.method = RequestMethod::Lp;
        assert_ne!(method.key().family, a.family);
    }

    #[test]
    fn size_bucketing_coalesces_and_separates() {
        let a = base_request().key();
        let mut near = base_request();
        near.output_buffer = 1024.0 * 1024.0 * 1.05; // within the half-octave
        assert_eq!(near.key(), a);
        let mut far = base_request();
        far.output_buffer = 4.0 * 1024.0 * 1024.0;
        let fk = far.key();
        assert_eq!(fk.family, a.family, "size lives outside the family");
        assert_ne!(fk.size_bucket, a.size_bucket);
        assert_ne!(fk.hash, a.hash);
    }

    #[test]
    fn request_json_roundtrip_preserves_key() {
        let mut req = base_request().with_method(RequestMethod::Lp);
        req.config.max_epochs = Some(9);
        req.config.early_stop_gap = Some(0.3);
        req.config.buffer_mode = teccl_core::BufferMode::LimitedChunks(4);
        let v = req.to_json_value();
        let back = SolveRequest::from_json_value(&v).unwrap();
        assert_eq!(back.key(), req.key());
        assert_eq!(back.chunks, req.chunks);
        assert_eq!(back.method, req.method);
        assert_eq!(back.config.max_epochs, Some(9));
    }

    #[test]
    fn builtin_topology_names() {
        assert_eq!(
            builtin_topology("internal1x2").unwrap().fingerprint(),
            internal1(2).fingerprint()
        );
        assert_eq!(
            builtin_topology("dgx1").unwrap().fingerprint(),
            teccl_topology::dgx1().fingerprint()
        );
        assert!(builtin_topology("internal1x0").is_none());
        assert!(builtin_topology("nope").is_none());
        // A request file can name the topology instead of embedding it.
        let req = SolveRequest::from_json_value(
            &Value::parse(
                r#"{"topology":"internal2x2","collective":"all_to_all","output_buffer":1048576}"#,
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(req.key(), base_request().key());
    }

    #[test]
    fn deadline_rides_the_wire_but_not_the_key() {
        let patient = base_request();
        let hurried = base_request().with_deadline(std::time::Duration::from_millis(100));
        assert_eq!(
            hurried.key(),
            patient.key(),
            "deadline must not split the cache"
        );
        let back = SolveRequest::from_json_value(&hurried.to_json_value()).unwrap();
        assert_eq!(back.deadline, Some(std::time::Duration::from_millis(100)));
        let back = SolveRequest::from_json_value(&patient.to_json_value()).unwrap();
        assert_eq!(back.deadline, None);
        let neg = r#"{"topology":"dgx1","collective":"all_gather","output_buffer":1024,"deadline_ms":-3}"#;
        assert!(SolveRequest::from_json_value(&Value::parse(neg).unwrap()).is_err());
    }

    /// Parses an internal2x2 ALLTOALL request whose config object holds only
    /// `extra`.
    fn with_legacy_config(extra: &str) -> SolveRequest {
        let doc = format!(
            r#"{{"topology":"internal2x2","collective":"all_to_all","output_buffer":1048576,"config":{{{extra}}}}}"#
        );
        SolveRequest::from_json_value(&Value::parse(&doc).unwrap()).unwrap()
    }

    // Older clients still send the retired intra-solve knobs `threads` and
    // `decompose`; they parse like any other unknown config field and leave
    // the key unchanged.

    #[test]
    fn threads_ride_the_wire_but_not_the_key() {
        let plain = with_legacy_config("");
        assert_eq!(plain.key(), base_request().key());
        assert_eq!(with_legacy_config(r#""threads":4"#).key(), plain.key());
        assert_eq!(
            with_legacy_config(r#""threads":4,"decompose":"on""#).key(),
            plain.key()
        );
    }

    #[test]
    fn decompose_rides_the_wire_but_not_the_key() {
        let plain = with_legacy_config("");
        for mode in ["on", "off", "auto"] {
            let legacy = with_legacy_config(&format!(r#""decompose":"{mode}""#));
            assert_eq!(legacy.key(), plain.key(), "decompose: {mode}");
        }
    }

    #[test]
    fn degenerate_buffer_sizes_are_typed_errors() {
        // All of these map to `size_bucket == i64::MIN`; accepting them would
        // pool every degenerate request into one cache bucket.
        for bad in ["0", "-1", "-16777216.0"] {
            let line =
                format!(r#"{{"topology":"dgx1","collective":"all_gather","output_buffer":{bad}}}"#);
            let err = SolveRequest::from_json_value(&Value::parse(&line).unwrap()).unwrap_err();
            assert!(
                matches!(err, RequestError::InvalidBufferSize(_)),
                "{bad}: {err:?}"
            );
            assert_eq!(err.code(), "invalid_buffer_size");
        }
        // A missing field is a different kind of error.
        let missing = r#"{"topology":"dgx1","collective":"all_gather"}"#;
        let err = SolveRequest::from_json_value(&Value::parse(missing).unwrap()).unwrap_err();
        assert!(matches!(err, RequestError::BadField(_)));
    }

    #[test]
    fn chunk_bytes_matches_scenario_parameterization() {
        let req = SolveRequest::new(
            ring_topology(5, 1e9, 0.0),
            CollectiveKind::AllGather,
            2,
            8e6,
        );
        // 5 GPUs: transfer = 8e6 / 4 = 2e6, split into 2 chunks of 1e6.
        assert!((req.chunk_bytes() - 1e6).abs() < 1e-6);
        assert_eq!(req.demand().num_chunks, 2);
    }

    #[test]
    fn bad_requests_rejected() {
        assert!(SolveRequest::from_json_value(&Value::parse("{}").unwrap()).is_err());
        let no_buffer = r#"{"topology":"dgx1","collective":"all_gather"}"#;
        assert!(SolveRequest::from_json_value(&Value::parse(no_buffer).unwrap()).is_err());
        let bad_size = r#"{"topology":"dgx1","collective":"all_gather","output_buffer":-5}"#;
        assert!(SolveRequest::from_json_value(&Value::parse(bad_size).unwrap()).is_err());
        let bad_coll = r#"{"topology":"dgx1","collective":"all2all","output_buffer":1024}"#;
        assert!(SolveRequest::from_json_value(&Value::parse(bad_coll).unwrap()).is_err());
    }
}
