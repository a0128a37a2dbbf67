//! Seeded query streams: request bodies, their HTTP bytes, and the hot-key
//! Zipf sampler.
//!
//! Every body is decoded once with the server's own public parser
//! (`router::parse_recommend`) so the benchmark can answer the same query
//! in-process and compare. The generator only ever sends well-formed,
//! feasible queries; a rejected one is a failure of the server.

use airchitect::model::CaseStudy;
use airchitect_dse::case1::Case1Problem;
use airchitect_dse::case2::Case2Query;
use airchitect_dse::case3::Case3Problem;
use airchitect_serve::router::{self, ParsedQuery};
use airchitect_workload::distribution::CnnWorkloadSampler;
use airchitect_workload::GemmWorkload;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The three case studies, in route order.
pub const CASES: [CaseStudy; 3] = [
    CaseStudy::ArrayDataflow,
    CaseStudy::BufferSizing,
    CaseStudy::MultiArrayScheduling,
];

/// `log2` MAC budgets the CS1 queries draw from: the range the deployed
/// CS1 model was trained on.
pub const CS1_BUDGET_LOG2: (u32, u32) = (5, 15);

/// Route of a case study's recommendation endpoint.
pub fn route_of(case: CaseStudy) -> &'static str {
    match case {
        CaseStudy::ArrayDataflow => "/v1/recommend/array",
        CaseStudy::BufferSizing => "/v1/recommend/buffers",
        CaseStudy::MultiArrayScheduling => "/v1/recommend/schedule",
    }
}

/// Short case tag used in metric names (`cs1`..`cs3`).
pub fn tag_of(case: CaseStudy) -> &'static str {
    match case {
        CaseStudy::ArrayDataflow => "cs1",
        CaseStudy::BufferSizing => "cs2",
        CaseStudy::MultiArrayScheduling => "cs3",
    }
}

/// Index of a case study in [`CASES`].
pub fn index_of(case: CaseStudy) -> usize {
    match case {
        CaseStudy::ArrayDataflow => 0,
        CaseStudy::BufferSizing => 1,
        CaseStudy::MultiArrayScheduling => 2,
    }
}

/// Full HTTP/1.1 request bytes for a keep-alive `POST`.
pub fn render_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One generated query with everything needed to send and check it.
#[derive(Debug)]
pub struct Query {
    /// Case study (selects the route and the in-process model).
    pub case: CaseStudy,
    /// Exact request bytes sent on the wire.
    pub request: Vec<u8>,
    /// The server's own decoding of the body (query, `topk`, cache key).
    pub parsed: ParsedQuery,
    /// Position in the case's labelled probe set, if this is a probe.
    pub probe: Option<usize>,
}

impl Query {
    /// Builds a query from a JSON body.
    ///
    /// # Panics
    ///
    /// Panics if the server's parser rejects the body: the generator only
    /// emits valid bodies, so that is a bug in the benchmark.
    pub fn new(case: CaseStudy, body: &str, probe: Option<usize>) -> Self {
        let parsed = router::parse_recommend(case, body.as_bytes())
            .unwrap_or_else(|r| panic!("generated body rejected: {body}: {}", r.body));
        Self {
            case,
            request: render_request(route_of(case), body),
            parsed,
            probe,
        }
    }

    /// The query's identity regardless of `topk`: the server's cache key
    /// with its `topk` field removed. Warm-up and measured queries are
    /// disjoint under this key.
    pub fn param_key(&self) -> Vec<u8> {
        let key = &self.parsed.cache_key;
        let mut out = Vec::with_capacity(key.len());
        out.push(key[0]);
        out.extend_from_slice(&key[5..]);
        out
    }
}

fn wl_json(out: &mut String, wl: &GemmWorkload) {
    out.push_str(&format!(
        "\"m\":{},\"n\":{},\"k\":{}",
        wl.m(),
        wl.n(),
        wl.k()
    ));
}

fn finish(mut body: String, topk: usize) -> String {
    if topk > 0 {
        body.push_str(&format!(",\"topk\":{topk}"));
    }
    body.push('}');
    body
}

fn cs1_body(wl: &GemmWorkload, budget: u64, topk: usize) -> String {
    let mut b = String::from("{");
    wl_json(&mut b, wl);
    b.push_str(&format!(",\"mac_budget\":{budget}"));
    finish(b, topk)
}

fn cs2_body(q: &Case2Query, topk: usize) -> String {
    let mut b = String::from("{");
    wl_json(&mut b, &q.workload);
    b.push_str(&format!(
        ",\"rows\":{},\"cols\":{},\"dataflow\":\"{}\",\"bandwidth\":{},\"limit_kb\":{}",
        q.array.rows(),
        q.array.cols(),
        q.dataflow,
        q.bandwidth,
        q.limit_kb
    ));
    finish(b, topk)
}

fn cs3_body(wls: &[GemmWorkload], topk: usize) -> String {
    let mut b = String::from("{\"workloads\":[");
    for (i, wl) in wls.iter().enumerate() {
        if i > 0 {
            b.push(',');
        }
        b.push('{');
        wl_json(&mut b, wl);
        b.push('}');
    }
    b.push(']');
    finish(b, topk)
}

/// Body for a labelled dataset row (the feature layout of each case's
/// `features()`), so a probe asks exactly the question its label answers.
pub fn row_body(case: CaseStudy, row: &[f32], topk: usize) -> String {
    match case {
        CaseStudy::ArrayDataflow => {
            let (wl, budget) = Case1Problem::from_features(row);
            cs1_body(&wl, budget, topk)
        }
        CaseStudy::BufferSizing => cs2_body(&Case2Query::from_features(row), topk),
        CaseStudy::MultiArrayScheduling => cs3_body(&Case3Problem::from_features(row), topk),
    }
}

/// Random query bodies drawn from the same workload distribution the
/// training sets use (CNN layer shapes with one octave of jitter).
pub struct BodyGen {
    sampler: CnnWorkloadSampler,
    rng: StdRng,
}

impl BodyGen {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            sampler: CnnWorkloadSampler::new(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The next random body for `case`.
    pub fn body(&mut self, case: CaseStudy, topk: usize) -> String {
        let rng = &mut self.rng;
        match case {
            CaseStudy::ArrayDataflow => {
                let wl = self.sampler.sample(rng);
                let budget = 1u64 << rng.random_range(CS1_BUDGET_LOG2.0..=CS1_BUDGET_LOG2.1);
                cs1_body(&wl, budget, topk)
            }
            CaseStudy::BufferSizing => {
                let workload = self.sampler.sample(rng);
                let rows = 1u64 << rng.random_range(2u32..=9);
                let cols = 1u64 << rng.random_range(2u32..=9);
                let dataflow = ["OS", "WS", "IS"][rng.random_range(0usize..3)];
                let bandwidth = rng.random_range(1u64..=100);
                let limit_kb = rng.random_range(300u64..=3000);
                let mut b = String::from("{");
                wl_json(&mut b, &workload);
                b.push_str(&format!(
                    ",\"rows\":{rows},\"cols\":{cols},\"dataflow\":\"{dataflow}\",\"bandwidth\":{bandwidth},\"limit_kb\":{limit_kb}"
                ));
                finish(b, topk)
            }
            CaseStudy::MultiArrayScheduling => {
                let wls = self.sampler.sample_many(4, rng);
                cs3_body(&wls, topk)
            }
        }
    }
}

/// Zipf-distributed ranks over `0..n`: rank `r` has weight `1/(r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over no keys");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_stream_is_a_pure_function_of_the_seed() {
        let z = Zipf::new(2048, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        let stream = draw(11);
        assert!(stream.iter().all(|&r| r < 2048));
        // Rank 0 carries 1/H(2048) ~ 12 % of the mass and is the mode.
        let hits = |r| stream.iter().filter(|&&x| x == r).count();
        assert!(hits(0) > hits(1) && hits(1) > hits(100));
        assert!(
            (400..800).contains(&hits(0)),
            "rank-0 share off: {}",
            hits(0)
        );
    }

    #[test]
    fn generated_bodies_parse_and_are_seed_deterministic() {
        let mut a = BodyGen::new(5);
        let mut b = BodyGen::new(5);
        for (i, case) in CASES.iter().cycle().take(30).enumerate() {
            let topk = if i % 2 == 0 { 0 } else { 16 };
            let body = a.body(*case, topk);
            assert_eq!(body, b.body(*case, topk));
            let q = Query::new(*case, &body, None);
            assert_eq!(q.parsed.topk, topk);
            assert_eq!(q.param_key()[0], q.parsed.cache_key[0]);
            let text = String::from_utf8(q.request.clone()).unwrap();
            assert!(text.starts_with("POST /v1/recommend/"));
            assert!(text.ends_with(&body));
        }
    }

    #[test]
    fn param_key_ignores_topk() {
        let mut g = BodyGen::new(9);
        let body = g.body(CaseStudy::BufferSizing, 0);
        let ranked = body.trim_end_matches('}').to_string() + ",\"topk\":16}";
        let a = Query::new(CaseStudy::BufferSizing, &body, None);
        let b = Query::new(CaseStudy::BufferSizing, &ranked, None);
        assert_ne!(a.parsed.cache_key, b.parsed.cache_key);
        assert_eq!(a.param_key(), b.param_key());
    }
}
