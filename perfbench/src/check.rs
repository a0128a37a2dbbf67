//! Answer checking: extracting a served top-1 recommendation, comparing it
//! with the in-process answer, and mapping it back to a label so probe
//! answers can be scored against the exhaustive-search optimum.

use airchitect::model::CaseStudy;
use airchitect_dse::case1::Case1Problem;
use airchitect_dse::case2::Case2Problem;
use airchitect_dse::case3::Case3Problem;
use airchitect_serve::batch::Outcome;
use airchitect_sim::{ArrayConfig, Dataflow};
use airchitect_telemetry::json::{self, Value};

/// The top-1 recommendation of a response body (`result`, or the first of
/// a ranked `results` list), without its score.
pub fn top1(body: &str) -> Option<Value> {
    let v = json::parse(body).ok()?;
    let first = match v.get("result") {
        Some(r) => r.clone(),
        None => v.get("results")?.as_arr()?.first()?.clone(),
    };
    match first {
        Value::Obj(members) => Some(Value::Obj(
            members.into_iter().filter(|(k, _)| k != "score").collect(),
        )),
        _ => None,
    }
}

/// The top-1 recommendation of an in-process answer, or `None` for an
/// error outcome.
pub fn top1_of_outcome(out: &Outcome) -> Option<Value> {
    match out {
        Outcome::Ok { body_tail, .. } => top1(&format!("{{{body_tail}")),
        Outcome::Err { .. } => None,
    }
}

/// Decoding spaces of the deployed models, for mapping answers to labels.
pub struct Spaces {
    /// CS1 problem at the deployed model's budget.
    pub cs1: Case1Problem,
    /// CS2 problem.
    pub cs2: Case2Problem,
    /// CS3 problem.
    pub cs3: Case3Problem,
}

impl Spaces {
    /// The problems the deployed models answer against.
    pub fn new(cs1_budget: u64) -> Self {
        Self {
            cs1: Case1Problem::new(cs1_budget),
            cs2: Case2Problem::new(),
            cs3: Case3Problem::new(),
        }
    }

    /// The output-space label of a top-1 recommendation.
    pub fn label_of(&self, case: CaseStudy, rec: &Value) -> Option<u32> {
        let num = |v: &Value, k: &str| v.get(k)?.as_u64();
        let flow = |v: &Value| v.get("dataflow")?.as_str()?.parse::<Dataflow>().ok();
        match case {
            CaseStudy::ArrayDataflow => {
                let array = ArrayConfig::new(num(rec, "rows")?, num(rec, "cols")?).ok()?;
                self.cs1.space().encode(array, flow(rec)?)
            }
            CaseStudy::BufferSizing => self.cs2.space().encode(
                num(rec, "ifmap_kb")?,
                num(rec, "filter_kb")?,
                num(rec, "ofmap_kb")?,
            ),
            CaseStudy::MultiArrayScheduling => {
                let items = rec.get("assignments")?.as_arr()?;
                let mut perm = Vec::with_capacity(items.len());
                let mut flows = Vec::with_capacity(items.len());
                for (array, a) in items.iter().enumerate() {
                    if num(a, "array")? as usize != array {
                        return None;
                    }
                    perm.push(num(a, "workload")? as usize);
                    flows.push(flow(a)?);
                }
                self.cs3.space().encode(&perm, &flows)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top1_reads_single_and_ranked_answers_alike() {
        let single = r#"{"cached":false,"generation":1,"case":"array","source":"model","result":{"rows":8,"cols":16,"macs":128,"dataflow":"OS"}}"#;
        let ranked = r#"{"cached":true,"generation":3,"case":"array","source":"model","results":[{"rows":8,"cols":16,"macs":128,"dataflow":"OS","score":0.5},{"rows":4,"cols":4,"macs":16,"dataflow":"WS","score":0.1}]}"#;
        assert_eq!(top1(single), top1(ranked));
        assert!(top1(single).is_some());
        assert!(top1(r#"{"error":"x","code":"bad"}"#).is_none());
        assert!(top1("not json").is_none());
    }

    #[test]
    fn labels_round_trip_through_rendered_answers() {
        let spaces = Spaces::new(1 << 15);
        let (array, df) = spaces.cs1.space().decode(7).unwrap();
        let rec = json::parse(&format!(
            r#"{{"rows":{},"cols":{},"macs":{},"dataflow":"{df}"}}"#,
            array.rows(),
            array.cols(),
            array.macs()
        ))
        .unwrap();
        assert_eq!(spaces.label_of(CaseStudy::ArrayDataflow, &rec), Some(7));

        let (i, f, o) = spaces.cs2.space().decode(42).unwrap();
        let rec = json::parse(&format!(
            r#"{{"ifmap_kb":{i},"filter_kb":{f},"ofmap_kb":{o},"total_kb":{}}}"#,
            i + f + o
        ))
        .unwrap();
        assert_eq!(spaces.label_of(CaseStudy::BufferSizing, &rec), Some(42));

        let (perm, dfs) = spaces.cs3.space().decode(100).unwrap();
        let items: Vec<String> = perm
            .iter()
            .zip(&dfs)
            .enumerate()
            .map(|(a, (w, d))| format!(r#"{{"array":{a},"workload":{w},"dataflow":"{d}"}}"#))
            .collect();
        let rec = json::parse(&format!(r#"{{"assignments":[{}]}}"#, items.join(","))).unwrap();
        assert_eq!(
            spaces.label_of(CaseStudy::MultiArrayScheduling, &rec),
            Some(100)
        );
    }
}
