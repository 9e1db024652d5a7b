//! Reference renders: what the server must answer, computed in-process
//! through the public engine and `wire` functions on the same index.

use gks_core::di::{discover_di_counted, DiOptions};
use gks_core::engine::Engine;
use gks_core::query::Query;
use gks_core::search::{Response, SearchOptions, Threshold};
use gks_core::wire;
use gks_index::{Corpus, GksIndex, IndexOptions};

use crate::workload::Request;

/// The server's default `limit`, which every generated request uses.
pub fn default_limit() -> usize {
    gks_server::ServeConfig::default().default_limit
}

/// Parses a generated request the way the server does.
pub fn parse(req: &Request) -> Result<(Query, SearchOptions), String> {
    let query = Query::parse(&req.q()).map_err(|e| e.to_string())?;
    let s = Threshold::parse(req.s).ok_or_else(|| format!("bad s {:?}", req.s))?;
    Ok((query, SearchOptions { s, limit: default_limit() }))
}

/// Renders `response` to the body `/search` or `/suggest` sends.
pub fn render(engine: &Engine, req: &Request, response: &Response) -> String {
    if req.suggest {
        let (di, _) = discover_di_counted(engine.index(), response, &DiOptions::default());
        let refinement = engine.refine(response, &di);
        wire::suggest_response_json(response, &refinement, &di)
    } else {
        wire::search_response_json(engine, response)
    }
}

/// The expected body of `req` against `engine`.
pub fn reference(engine: &Engine, req: &Request) -> Result<String, String> {
    let (query, options) = parse(req)?;
    let response = engine.search(&query, options).map_err(|e| e.to_string())?;
    Ok(render(engine, req, &response))
}

/// A fresh in-memory engine over every `.xml` file of `dir` — the full
/// rebuild a live index's final state must agree with.
pub fn rebuild(dir: &std::path::Path) -> Result<Engine, String> {
    let corpus = Corpus::from_directory(dir).map_err(|e| e.to_string())?;
    let index = GksIndex::build(&corpus, IndexOptions::default()).map_err(|e| e.to_string())?;
    Ok(Engine::from_index(index))
}
