//! Golden bytes for the two scoring routes' `200`s: status line, header
//! names and order, field names and order, and every float printed exactly
//! as `Display` prints it. The expected response is assembled here by
//! `format!` from values scored in-process, so the test pins the wire
//! layout without pinning the model's numbers; decoding the same bytes
//! through the `wire` types must hand back those values bit for bit.

use od_data::{FliggyConfig, FliggyDataset};
use od_hsg::{CityId, UserId};
use od_http::wire::{RecommendResponse, ScoreResponse};
use od_http::{Featurizer, Server, ServerConfig};
use od_obs::trace::TraceContext;
use od_serve::{EngineConfig, Funnel, FunnelConfig};
use odnet_core::{FeatureExtractor, FrozenOdNet, GroupInput, OdNetModel, OdnetConfig, Variant};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

const CHECKSUM: u32 = 0xC0DE;

struct Rig {
    server: Server,
    model: Arc<FrozenOdNet>,
    funnel: Arc<Funnel>,
    featurizer: Featurizer,
    /// A client-built `/v1/score` group.
    group: GroupInput,
}

fn rig() -> Rig {
    let ds = FliggyDataset::generate(FliggyConfig::tiny());
    let model = Arc::new(
        OdNetModel::new(
            Variant::OdnetG,
            OdnetConfig::tiny(),
            ds.world.num_users(),
            ds.world.num_cities(),
            None,
        )
        .freeze(),
    );
    let funnel = Arc::new(Funnel::new(
        Arc::clone(&model),
        CHECKSUM,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        FunnelConfig::default(),
    ));
    let fx = FeatureExtractor::new(6, 4);
    let group = fx
        .groups_from_samples(&ds, &ds.train)
        .into_iter()
        .next()
        .expect("the tiny dataset has a training group");
    let day = ds.train_end_day();
    let featurizer: Featurizer = Arc::new(move |user, pairs| {
        let tuples: Vec<(CityId, CityId)> = pairs.iter().map(|p| (p.origin, p.dest)).collect();
        fx.group_for_serving(&ds, user, day, &tuples)
    });
    let server = Server::start(
        vec![Arc::clone(&funnel)],
        Arc::clone(&featurizer),
        ServerConfig::default(),
    )
    .expect("bind http server");
    Rig {
        server,
        model,
        funnel,
        featurizer,
        group,
    }
}

/// POST `body` on a fresh keep-alive connection and assert the response is
/// `want`, byte for byte.
fn assert_wire_bytes(rig: &Rig, path: &str, body: &str, want: &str) {
    let mut conn = TcpStream::connect(rig.server.addr()).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("arm read timeout");
    let request = format!(
        "POST {path} HTTP/1.1\r\nX-Request-Id: golden-1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(request.as_bytes()).expect("send request");
    let mut got = vec![0u8; want.len()];
    if let Err(e) = conn.read_exact(&mut got) {
        panic!("response shorter than the golden one ({e}): {want}");
    }
    assert_eq!(String::from_utf8_lossy(&got), want);
    // Nothing follows the golden bytes on the still-open connection.
    conn.set_read_timeout(Some(Duration::from_millis(50)))
        .expect("arm read timeout");
    assert!(
        !matches!(conn.read(&mut [0u8; 1]), Ok(n) if n > 0),
        "bytes past the golden response"
    );
}

fn golden_200(body: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         X-Artifact-Epoch: 0\r\nX-Artifact-Checksum: {CHECKSUM}\r\n\
         X-Request-Id: golden-1\r\n\r\n{body}",
        body.len(),
    )
}

#[test]
fn recommend_200_is_golden_and_decodes_to_the_source_pairs() {
    let rig = rig();
    let user = UserId(3);
    let source = rig
        .funnel
        .recommend_traced(user, 6, None, TraceContext::NONE, |pairs| {
            (rig.featurizer)(user, pairs)
        })
        .expect("in-process recommend");
    assert_eq!(source.pairs.len(), 6);

    let pairs: Vec<String> = source
        .pairs
        .iter()
        .map(|p| {
            format!(
                "{{\"origin\":{},\"dest\":{},\"retrieval_score\":{},\"p_origin\":{},\
                 \"p_dest\":{},\"rank_score\":{}}}",
                p.origin.0, p.dest.0, p.retrieval_score, p.p_origin, p.p_dest, p.rank_score
            )
        })
        .collect();
    let stamp = format!("{{\"epoch\":0,\"checksum\":{CHECKSUM}}}");
    let body = format!(
        "{{\"pairs\":[{}],\"retrieved_by\":{stamp},\"ranked_by\":{stamp}}}",
        pairs.join(",")
    );
    let want = golden_200(&body);
    assert_wire_bytes(&rig, "/v1/recommend", "{\"user\":3,\"k\":6}", &want);

    let (_, body) = want.split_once("\r\n\r\n").expect("head and body");
    let wire: RecommendResponse = serde_json::from_str(body).expect("body decodes");
    assert_eq!(wire.pairs.len(), source.pairs.len());
    for (got, src) in wire.pairs.iter().zip(&source.pairs) {
        assert_eq!((got.origin, got.dest), (src.origin.0, src.dest.0));
        for (got, src) in [
            (got.retrieval_score, src.retrieval_score),
            (got.p_origin, src.p_origin),
            (got.p_dest, src.p_dest),
            (got.rank_score, src.rank_score),
        ] {
            assert_eq!(got.to_bits(), src.to_bits(), "a score drifted on the wire");
        }
    }
    assert!(rig.server.shutdown().clean);
}

#[test]
fn score_200_is_golden_and_decodes_to_the_source_scores() {
    let rig = rig();
    let source = rig.model.score_group(&rig.group);
    assert!(!source.is_empty());

    let scores: Vec<String> = source.iter().map(|(o, d)| format!("[{o},{d}]")).collect();
    let body = format!(
        "{{\"scores\":[{}],\"epoch\":0,\"checksum\":{CHECKSUM}}}",
        scores.join(",")
    );
    let want = golden_200(&body);
    let group = serde_json::to_string(&rig.group).expect("group serializes");
    assert_wire_bytes(&rig, "/v1/score", &group, &want);

    let (_, body) = want.split_once("\r\n\r\n").expect("head and body");
    let wire: ScoreResponse = serde_json::from_str(body).expect("body decodes");
    assert_eq!(wire.scores.len(), source.len());
    for (got, src) in wire.scores.iter().zip(&source) {
        assert_eq!(got.0.to_bits(), src.0.to_bits(), "p^O drifted on the wire");
        assert_eq!(got.1.to_bits(), src.1.to_bits(), "p^D drifted on the wire");
    }
    assert!(rig.server.shutdown().clean);
}
