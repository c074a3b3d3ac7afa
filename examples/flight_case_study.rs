//! The paper's §V-F case study, reproduced: train ODNET, then inspect the
//! recommended flight list of a user with a fresh outbound booking and show
//! that (1) the *return leg* ranks near the top (the O&D-unity signal) and
//! (2) same-pattern destination cities appear via graph exploration.
//!
//! Run with:
//! ```sh
//! cargo run --release --example flight_case_study
//! ```

use od_bench::{heuristic_candidates, rank_pairs};
use od_data::{FliggyConfig, FliggyDataset, Pattern};
use od_hsg::{CityId, UserId};
use odnet_core::{train, FeatureExtractor, OdNetModel, OdnetConfig, Variant};

fn main() {
    let ds = FliggyDataset::generate(FliggyConfig {
        num_users: 300,
        num_cities: 30,
        ..FliggyConfig::default()
    });
    let cfg = OdnetConfig {
        epochs: 3,
        ..OdnetConfig::default()
    };
    let fx = FeatureExtractor::new(cfg.max_long_seq, cfg.max_short_seq);
    let mut model = OdNetModel::new(
        Variant::Odnet,
        cfg,
        ds.world.num_users(),
        ds.world.num_cities(),
        Some(ds.hsg()),
    );
    println!("training ODNET for the case study…");
    let groups = fx.groups_from_samples(&ds, &ds.train);
    train(&mut model, &groups);
    let model = model.freeze();

    // Case: a user whose most recent booking is a fresh outbound trip —
    // like the paper's user B who just bought Beijing → Chengdu.
    let day = ds.train_end_day();
    let user = (0..ds.world.num_users() as u32)
        .map(UserId)
        .filter(|&u| {
            ds.long_term(u, day)
                .last()
                .is_some_and(|b| day.saturating_sub(b.day) <= 10)
        })
        .max_by_key(|&u| ds.long_term(u, day).len())
        .expect("a recently-travelling user exists");
    let last = *ds.long_term(user, day).last().unwrap();
    let city_name = |c: CityId| ds.world.cities[c.index()].name.clone();
    println!(
        "\nuser {:?} recently flew {} → {} (day {}); scoring day {day}",
        user,
        city_name(last.origin),
        city_name(last.dest),
        last.day
    );

    let candidates = heuristic_candidates(&ds, user, day, 40);
    let group = fx.group_for_serving(&ds, user, day, &candidates);
    let ranked = rank_pairs(&model, &group, &candidates);

    println!("\nrecommended flights:");
    for (rank, ((o, d), score)) in ranked.iter().take(8).enumerate() {
        let mut notes = Vec::new();
        if *o == last.dest && *d == last.origin {
            notes.push("return leg of the recent trip (O&D unity)");
        }
        let dp = ds.world.cities[d.index()].pattern;
        let visited_same_pattern = ds
            .long_term(user, day)
            .iter()
            .any(|b| b.dest != *d && ds.world.cities[b.dest.index()].pattern == dp);
        if visited_same_pattern {
            notes.push("destination shares a pattern with visited cities (exploration)");
        }
        if ds.world.cities[o.index()].is_hub && *o != ds.world.users[user.index()].home {
            notes.push("departs from a cheaper hub (origin exploration)");
        }
        println!(
            "  {}. {} → {}  score {score:.4}{}",
            rank + 1,
            city_name(*o),
            city_name(*d),
            if notes.is_empty() {
                String::new()
            } else {
                format!("   [{}]", notes.join("; "))
            }
        );
    }

    // Quantify the unity effect: where does the exact return leg rank?
    let return_pos = ranked
        .iter()
        .position(|((o, d), _)| *o == last.dest && *d == last.origin);
    match return_pos {
        Some(p) => println!(
            "\nthe return leg {} → {} ranks #{} of {} candidates",
            city_name(last.dest),
            city_name(last.origin),
            p + 1,
            ranked.len()
        ),
        None => println!("\nthe return leg was not recalled for this user"),
    }

    // Show the pattern vocabulary for context.
    println!("\ncity patterns in this world:");
    for p in Pattern::ALL {
        let members: Vec<String> = ds
            .world
            .cities
            .iter()
            .filter(|c| c.pattern == p)
            .take(4)
            .map(|c| c.name.clone())
            .collect();
        println!("  {:?}: {}…", p, members.join(", "));
    }
}
