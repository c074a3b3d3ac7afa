//! A guided tour of the Heterogeneous Spatial Graph (paper §III): build the
//! Figure-2 style graph from booking interactions, then walk the metapaths
//! that power origin/destination exploration.
//!
//! Run with:
//! ```sh
//! cargo run --release --example hsg_explore
//! ```

use od_data::{FliggyConfig, FliggyDataset, Pattern};
use od_hsg::{CityId, Metapath, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let ds = FliggyDataset::generate(FliggyConfig {
        num_users: 200,
        num_cities: 25,
        ..FliggyConfig::default()
    });
    let hsg = ds.hsg();
    println!(
        "HSG(V, E, D): {} users + {} cities = {} nodes, {} typed edges",
        hsg.num_users(),
        hsg.num_cities(),
        hsg.num_nodes(),
        hsg.num_edges()
    );

    // Metapath ρ1: a user's 1st-order neighbor cities are their historical
    // departure cities (Definition 3 example).
    let user = UserId(0);
    let name = |c: u32| ds.world.cities[c as usize].name.clone();
    let rho1: Vec<String> = hsg
        .user_neighbor_cities(user, Metapath::RHO1)
        .iter()
        .map(|&c| name(c))
        .collect();
    let rho2: Vec<String> = hsg
        .user_neighbor_cities(user, Metapath::RHO2)
        .iter()
        .map(|&c| name(c))
        .collect();
    println!("\nuser u0's departure cities N¹_ρ1(u0): {rho1:?}");
    println!("user u0's arrival cities  N¹_ρ2(u0): {rho2:?}");

    // A city's ρ2 neighbor cities: other cities visited by the same
    // travellers — the "same pattern" exploration signal. In dense graphs
    // the raw neighbor *set* is uninformative; the co-visitation-weighted
    // top-5 sample is where the pattern signal lives.
    let chance = 1.0 / Pattern::ALL.len() as f64;
    let mut rng0 = StdRng::seed_from_u64(3);
    let sampled = hsg.neighbor_table(Metapath::RHO2, 5, &mut rng0);
    let share = |neighbors_of: &dyn Fn(u32) -> Vec<u32>| -> f64 {
        let (mut same, mut total) = (0usize, 0usize);
        for c in 0..hsg.num_cities() as u32 {
            let p = ds.world.cities[c as usize].pattern;
            for n in neighbors_of(c) {
                total += 1;
                if ds.world.cities[n as usize].pattern == p {
                    same += 1;
                }
            }
        }
        same as f64 / total.max(1) as f64
    };
    let raw_share = share(&|c| hsg.city_neighbor_cities(CityId(c), Metapath::RHO2));
    let sampled_share = share(&|c| sampled.of_city(CityId(c)).iter().map(|x| x.0).collect());
    println!(
        "\nρ2 pattern share — full neighbor set: {:.1}%, weighted top-5 sample: {:.1}% (chance {:.1}%)",
        100.0 * raw_share,
        100.0 * sampled_share,
        100.0 * chance
    );

    // Spatial weights (Eq. 2): nearest cities dominate the row.
    let probe = CityId(0);
    let d = hsg.distances();
    let mut weighted: Vec<(f32, u32)> = (0..hsg.num_cities() as u32)
        .filter(|&j| j != probe.0)
        .map(|j| (d.weight(probe.index(), j as usize), j))
        .collect();
    weighted.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    println!("\nEq. 2 spatial weights from {}:", name(probe.0));
    for (w, j) in weighted.iter().take(4) {
        println!(
            "  {:<22} w = {:.3}  (distance {:.2})",
            name(*j),
            w,
            d.distance(probe.index(), *j as usize)
        );
    }

    // Capped sampling (the paper restricts neighborhoods to 5).
    let mut rng = StdRng::seed_from_u64(7);
    let table = hsg.neighbor_table(Metapath::RHO2, 5, &mut rng);
    let busiest = (0..hsg.num_cities() as u32)
        .max_by_key(|&c| hsg.city_neighbor_cities(CityId(c), Metapath::RHO2).len())
        .unwrap();
    println!(
        "\nbusiest city {} has {} ρ2 neighbors; sampled table keeps {}",
        name(busiest),
        hsg.city_neighbor_cities(CityId(busiest), Metapath::RHO2)
            .len(),
        table.of_city(CityId(busiest)).len()
    );
}
