//! Fixed vocabularies from the TPC-H specification and text synthesis.

use std::fmt::Write;

use iq_common::DetRng;

/// The 25 nations with their region keys (spec table: N_NATIONKEY,
/// N_NAME, N_REGIONKEY).
pub const NATIONS: [(&str, i64); 25] = [
    ("ALGERIA", 0),
    ("ARGENTINA", 1),
    ("BRAZIL", 1),
    ("CANADA", 1),
    ("EGYPT", 4),
    ("ETHIOPIA", 0),
    ("FRANCE", 3),
    ("GERMANY", 3),
    ("INDIA", 2),
    ("INDONESIA", 2),
    ("IRAN", 4),
    ("IRAQ", 4),
    ("JAPAN", 2),
    ("JORDAN", 4),
    ("KENYA", 0),
    ("MOROCCO", 0),
    ("MOZAMBIQUE", 0),
    ("PERU", 1),
    ("CHINA", 2),
    ("ROMANIA", 3),
    ("SAUDI ARABIA", 4),
    ("VIETNAM", 2),
    ("RUSSIA", 3),
    ("UNITED KINGDOM", 3),
    ("UNITED STATES", 1),
];

/// The five regions.
pub const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];

/// Market segments (C_MKTSEGMENT).
pub const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "MACHINERY",
    "HOUSEHOLD",
];

/// Order priorities (O_ORDERPRIORITY).
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Ship instructions (L_SHIPINSTRUCT).
pub const INSTRUCTIONS: [&str; 4] = [
    "DELIVER IN PERSON",
    "COLLECT COD",
    "NONE",
    "TAKE BACK RETURN",
];

/// Ship modes (L_SHIPMODE).
pub const MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// P_TYPE syllables.
pub const TYPE_SYL1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
/// P_TYPE syllables.
pub const TYPE_SYL2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
/// P_TYPE syllables.
pub const TYPE_SYL3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Container syllables.
pub const CONTAINER_SYL1: [&str; 5] = ["SM", "LG", "MED", "JUMBO", "WRAP"];
/// Container syllables.
pub const CONTAINER_SYL2: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Words composing P_NAME — includes the colors Q9 (`%green%`) and the
/// qualification queries rely on.
pub const P_NAME_WORDS: [&str; 32] = [
    "almond",
    "antique",
    "aquamarine",
    "azure",
    "beige",
    "bisque",
    "black",
    "blanched",
    "blue",
    "blush",
    "brown",
    "burlywood",
    "burnished",
    "chartreuse",
    "chiffon",
    "chocolate",
    "coral",
    "cornflower",
    "cream",
    "cyan",
    "dark",
    "deep",
    "dim",
    "dodger",
    "drab",
    "firebrick",
    "forest",
    "frosted",
    "gainsboro",
    "ghost",
    "goldenrod",
    "green",
];

/// Filler nouns for comments.
pub const COMMENT_WORDS: [&str; 24] = [
    "packages",
    "ideas",
    "accounts",
    "instructions",
    "dependencies",
    "foxes",
    "theodolites",
    "pinto",
    "beans",
    "deposits",
    "platelets",
    "asymptotes",
    "courts",
    "excuses",
    "requests",
    "sentiments",
    "sauternes",
    "warthogs",
    "decoys",
    "escapades",
    "hockey",
    "players",
    "braids",
    "waters",
];

/// Pick one of a fixed slice (a shared string's `Arc` is cloned).
pub fn pick<T: Clone>(rng: &mut DetRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize].clone()
}

/// Append a random comment of `words` words to `out`.
pub fn comment(rng: &mut DetRng, words: usize, out: &mut String) {
    for i in 0..words {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(pick(rng, &COMMENT_WORDS));
    }
}

/// Append an order comment to `out`; with probability `p_special` it
/// embeds the `special ... requests` pattern Q13 filters on.
pub fn order_comment(rng: &mut DetRng, p_special: f64, out: &mut String) {
    if rng.chance(p_special) {
        out.push_str(pick(rng, &COMMENT_WORDS));
        out.push_str(" special ");
        out.push_str(pick(rng, &COMMENT_WORDS));
        out.push_str(" requests ");
        out.push_str(pick(rng, &COMMENT_WORDS));
    } else {
        comment(rng, 4, out);
    }
}

/// Append a supplier comment to `out`; small fractions carry the
/// `Customer ... Complaints` marker Q16 excludes on.
pub fn supplier_comment(rng: &mut DetRng, p_complaint: f64, out: &mut String) {
    if rng.chance(p_complaint) {
        out.push_str(pick(rng, &COMMENT_WORDS));
        out.push_str(" Customer ");
        out.push_str(pick(rng, &COMMENT_WORDS));
        out.push_str(" Complaints");
    } else {
        comment(rng, 4, out);
    }
}

/// Append a P_NAME to `out`: five distinct-ish words.
pub fn part_name(rng: &mut DetRng, out: &mut String) {
    for i in 0..5 {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(pick(rng, &P_NAME_WORDS));
    }
}

/// Append a phone number to `out`, with the spec's country-code
/// structure: `CC-LLL-LLL-LLLL` where `CC = nationkey + 10` (Q22 parses
/// this prefix).
pub fn phone(rng: &mut DetRng, nationkey: i64, out: &mut String) {
    write!(
        out,
        "{}-{:03}-{:03}-{:04}",
        nationkey + 10,
        100 + rng.below(900),
        100 + rng.below(900),
        1000 + rng.below(9000)
    )
    .expect("writing to a String cannot fail");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nations_regions_consistent() {
        assert_eq!(NATIONS.len(), 25);
        assert!(NATIONS.iter().all(|&(_, r)| (0..5).contains(&r)));
        assert_eq!(REGIONS.len(), 5);
    }

    #[test]
    fn phone_encodes_nation() {
        let mut p = String::new();
        phone(&mut DetRng::new(1), 3, &mut p);
        assert!(p.starts_with("13-"));
        assert_eq!(p.len(), "13-123-456-7890".len());
        // Q22 parses the first two characters.
        assert_eq!(&p[0..2], "13");
    }

    #[test]
    fn special_requests_rate_controllable() {
        let mut rng = DetRng::new(2);
        let hits = (0..1000)
            .filter(|_| {
                let mut c = String::new();
                order_comment(&mut rng, 0.1, &mut c);
                c.contains("special") && c.contains("requests")
            })
            .count();
        assert!((50..200).contains(&hits), "hits={hits}");
    }

    #[test]
    fn part_names_contain_colors_sometimes() {
        let mut rng = DetRng::new(3);
        let green = (0..500)
            .filter(|_| {
                let mut name = String::new();
                part_name(&mut rng, &mut name);
                name.contains("green")
            })
            .count();
        assert!(green > 10, "green={green}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (mut a, mut b) = (String::new(), String::new());
        comment(&mut DetRng::new(9), 5, &mut a);
        comment(&mut DetRng::new(9), 5, &mut b);
        assert_eq!(a, b);
    }
}
