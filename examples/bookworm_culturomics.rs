//! Bookworm: culturomics on the OSDC (§4.3).
//!
//! ```text
//! cargo run --example bookworm_culturomics
//! ```
//!
//! "Bookworm uses ngrams extracted from books in the public domain and
//! integrates library metadata, including genre, author information,
//! publication place and date." This example builds the ngram tables
//! with a MapReduce job over a synthetic era-flavoured corpus, runs the
//! signature culturomics trend query, facets it by library metadata, and
//! finishes with full-text search.

use osdc::bookworm::{synthetic_corpus, Bookworm, Facet, Genre};

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    values
        .iter()
        .map(|v| BARS[((v / max * 7.0).round() as usize).min(7)])
        .collect()
}

/// Bucket a trend into decade averages for display.
fn decades(trend: &[(u32, f64)]) -> Vec<(u32, f64)> {
    let mut sums: std::collections::BTreeMap<u32, (f64, u32)> = Default::default();
    for &(year, freq) in trend {
        let e = sums.entry(year / 10 * 10).or_insert((0.0, 0));
        e.0 += freq;
        e.1 += 1;
    }
    sums.into_iter()
        .map(|(decade, (sum, n))| (decade, sum / n as f64))
        .collect()
}

fn main() {
    // A century of public-domain volumes.
    let corpus = synthetic_corpus(1500, 1800, 1920, 1876);
    println!("corpus: {} volumes, 1800–1920\n", corpus.len());
    let bookworm = Bookworm::build(&corpus, &Facet::default());

    // --- the trend query that made culturomics famous ---------------------
    for word in ["railway", "telegraph", "telephone"] {
        let trend = decades(&bookworm.trend(word));
        let freqs: Vec<f64> = trend.iter().map(|(_, f)| *f).collect();
        println!(
            "{word:>10}  {}  (per-million-words by decade, 1800s→1910s)",
            sparkline(&freqs)
        );
    }

    // --- metadata faceting -------------------------------------------------
    println!("\nfaceted rebuild (fiction printed in London, 1850–1900):");
    let faceted = Bookworm::build(
        &corpus,
        &Facet {
            genre: Some(Genre::Fiction),
            place: Some("London".into()),
            year_range: Some((1850, 1900)),
        },
    );
    println!(
        "  {} volumes admitted; 'telegraph' appears at {:.1} per million words",
        faceted.book_count(),
        faceted
            .trend("telegraph")
            .iter()
            .map(|(_, f)| f)
            .sum::<f64>()
            / faceted.trend("telegraph").len().max(1) as f64
    );

    // --- full-text search ---------------------------------------------------
    println!("\nfull-text search 'telegraph railway' (top 5):");
    for (meta, tf) in bookworm.search("telegraph railway").into_iter().take(5) {
        let genre = format!("({:?})", meta.genre);
        println!(
            "  [{:>4}] {:<12} {:<10} {genre} (tf {tf})",
            meta.year, meta.title, meta.place,
        );
    }
}
