//! Bookworm: the digital-humanities workload (§4.3).
//!
//! "The OSDC supports Bookworm (arxiv.culturomics.org), which is being
//! developed by Harvard's Cultural Observatory and offers a way to
//! interact with digitized book content and full text search. Bookworm
//! uses ngrams extracted from books in the public domain and integrates
//! library metadata, including genre, author information, publication
//! place and date."
//!
//! Implemented as Bookworm actually works: an ngram table keyed by
//! `(gram, year)` built with a MapReduce job over the corpus, faceted by
//! the library metadata; trend queries return per-year relative
//! frequencies (per million words); and an inverted index provides the
//! full-text search. Public-domain books are not shipped in a test
//! suite, so [`synthetic_corpus`] generates era-flavoured text whose
//! vocabulary shifts over publication years — enough signal for the
//! trend machinery to be meaningfully testable.

use std::collections::BTreeMap;

use osdc_mapreduce::run_job;
use osdc_sim::SimRng;

/// Library metadata — the facets the paper lists.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BookMeta {
    pub title: String,
    pub author: String,
    pub genre: Genre,
    pub place: String,
    pub year: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Genre {
    Fiction,
    NonFiction,
    Periodical,
}

/// A digitized public-domain book.
#[derive(Clone, Debug)]
pub struct Book {
    pub id: u32,
    pub meta: BookMeta,
    pub text: String,
}

/// Optional facet restriction on queries.
#[derive(Clone, Debug, Default)]
pub struct Facet {
    pub genre: Option<Genre>,
    pub place: Option<String>,
    pub year_range: Option<(u32, u32)>,
}

impl Facet {
    fn admits(&self, meta: &BookMeta) -> bool {
        self.genre.is_none_or(|g| g == meta.genre)
            && self.place.as_ref().is_none_or(|p| *p == meta.place)
            && self
                .year_range
                .is_none_or(|(lo, hi)| (lo..=hi).contains(&meta.year))
    }
}

/// The built Bookworm instance: ngram tables + inverted index.
pub struct Bookworm {
    /// `(gram, year) → occurrences` for 1-grams.
    unigrams: BTreeMap<(String, u32), u64>,
    /// `year → total words` (the denominator for relative frequency).
    words_per_year: BTreeMap<u32, u64>,
    /// word → postings `(book id, count)`.
    index: BTreeMap<String, Vec<(u32, u32)>>,
    books: BTreeMap<u32, BookMeta>,
}

fn tokenize(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
}

impl Bookworm {
    /// Build from a corpus with a MapReduce job (the shape the OSDC's
    /// Hadoop clusters ran): mappers tokenize books, reducers aggregate
    /// `(gram, year)` counts and postings.
    pub fn build(corpus: &[Book], facet: &Facet) -> Bookworm {
        let admitted: Vec<&Book> = corpus.iter().filter(|b| facet.admits(&b.meta)).collect();
        let books: BTreeMap<u32, BookMeta> =
            admitted.iter().map(|b| (b.id, b.meta.clone())).collect();

        // One MapReduce pass emits both the ngram table and the postings.
        #[derive(Clone)]
        enum V {
            Gram(u64),
            Posting(u32, u32),
        }
        let result = run_job(
            admitted
                .iter()
                .map(|b| (b.id, b.meta.year, b.text.clone()))
                .collect::<Vec<_>>(),
            |(id, year, text), emit| {
                let mut counts: BTreeMap<String, u32> = BTreeMap::new();
                for w in tokenize(&text) {
                    *counts.entry(w.to_ascii_lowercase()).or_insert(0) += 1;
                }
                for (w, c) in counts {
                    emit((w.clone(), year), V::Gram(c as u64));
                    // Postings are year-agnostic; key them under year 0.
                    emit((w, 0), V::Posting(id, c));
                }
            },
            |_k, vs| vs,
        );

        let mut unigrams = BTreeMap::new();
        let mut words_per_year = BTreeMap::new();
        let mut index: BTreeMap<String, Vec<(u32, u32)>> = BTreeMap::new();
        for ((gram, year), values) in result.output {
            for v in values {
                match v {
                    V::Gram(c) => {
                        *unigrams.entry((gram.clone(), year)).or_insert(0) += c;
                        *words_per_year.entry(year).or_insert(0) += c;
                    }
                    V::Posting(book, c) => index.entry(gram.clone()).or_default().push((book, c)),
                }
            }
        }
        for postings in index.values_mut() {
            postings.sort_unstable();
        }
        Bookworm {
            unigrams,
            words_per_year,
            index,
            books,
        }
    }

    pub fn book_count(&self) -> usize {
        self.books.len()
    }

    /// The culturomics trend query: per-year frequency of `gram` in
    /// occurrences per million words, over the corpus years.
    pub fn trend(&self, gram: &str) -> Vec<(u32, f64)> {
        let gram = gram.to_ascii_lowercase();
        self.words_per_year
            .iter()
            .filter(|(&year, _)| year != 0)
            .map(|(&year, &total)| {
                let count = self
                    .unigrams
                    .get(&(gram.clone(), year))
                    .copied()
                    .unwrap_or(0);
                (year, count as f64 / total as f64 * 1e6)
            })
            .collect()
    }

    /// Full-text search: books containing *all* query words, ranked by
    /// summed term frequency, with metadata attached.
    pub fn search(&self, query: &str) -> Vec<(&BookMeta, u32)> {
        let words: Vec<String> = tokenize(query).map(|w| w.to_ascii_lowercase()).collect();
        if words.is_empty() {
            return Vec::new();
        }
        let mut scores: BTreeMap<u32, (u32, usize)> = BTreeMap::new(); // book → (tf sum, words matched)
        for w in &words {
            if let Some(postings) = self.index.get(w) {
                for &(book, c) in postings {
                    let e = scores.entry(book).or_insert((0, 0));
                    e.0 += c;
                    e.1 += 1;
                }
            }
        }
        let mut hits: Vec<(&BookMeta, u32)> = scores
            .into_iter()
            .filter(|(_, (_, matched))| *matched == words.len())
            .map(|(book, (tf, _))| (&self.books[&book], tf))
            .collect();
        hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.title.cmp(&b.0.title)));
        hits
    }
}

/// Era-flavoured synthetic corpus: a base vocabulary plus era words that
/// enter the language at a given year and grow — giving trend queries a
/// known ground truth.
pub fn synthetic_corpus(books: usize, year_lo: u32, year_hi: u32, seed: u64) -> Vec<Book> {
    assert!(year_lo < year_hi);
    let mut rng = SimRng::new(seed);
    let base = [
        "the", "of", "and", "to", "in", "a", "is", "was", "he", "she", "it", "land", "house",
        "river", "night", "morning", "letter", "road", "city", "heart",
    ];
    // (word, introduction year): frequency ramps up after introduction.
    let era_words = [
        ("telegraph", 1845u32),
        ("railway", 1830),
        ("photograph", 1860),
        ("telephone", 1880),
        ("aeroplane", 1905),
    ];
    let places = ["London", "Boston", "Edinburgh", "Chicago"];
    let genres = [Genre::Fiction, Genre::NonFiction, Genre::Periodical];
    (0..books as u32)
        .map(|id| {
            let year = rng.range_inclusive(year_lo as u64, year_hi as u64) as u32;
            let mut words: Vec<&str> = Vec::with_capacity(600);
            for _ in 0..600 {
                // Era words appear only after introduction, ramping with age.
                let era_pick =
                    era_words
                        .iter()
                        .filter(|(_, intro)| year >= *intro)
                        .find(|(_, intro)| {
                            let age = (year - intro) as f64;
                            rng.chance((age / 100.0).min(0.04))
                        });
                match era_pick {
                    Some((w, _)) => words.push(w),
                    None => words.push(base[rng.below(base.len() as u64) as usize]),
                }
            }
            Book {
                id,
                meta: BookMeta {
                    title: format!("Volume {id}"),
                    author: format!("Author {}", id % 37),
                    genre: genres[rng.below(3) as usize],
                    place: places[rng.below(4) as usize].to_string(),
                    year,
                },
                text: words.join(" "),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Vec<Book> {
        synthetic_corpus(300, 1800, 1920, 42)
    }

    #[test]
    fn trend_shows_the_injected_signal() {
        let bw = Bookworm::build(&corpus(), &Facet::default());
        let trend = bw.trend("telegraph");
        let before: f64 = trend
            .iter()
            .filter(|(y, _)| *y < 1845)
            .map(|(_, f)| f)
            .sum();
        let after_points: Vec<f64> = trend
            .iter()
            .filter(|(y, _)| *y >= 1880)
            .map(|(_, f)| *f)
            .collect();
        let after = after_points.iter().sum::<f64>() / after_points.len().max(1) as f64;
        assert_eq!(before, 0.0, "no telegraphs before 1845");
        assert!(after > 0.0, "the word must appear after introduction");
    }

    #[test]
    fn base_words_are_flat_and_common() {
        let bw = Bookworm::build(&corpus(), &Facet::default());
        let trend = bw.trend("the");
        let freqs: Vec<f64> = trend.iter().map(|(_, f)| *f).collect();
        assert!(
            freqs.iter().all(|&f| f > 10_000.0),
            "common word everywhere"
        );
    }

    #[test]
    fn facets_restrict_the_build() {
        let corpus = corpus();
        let all = Bookworm::build(&corpus, &Facet::default());
        let fiction = Bookworm::build(
            &corpus,
            &Facet {
                genre: Some(Genre::Fiction),
                ..Default::default()
            },
        );
        let london_1800s = Bookworm::build(
            &corpus,
            &Facet {
                place: Some("London".into()),
                year_range: Some((1800, 1850)),
                ..Default::default()
            },
        );
        assert!(fiction.book_count() < all.book_count());
        assert!(london_1800s.book_count() < fiction.book_count() + all.book_count());
        assert!(london_1800s.book_count() > 0);
    }

    #[test]
    fn search_is_conjunctive_and_ranked() {
        let mut corpus = corpus();
        corpus.push(Book {
            id: 9999,
            meta: BookMeta {
                title: "The Telegraph and the Railway".into(),
                author: "I. K. Brunel".into(),
                genre: Genre::NonFiction,
                place: "London".into(),
                year: 1870,
            },
            text: "telegraph railway ".repeat(100) + "bridge iron",
        });
        let bw = Bookworm::build(&corpus, &Facet::default());
        let hits = bw.search("telegraph railway");
        assert!(!hits.is_empty());
        assert_eq!(
            hits[0].0.title, "The Telegraph and the Railway",
            "highest tf first"
        );
        // Conjunctive: every hit contains both words.
        let railway_only = bw.search("railway");
        assert!(railway_only.len() >= hits.len());
        assert!(bw.search("telegraph zeppelin-nonexistent").is_empty());
        assert!(bw.search("").is_empty());
    }

    #[test]
    fn search_is_case_insensitive() {
        let bw = Bookworm::build(&corpus(), &Facet::default());
        assert_eq!(bw.search("TELEGRAPH").len(), bw.search("telegraph").len());
    }
}
