//! # ace-programs — the benchmark corpus
//!
//! Faithful re-creations of the benchmark programs the paper's evaluation
//! uses (its sources were never published; these are the classic programs
//! the names refer to, annotated with `&` where &ACE exploits independent
//! and-parallelism). Each [`Benchmark`] bundles the Prolog source, a
//! parameterized query generator, the engine mode it targets and the
//! tables/figures it appears in.

pub mod gen;

use ace_core::Mode;

/// One benchmark of the corpus.
#[derive(Clone)]
pub struct Benchmark {
    /// Corpus name (the paper's benchmark name where it has one).
    pub name: &'static str,
    /// Which engine the paper evaluates it on.
    pub mode: Mode,
    /// Produce the full program text for a given size parameter.
    pub program: fn(usize) -> String,
    /// Produce the query for a given size parameter.
    pub query: fn(usize) -> String,
    /// Size used by tests (small) — benches use per-experiment sizes.
    pub test_size: usize,
    /// Size used when reproducing the paper tables.
    pub bench_size: usize,
    /// Ask for every solution (search benchmarks) or just the first.
    pub all_solutions: bool,
    /// Paper tables/figures this benchmark appears in.
    pub appears_in: &'static str,
    pub description: &'static str,
}

impl std::fmt::Debug for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Benchmark")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .finish_non_exhaustive()
    }
}

const LIB: &str = include_str!("../pl/lists.pl");
const MAP: &str = include_str!("../pl/map.pl");
const OCCUR: &str = include_str!("../pl/occur.pl");
const MATRIX: &str = include_str!("../pl/matrix.pl");
const PDERIV: &str = include_str!("../pl/pderiv.pl");
const ANNOTATOR: &str = include_str!("../pl/annotator.pl");
const TAKEUCHI: &str = include_str!("../pl/takeuchi.pl");
const HANOI: &str = include_str!("../pl/hanoi.pl");
const BT_CLUSTER: &str = include_str!("../pl/bt_cluster.pl");
const QUICKSORT: &str = include_str!("../pl/quicksort.pl");
const QUEENS: &str = include_str!("../pl/queens.pl");
const PUZZLE: &str = include_str!("../pl/puzzle.pl");
const MEMBERS: &str = include_str!("../pl/members.pl");
const MAPS: &str = include_str!("../pl/maps.pl");
const ANCESTORS: &str = include_str!("../pl/ancestors.pl");

fn with_lib(src: &str) -> String {
    format!("{LIB}\n{src}")
}

/// The corpus. Names with a `1`/`2`/`_bt` suffix are the paper's variants
/// (forward vs backward execution, alternative formulations).
pub fn all() -> Vec<Benchmark> {
    vec![
        // ------------------------- and-parallel -------------------------
        Benchmark {
            name: "map2",
            mode: Mode::AndParallel,
            program: |_| with_lib(MAP),
            query: |n| format!("map({}, Out)", gen::int_list(n, 7)),
            test_size: 6,
            bench_size: 40,
            all_solutions: false,
            appears_in: "Table 1",
            description: "deterministic parallel list map (forward execution)",
        },
        Benchmark {
            name: "map1",
            mode: Mode::AndParallel,
            program: |_| with_lib(MAP),
            query: |n| format!("pmap_bt({})", gen::list_of_lists(n, 6, 3)),
            test_size: 2,
            bench_size: 12,
            all_solutions: false,
            appears_in: "Table 2, Figure 5 (map)",
            description: "parallel over independent sublists, each \
                          exhausting a nondeterministic map (backward \
                          execution)",
        },
        Benchmark {
            name: "occur",
            mode: Mode::AndParallel,
            program: |_| with_lib(OCCUR),
            query: |n| format!("poccur({}, 5, T)", gen::list_of_lists(n, 24, 11)),
            test_size: 3,
            bench_size: 24,
            all_solutions: false,
            appears_in: "Tables 1 & 4; Table 5/Figure 8 as poccur",
            description: "parallel occurrence counting over a list of lists",
        },
        Benchmark {
            name: "matrix",
            mode: Mode::AndParallel,
            program: |_| with_lib(MATRIX),
            query: |n| {
                format!(
                    "matrix({}, {}, C)",
                    gen::matrix(n, n, 5),
                    gen::matrix(n, n, 9)
                )
            },
            test_size: 3,
            bench_size: 14,
            all_solutions: false,
            appears_in: "Tables 4 & 5 (matrix mult)",
            description: "parallel matrix multiplication, one subgoal per row",
        },
        Benchmark {
            name: "matrix_bt",
            mode: Mode::AndParallel,
            program: |_| with_lib(MATRIX),
            query: |n| {
                format!(
                    "pmatrix_bt({}, {})",
                    gen::matrices(n, 4, 4, 5),
                    gen::matrix(4, 4, 9)
                )
            },
            test_size: 2,
            bench_size: 10,
            all_solutions: false,
            appears_in: "Table 2, Figure 5 (matrix)",
            description: "matrix multiplication with nondeterministically \
                          scaled rows, exhaustive redo (backward execution)",
        },
        Benchmark {
            name: "pderiv",
            mode: Mode::AndParallel,
            program: |_| with_lib(PDERIV),
            query: |n| format!("d({}, D)", gen::expr(n)),
            test_size: 3,
            bench_size: 9,
            all_solutions: false,
            appears_in: "derivative core of Table 2 / Figure 5",
            description: "parallel symbolic differentiation",
        },
        Benchmark {
            name: "pderiv_bt",
            mode: Mode::AndParallel,
            program: |_| with_lib(PDERIV),
            query: |n| format!("ppderiv_bt({})", gen::exprs(n, 3)),
            test_size: 2,
            bench_size: 10,
            all_solutions: false,
            appears_in: "Table 2, Figure 5 (pderiv)",
            description: "differentiate then exhaust overlapping \
                          simplification rules (backward execution)",
        },
        Benchmark {
            name: "annotator",
            mode: Mode::AndParallel,
            program: |_| with_lib(ANNOTATOR),
            query: |n| format!("ann({}, A)", gen::tree(n, 3)),
            test_size: 3,
            bench_size: 10,
            all_solutions: false,
            appears_in: "Tables 2, 4 & 5; Figure 8",
            description: "parallel tree annotation with subtree sizes",
        },
        Benchmark {
            name: "annotator_bt",
            mode: Mode::AndParallel,
            program: |_| with_lib(ANNOTATOR),
            query: |n| format!("pann_bt({})", gen::trees(n, 2, 3)),
            test_size: 2,
            bench_size: 10,
            all_solutions: false,
            appears_in: "Table 2 (annotator, backward)",
            description: "nondeterministic annotation, exhaustive redo",
        },
        Benchmark {
            name: "takeuchi",
            mode: Mode::AndParallel,
            program: |_| with_lib(TAKEUCHI),
            query: |n| format!("tak({}, {}, 0, A)", n, n / 2),
            test_size: 6,
            bench_size: 10,
            all_solutions: false,
            appears_in: "Tables 4 & 5",
            description: "Takeuchi function, three recursive calls in parallel",
        },
        Benchmark {
            name: "hanoi",
            mode: Mode::AndParallel,
            program: |_| with_lib(HANOI),
            query: |n| format!("hanoi({n}, M)"),
            test_size: 4,
            bench_size: 10,
            all_solutions: false,
            appears_in: "Table 4, Figure 8",
            description: "Towers of Hanoi, the two transfers in parallel",
        },
        Benchmark {
            name: "bt_cluster",
            mode: Mode::AndParallel,
            program: |_| with_lib(BT_CLUSTER),
            query: |n| format!("bt_cluster({}, S)", gen::clusters(n, 30)),
            test_size: 3,
            bench_size: 16,
            all_solutions: false,
            appears_in: "Tables 4 & 5",
            description: "parallel cluster scoring",
        },
        Benchmark {
            name: "quick_sort",
            mode: Mode::AndParallel,
            program: |_| with_lib(QUICKSORT),
            query: |n| format!("qsort({}, S)", gen::int_list(n, 13)),
            test_size: 8,
            bench_size: 120,
            all_solutions: false,
            appears_in: "Table 5",
            description: "parallel quicksort",
        },
        // ------------------------- or-parallel --------------------------
        Benchmark {
            name: "queen1",
            mode: Mode::OrParallel,
            program: |_| with_lib(QUEENS),
            query: |n| format!("queens1({n}, Qs)"),
            test_size: 5,
            bench_size: 7,
            all_solutions: true,
            appears_in: "Table 3",
            description: "N-queens via permutation construction",
        },
        Benchmark {
            name: "queen2",
            mode: Mode::OrParallel,
            program: |_| with_lib(QUEENS),
            query: |n| format!("queens2({n}, Qs)"),
            test_size: 5,
            bench_size: 6,
            all_solutions: true,
            appears_in: "Table 3",
            description: "N-queens via per-column row choice",
        },
        Benchmark {
            name: "puzzle",
            mode: Mode::OrParallel,
            program: |_| with_lib(PUZZLE),
            query: |_| "puzzle(Cells)".to_owned(),
            test_size: 1,
            bench_size: 1,
            all_solutions: true,
            appears_in: "Table 3",
            description: "3x3 magic square by constrained selection",
        },
        Benchmark {
            name: "ancestors",
            mode: Mode::OrParallel,
            program: |n| format!("{}\n{}", with_lib(ANCESTORS), gen::family(n)),
            query: |_| "anc(p1, X)".to_owned(),
            test_size: 4,
            bench_size: 10,
            all_solutions: true,
            appears_in: "Table 3",
            description: "all descendants in a generated family tree",
        },
        Benchmark {
            name: "members",
            mode: Mode::OrParallel,
            program: |_| with_lib(MEMBERS),
            query: |n| format!("triples({}, {}, T)", gen::range_list(n), n + 2),
            test_size: 6,
            bench_size: 18,
            all_solutions: true,
            appears_in: "Table 3",
            description: "nested member/2 search for triples with a target sum",
        },
        Benchmark {
            name: "wide_tree",
            mode: Mode::OrParallel,
            program: |n| gen::wide_tree(n),
            query: |_| "wt(X, Y)".to_owned(),
            test_size: 4,
            bench_size: 64,
            all_solutions: true,
            appears_in: "scaling grid (results/or_topology)",
            description: "wide two-level or-tree (n x 8 alternatives, fixed \
                          leaf work) for the 64-512 worker scaling wall",
        },
        Benchmark {
            name: "maps",
            mode: Mode::OrParallel,
            program: |_| with_lib(MAPS),
            query: |_| "maps(Cols)".to_owned(),
            test_size: 1,
            bench_size: 1,
            all_solutions: true,
            appears_in: "Table 3",
            description: "4-colouring of a 10-region map",
        },
    ]
}

/// Look a benchmark up by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all().into_iter().find(|b| b.name == name)
}

// ---------------------------- tabled corpus ----------------------------

/// A tabled corpus program: left or mutual recursion that ordinary
/// resolution cannot evaluate (or cannot evaluate without exponential
/// recomputation), paired with an exact finite oracle answer count.
///
/// Deliberately *not* part of [`all()`]: the registry's oracle tests run
/// every benchmark with tabling off, and these programs only terminate
/// under SLG evaluation. Use [`tabled()`] / [`tabled_program()`] and run
/// with tabling switched on (`EngineConfig::with_tabling`).
#[derive(Clone)]
pub struct TabledProgram {
    pub name: &'static str,
    /// Full program text (`:- table` directive included) at size `n`.
    pub program: fn(usize) -> String,
    /// The query at size `n`.
    pub query: fn(usize) -> String,
    /// Exact number of distinct answers the query has at size `n`.
    pub oracle: fn(usize) -> usize,
    /// Size used by tests (small).
    pub test_size: usize,
    /// Size used by the tabling benchmark workload.
    pub bench_size: usize,
    pub description: &'static str,
}

impl std::fmt::Debug for TabledProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TabledProgram")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

const TABLED_PATH: &str = "\
:- table(path/2).
path(X, Y) :- path(X, Z), edge(Z, Y).
path(X, Y) :- edge(X, Y).
";

const TABLED_GRAMMAR: &str = "\
:- table(e/2).
e(I, J) :- e(I, K), tok(K, plus), s(K, K1), t(K1, J).
e(I, J) :- t(I, J).
t(I, J) :- tok(I, a), s(I, J).
";

const TABLED_SAMEGEN: &str = "\
:- table(sg/2).
sg(X, X) :- n(X).
sg(X, Y) :- par(X, XP), sg(XP, YP), par(Y, YP).
";

/// The tabled corpus: three classic programs tabling makes terminating
/// (left-recursive closure, left-recursive grammar) or tractable
/// (same-generation with shared subgoals).
pub fn tabled() -> Vec<TabledProgram> {
    vec![
        TabledProgram {
            name: "tabled_path",
            program: |n| format!("{TABLED_PATH}{}", gen::cyclic_graph(n)),
            query: |_| "path(n0, X)".to_owned(),
            // The cycle closes over every node.
            oracle: |n| n.max(2),
            test_size: 8,
            bench_size: 48,
            description: "left-recursive transitive closure over a cyclic \
                          graph: nonterminating without tabling",
        },
        TabledProgram {
            name: "tabled_grammar",
            program: |n| format!("{TABLED_GRAMMAR}{}", gen::token_string(n)),
            query: |_| "e(0, J)".to_owned(),
            // One parse span per `a + a + ... + a` prefix.
            oracle: |n| n.max(1),
            test_size: 6,
            bench_size: 40,
            description: "left-recursive expression grammar parsing \
                          `a + a + ... + a`: nonterminating without tabling",
        },
        TabledProgram {
            name: "tabled_samegen",
            program: |d| format!("{TABLED_SAMEGEN}{}", gen::samegen_tree(d)),
            query: |d| format!("sg(p{}, Y)", 1usize << d.min(12)),
            // Every node at the leaf level is same-generation.
            oracle: |d| 1usize << d.min(12),
            test_size: 4,
            bench_size: 9,
            description: "same-generation datalog over a complete binary \
                          tree: exponential re-derivation without tabling",
        },
    ]
}

/// Look a tabled program up by name.
pub fn tabled_program(name: &str) -> Option<TabledProgram> {
    tabled().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_core::Ace;

    #[test]
    fn corpus_is_complete() {
        let names: Vec<&str> = all().iter().map(|b| b.name).collect();
        for expected in [
            "map1",
            "map2",
            "occur",
            "matrix",
            "matrix_bt",
            "pderiv",
            "pderiv_bt",
            "annotator",
            "annotator_bt",
            "takeuchi",
            "hanoi",
            "bt_cluster",
            "quick_sort",
            "queen1",
            "queen2",
            "puzzle",
            "ancestors",
            "members",
            "wide_tree",
            "maps",
        ] {
            assert!(names.contains(&expected), "missing benchmark {expected}");
        }
    }

    #[test]
    fn every_program_parses_and_loads() {
        for b in all() {
            let src = (b.program)(b.test_size);
            Ace::load(&src).unwrap_or_else(|e| panic!("benchmark {} failed to load: {e}", b.name));
        }
    }

    #[test]
    fn every_query_parses() {
        for b in all() {
            let q = (b.query)(b.test_size);
            let mut heap = ace_logic::Heap::new();
            ace_logic::parse_term(&mut heap, &q).unwrap_or_else(|e| {
                panic!("benchmark {} query {q:?} failed to parse: {e}", b.name)
            });
        }
    }

    #[test]
    fn every_benchmark_solves_sequentially() {
        for b in all() {
            let ace = Ace::load(&(b.program)(b.test_size)).unwrap();
            let sols = ace
                .sequential_solutions(&(b.query)(b.test_size))
                .unwrap_or_else(|e| panic!("{} failed: {e}", b.name));
            assert!(
                !sols.is_empty(),
                "benchmark {} produced no solutions at test size",
                b.name
            );
        }
    }

    #[test]
    fn known_answers() {
        // quicksort really sorts
        let b = benchmark("quick_sort").unwrap();
        let ace = Ace::load(&(b.program)(5)).unwrap();
        let sols = ace.sequential_solutions("qsort([3,1,2], S)").unwrap();
        assert_eq!(sols, vec!["S=[1,2,3]"]);

        // hanoi(3) makes 7 moves
        let b = benchmark("hanoi").unwrap();
        let ace = Ace::load(&(b.program)(3)).unwrap();
        let sols = ace.sequential_solutions("hanoi(3, M)").unwrap();
        assert_eq!(sols.len(), 1);
        assert_eq!(sols[0].matches("mv(").count(), 7);

        // tak(6,3,0) per definition
        let b = benchmark("takeuchi").unwrap();
        let ace = Ace::load(&(b.program)(6)).unwrap();
        let sols = ace.sequential_solutions("tak(6, 3, 0, A)").unwrap();
        assert_eq!(sols, vec!["A=3"]); // tak(6,3,0) = 3 (computed by defn)

        // 6-queens has 4 solutions; magic square has 8
        let b = benchmark("queen1").unwrap();
        let ace = Ace::load(&(b.program)(6)).unwrap();
        assert_eq!(ace.sequential_solutions("queens1(6, Qs)").unwrap().len(), 4);
        let b = benchmark("puzzle").unwrap();
        let ace = Ace::load(&(b.program)(1)).unwrap();
        assert_eq!(ace.sequential_solutions("puzzle(C)").unwrap().len(), 8);
    }

    #[test]
    fn tabled_corpus_is_complete_and_loads() {
        let names: Vec<&str> = tabled().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec!["tabled_path", "tabled_grammar", "tabled_samegen"]
        );
        for p in tabled() {
            let src = (p.program)(p.test_size);
            Ace::load(&src).unwrap_or_else(|e| panic!("{} failed to load: {e}", p.name));
            let q = (p.query)(p.test_size);
            let mut heap = ace_logic::Heap::new();
            ace_logic::parse_term(&mut heap, &q)
                .unwrap_or_else(|e| panic!("{} query {q:?} failed to parse: {e}", p.name));
            assert!(tabled_program(p.name).is_some());
        }
    }

    #[test]
    fn tabled_programs_terminate_with_their_oracle_answer_sets() {
        use ace_runtime::EngineConfig;
        for p in tabled() {
            let ace = Ace::load(&(p.program)(p.test_size)).unwrap();
            let cfg = EngineConfig::default().all_solutions().with_tabling();
            let report = ace
                .run(Mode::Sequential, &(p.query)(p.test_size), &cfg)
                .unwrap_or_else(|e| panic!("{} failed: {e}", p.name));
            assert_eq!(
                report.solutions.len(),
                (p.oracle)(p.test_size),
                "{} answer count at test size",
                p.name
            );
            // Tabling dedups structurally: the answer set has no repeats.
            let mut uniq = report.solutions.clone();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), report.solutions.len(), "{} dedup", p.name);
        }
    }

    #[test]
    fn tabled_oracles_scale_with_size() {
        use ace_runtime::EngineConfig;
        // Spot-check a second size so the oracle functions are not
        // accidentally constants.
        for (name, size) in [
            ("tabled_path", 12),
            ("tabled_grammar", 9),
            ("tabled_samegen", 5),
        ] {
            let p = tabled_program(name).unwrap();
            let ace = Ace::load(&(p.program)(size)).unwrap();
            let cfg = EngineConfig::default().all_solutions().with_tabling();
            let report = ace.run(Mode::Sequential, &(p.query)(size), &cfg).unwrap();
            assert_eq!(
                report.solutions.len(),
                (p.oracle)(size),
                "{name} at size {size}"
            );
        }
    }

    #[test]
    fn queen_formulations_agree() {
        let b = benchmark("queen1").unwrap();
        let ace = Ace::load(&(b.program)(6)).unwrap();
        let n1 = ace.sequential_solutions("queens1(6, Qs)").unwrap().len();
        let n2 = ace.sequential_solutions("queens2(6, Qs)").unwrap().len();
        assert_eq!(n1, n2);
    }
}
