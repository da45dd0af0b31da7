//! Seeded input generation. Everything the program under test receives is
//! text produced here from `--seed`: query data, the `load_big` program and
//! the `serve_closed` query order. The same seed gives byte-identical text.
//!
//! Seeds change the data, never the amount of work by more than noise:
//! sizes, answer counts and mix proportions are fixed, so runs on different
//! seeds are comparable.

use ace_programs::gen::{self, Lcg};
use ace_programs::{benchmark, tabled_program};

use crate::oracle::{self, Closed};

/// One query against one program, with what is known about its answers.
pub struct Spec {
    pub label: String,
    pub program: String,
    pub query: String,
    /// Enumerate every solution (search) or stop at the first.
    pub all: bool,
    /// Closed-form check of the answers, where one exists.
    pub closed: Option<Closed>,
}

fn corpus(name: &str) -> ace_programs::Benchmark {
    benchmark(name).unwrap_or_else(|| panic!("corpus program {name} is missing"))
}

fn spec(name: &str, size: usize, query: String, closed: Option<Closed>) -> Spec {
    let b = corpus(name);
    Spec {
        label: format!("{name}({size})"),
        program: (b.program)(size),
        query,
        all: b.all_solutions,
        closed,
    }
}

/// Independent sub-seeds for the parts of one workload's input.
fn subseeds<const N: usize>(seed: u64) -> [u64; N] {
    let mut rng = Lcg::new(seed);
    std::array::from_fn(|_| u64::from(rng.next_u32()))
}

/// A `cp/3` loop over `copy_term/2`: every copy lands on a heap the
/// previous ones grew, which is where `copy_term_within`'s whole-heap
/// snapshot shows.
const COPY_LOOP: &str = "\
cp(N, T, C) :- ( N =< 1 -> copy_term(T, C) ; copy_term(T, _), N1 is N - 1, cp(N1, T, C) ).
";

/// The determinate `&` programs (first solution only). `seq_det` runs them
/// with `takeuchi` at 10 plus the copy loop; `and_sim` with `takeuchi` at 8
/// plus `annotator`.
pub fn determinate(seed: u64, for_and_engine: bool) -> Vec<Spec> {
    let [s_sort, s_map, s_a, s_bt, s_tree, s_copy] = subseeds(seed);

    let sort_in = gen::int_list(120, s_sort);
    let mut sorted = oracle::ints(&sort_in);
    sorted.sort_unstable();

    let tak_n = if for_and_engine { 8 } else { 10 };
    let tak = oracle::tak(tak_n, tak_n / 2, 0);

    let map_in = gen::int_list(40, s_map);
    let mapped: Vec<i64> = oracle::ints(&map_in)
        .into_iter()
        .map(oracle::map2_transform)
        .collect();

    let (a, bt) = (gen::matrix(14, 14, s_a), gen::matrix(14, 14, s_bt));
    let product: Vec<String> =
        oracle::matrix_product(&oracle::int_rows(&a), &oracle::int_rows(&bt))
            .iter()
            .map(|row| oracle::render_list(row))
            .collect();

    let mut specs = vec![
        spec(
            "quick_sort",
            120,
            format!("qsort({sort_in}, S)"),
            Some(oracle::exactly(vec![format!(
                "S={}",
                oracle::render_list(&sorted)
            )])),
        ),
        spec(
            "takeuchi",
            tak_n as usize,
            format!("tak({tak_n}, {}, 0, A)", tak_n / 2),
            Some(oracle::exactly(vec![format!("A={tak}")])),
        ),
        spec(
            "hanoi",
            10,
            "hanoi(10, M)".to_owned(),
            Some(oracle::hanoi_moves(10)),
        ),
        spec("pderiv", 9, format!("d({}, D)", gen::expr(9)), None),
        spec(
            "map2",
            40,
            format!("map({map_in}, Out)"),
            Some(oracle::exactly(vec![format!(
                "Out={}",
                oracle::render_list(&mapped)
            )])),
        ),
        spec(
            "matrix",
            14,
            format!("matrix({a}, {bt}, C)"),
            Some(oracle::exactly(vec![format!("C=[{}]", product.join(","))])),
        ),
    ];
    if for_and_engine {
        specs.push(spec(
            "annotator",
            10,
            format!("ann({}, A)", gen::tree(10, s_tree)),
            None,
        ));
    } else {
        let list = gen::int_list(24, s_copy);
        specs.push(Spec {
            label: "copy_loop(80)".to_owned(),
            program: COPY_LOOP.to_owned(),
            query: format!("cp(80, {list}, C)"),
            all: false,
            closed: Some(oracle::exactly(vec![format!("C={list}")])),
        });
    }
    specs
}

/// Fisher–Yates with the corpus LCG.
fn shuffle<T>(items: &mut [T], rng: &mut Lcg) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u32 + 1) as usize);
    }
}

/// The search programs (every solution). The seed permutes the `members`
/// list and the order of the queries; answer multisets do not change.
pub fn search(seed: u64) -> Vec<Spec> {
    let mut rng = Lcg::new(seed);
    let mut members: Vec<i64> = (1..=18).collect();
    shuffle(&mut members, &mut rng);
    let triples = (1..=18i64)
        .flat_map(|x| (1..=18i64).map(move |y| (x, y)))
        .filter(|(x, y)| (1..=18).contains(&(20 - x - y)))
        .count();

    let mut specs = vec![
        spec(
            "queen1",
            7,
            "queens1(7, Qs)".to_owned(),
            Some(oracle::count_is(40)),
        ),
        spec(
            "puzzle",
            1,
            "puzzle(Cells)".to_owned(),
            Some(oracle::count_is(8)),
        ),
        spec(
            "members",
            18,
            format!("triples({}, 20, T)", oracle::render_list(&members)),
            Some(oracle::count_is(triples)),
        ),
        spec("maps", 1, "maps(Cols)".to_owned(), None),
        spec(
            "ancestors",
            10,
            "anc(p1, X)".to_owned(),
            // Every node of the depth-10 binary family tree but the root.
            Some(oracle::count_is((1 << 11) - 2)),
        ),
    ];
    shuffle(&mut specs, &mut rng);
    specs
}

/// Depth of the same-generation tree in `tabled_mix`: the cold fixpoint of
/// `sg/2` is most of a round's write half.
pub const SAMEGEN_DEPTH: usize = 8;

/// The tabled corpus. The seed picks the start node of the closure and the
/// leaf of the same-generation query; both graphs are symmetric in them.
pub fn tabled(seed: u64) -> Vec<Spec> {
    let [s_path, s_leaf] = subseeds(seed);
    let tabled_spec = |name: &str, size: usize, query: String| {
        let p = tabled_program(name).unwrap_or_else(|| panic!("tabled program {name} is missing"));
        Spec {
            label: format!("{name}({size})"),
            program: (p.program)(size),
            query,
            all: true,
            closed: Some(oracle::count_is((p.oracle)(size))),
        }
    };
    let leaves = 1u64 << SAMEGEN_DEPTH;
    vec![
        tabled_spec("tabled_path", 48, format!("path(n{}, X)", s_path % 48)),
        tabled_spec("tabled_grammar", 40, "e(0, J)".to_owned()),
        tabled_spec(
            "tabled_samegen",
            SAMEGEN_DEPTH,
            format!("sg(p{}, Y)", leaves + s_leaf % leaves),
        ),
    ]
}

/// The repeated-subgoal memo workload (as in `memo_workload`): 12 cells
/// that all reverse the same seeded 16-element list.
pub fn memo_cells(seed: u64) -> Spec {
    let [s_list] = subseeds(seed ^ 0x6d65_6d6f);
    let list = gen::int_list(16, s_list);
    let mut reversed = oracle::ints(&list);
    reversed.reverse();
    let vars: Vec<String> = (0..12).map(|i| format!("R{i}")).collect();
    let cells: Vec<String> = vars.iter().map(|v| format!("cell({v})")).collect();
    let program = format!(
        "append([], L, L).\n\
         append([H|T], L, [H|R]) :- append(T, L, R).\n\
         nrev([], []).\n\
         nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).\n\
         cell(R) :- nrev({list}, R).\n\
         run({}) :- {}.\n",
        vars.join(", "),
        cells.join(" & "),
    );
    // Answers render their bindings sorted by variable name.
    let mut bindings: Vec<String> = vars
        .iter()
        .map(|v| format!("{v}={}", oracle::render_list(&reversed)))
        .collect();
    bindings.sort();
    Spec {
        label: "memo_cells(12x16)".to_owned(),
        program,
        query: format!("run({})", vars.join(", ")),
        all: true,
        closed: Some(oracle::exactly(vec![bindings.join(", ")])),
    }
}

/// The generated `load_big` program with the queries run against it. The
/// generator knows every edge, so all answers come in closed form.
pub struct BigProgram {
    pub text: String,
    /// 200 first-argument point lookups, 2 second-argument scans (the
    /// unindexed counter-case) and 20 three-way joins, with their answers.
    pub queries: Vec<(String, Vec<String>)>,
}

pub const BIG_NODES: usize = 1000;
pub const BIG_FANOUT: usize = 5;
pub const BIG_RULES: usize = 500;

pub fn big_program(seed: u64) -> BigProgram {
    let mut rng = Lcg::new(seed);
    // edges[from] = [(to, weight); BIG_FANOUT], in clause order.
    let edges: Vec<Vec<(usize, u32)>> = (0..BIG_NODES)
        .map(|_| {
            (0..BIG_FANOUT)
                .map(|_| (rng.below(BIG_NODES as u32) as usize, rng.below(100)))
                .collect()
        })
        .collect();

    let mut text = String::new();
    for (from, out) in edges.iter().enumerate() {
        for (to, w) in out {
            text.push_str(&format!("edge(n{from}, n{to}, {w}).\n"));
        }
    }
    for k in 0..BIG_RULES {
        let offset = rng.below(1000);
        text.push_str(&match k % 3 {
            0 => format!("hop2_{k}(X, Z) :- edge(X, Y, _), edge(Y, Z, _).\n"),
            1 => format!("join3_{k}(X, C) :- edge(X, A, _), edge(A, B, _), edge(B, C, _).\n"),
            _ => format!("cost_{k}(X, Y, C) :- edge(X, Y, W), C is W + {offset}.\n"),
        });
    }

    let mut queries = Vec::new();
    for _ in 0..200 {
        let from = rng.below(BIG_NODES as u32) as usize;
        let answers = edges[from]
            .iter()
            .map(|(to, w)| format!("W={w}, Y=n{to}"))
            .collect();
        queries.push((format!("edge(n{from}, Y, W)"), answers));
    }
    for _ in 0..2 {
        let target = rng.below(BIG_NODES as u32) as usize;
        let answers = edges
            .iter()
            .enumerate()
            .flat_map(|(from, out)| out.iter().map(move |e| (from, e)))
            .filter(|(_, (to, _))| *to == target)
            .map(|(from, (_, w))| format!("W={w}, X=n{from}"))
            .collect();
        queries.push((format!("edge(X, n{target}, W)"), answers));
    }
    for _ in 0..20 {
        let from = rng.below(BIG_NODES as u32) as usize;
        let rule = 1 + 3 * rng.below((BIG_RULES / 3) as u32) as usize;
        let mut answers = Vec::new();
        for (a, _) in &edges[from] {
            for (b, _) in &edges[*a] {
                for (c, _) in &edges[*b] {
                    answers.push(format!("C=n{c}"));
                }
            }
        }
        queries.push((format!("join3_{rule}(n{from}, C)"), answers));
    }
    BigProgram { text, queries }
}

/// The query kinds of `serve_closed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    /// `members(18)`, every answer: a long stream.
    Members,
    /// `quick_sort(120)`: compute, one answer.
    QuickSort,
    /// A `load_big` first-argument point lookup: almost no solving.
    Lookup,
    /// `tabled_path` against a table completed at set-up: replay.
    WarmPath,
}

/// Sessions of each kind in one pass over the seeded order. The shares
/// are unequal on purpose: sorted by completion time the kinds fall into
/// four separate groups, and with these shares the median lies well inside
/// the `QuickSort` group (37.5% to 75%) and the p95 inside `Members`, not
/// on a boundary between two groups where it would jump between runs.
pub const SERVE_MIX: [(ServeKind, usize); 4] = [
    (ServeKind::Members, 64),
    (ServeKind::QuickSort, 96),
    (ServeKind::Lookup, 64),
    (ServeKind::WarmPath, 32),
];

/// Sessions in one pass over the seeded order.
pub const SERVE_CYCLE: usize = 256;

/// One program holding everything `serve_closed` queries, its four query
/// texts with their answers' closed forms, and the seeded session order.
pub struct ServeInput {
    pub program: String,
    pub specs: Vec<(ServeKind, Spec)>,
    /// `SERVE_CYCLE` kinds in the shares of `SERVE_MIX`, in seeded order;
    /// clients walk it cyclically.
    pub order: Vec<ServeKind>,
}

/// `b` without the leading lines it shares with `a` (corpus programs all
/// start with the same list library, which must be loaded once only).
fn without_shared_prefix<'a>(a: &str, b: &'a str) -> &'a str {
    let shared: usize = a
        .split_inclusive('\n')
        .zip(b.split_inclusive('\n'))
        .take_while(|(x, y)| x == y)
        .map(|(x, _)| x.len())
        .sum();
    &b[shared..]
}

pub fn serve(seed: u64) -> ServeInput {
    let [s_search, s_big, s_tabled, s_order] = subseeds(seed);
    let take = |mut specs: Vec<Spec>, label: &str| {
        let at = specs
            .iter()
            .position(|s| s.label.starts_with(label))
            .unwrap_or_else(|| panic!("no {label} spec"));
        specs.swap_remove(at)
    };
    // The list `QuickSort` sorts is the same for every seed: the median
    // session of the mix is a `QuickSort` session, and quicksort's work
    // moves by a tenth with its input, which would move `round_ms_p50` by
    // as much. The seed drives the order, the lookup key, the closure's
    // start node and the `members` permutation.
    let sort = take(determinate(13, false), "quick_sort");
    let members = take(search(s_search), "members");
    let path = take(tabled(s_tabled), "tabled_path");
    let big = big_program(s_big);
    let (lookup_query, lookup_answers) = big.queries[0].clone();

    let program = format!(
        "{}\n{}\n{}\n{}",
        sort.program,
        without_shared_prefix(&sort.program, &members.program),
        big.text,
        path.program,
    );
    let lookup = Spec {
        label: "lookup".to_owned(),
        program: String::new(),
        query: lookup_query,
        all: true,
        closed: Some(oracle::exactly(lookup_answers)),
    };

    let mut order: Vec<ServeKind> = SERVE_MIX
        .iter()
        .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
        .collect();
    shuffle(&mut order, &mut Lcg::new(s_order));
    ServeInput {
        program,
        specs: vec![
            (ServeKind::Members, members),
            (ServeKind::QuickSort, sort),
            (ServeKind::Lookup, lookup),
            (ServeKind::WarmPath, path),
        ],
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every generated text of one seed, concatenated.
    fn everything(seed: u64) -> String {
        let mut out = String::new();
        let mut specs = determinate(seed, false);
        specs.extend(determinate(seed, true));
        specs.extend(search(seed));
        specs.extend(tabled(seed));
        specs.push(memo_cells(seed));
        for s in specs {
            out.push_str(&format!("{}\n{}\n{}\n", s.label, s.program, s.query));
        }
        let big = big_program(seed);
        out.push_str(&big.text);
        for (q, answers) in big.queries {
            out.push_str(&format!("{q} -> {answers:?}\n"));
        }
        let serve = serve(seed);
        out.push_str(&serve.program);
        out.push_str(&format!("{:?}", serve.order));
        out
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs_and_another_seed_differs() {
        assert_eq!(everything(7), everything(7));
        assert_ne!(everything(7), everything(8));
    }

    #[test]
    fn big_program_has_the_advertised_shape() {
        let big = big_program(3);
        assert_eq!(
            big.text.lines().filter(|l| l.starts_with("edge(")).count(),
            BIG_NODES * BIG_FANOUT
        );
        assert_eq!(
            big.text.lines().filter(|l| l.contains(":-")).count(),
            BIG_RULES
        );
        assert_eq!(big.queries.len(), 222);
        assert!(big.queries[..200]
            .iter()
            .all(|(_, answers)| answers.len() == BIG_FANOUT));
        assert!(big.queries[202..]
            .iter()
            .all(|(_, answers)| answers.len() == BIG_FANOUT.pow(3)));
    }

    #[test]
    fn serve_order_holds_every_kind_in_its_share() {
        let input = serve(5);
        assert_eq!(input.order.len(), SERVE_CYCLE);
        for (kind, share) in SERVE_MIX {
            let n = input.order.iter().filter(|k| **k == kind).count();
            assert_eq!(n, share, "{kind:?}");
        }
        // The list library is in the merged program exactly once.
        assert_eq!(input.program.matches("append([], L, L).").count(), 1);
        assert!(input.program.contains("triples("));
        assert!(input.program.contains("qsort("));
    }
}
