//! Answer checking: every operation's rendered answers are compared, outside
//! the timed region, with an expectation computed independently of the code
//! under test — a closed form where one exists, otherwise a set-up run under
//! the tree-walking interpreter (`ClauseExec::Interpreted`). Seed 1 is also
//! pinned in `expected.json`, so a drift of both executors still shows.

use crate::json::Json;

/// Answer count plus an order-insensitive digest of the rendered answers
/// (parallel engines deliver the same multiset in another order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub count: usize,
    pub digest: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Expected {
    pub fn of(answers: &[String]) -> Expected {
        // Sum of per-answer hashes: insensitive to order, sensitive to
        // multiplicity. The multiply spreads FNV's weak high bits first.
        let digest = answers.iter().fold(0u64, |acc, a| {
            acc.wrapping_add(fnv1a(a.as_bytes()).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        });
        Expected {
            count: answers.len(),
            digest,
        }
    }

    pub fn matches(&self, answers: &[String]) -> bool {
        *self == Expected::of(answers)
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            // u64 does not fit a JSON number exactly.
            ("digest", Json::from(format!("{:016x}", self.digest))),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Expected> {
        Some(Expected {
            count: v.get("count")?.as_f64()? as usize,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
        })
    }
}

/// A closed-form check of an oracle's answers.
pub type Closed = Box<dyn Fn(&[String]) -> Result<(), String>>;

/// The oracle must have produced exactly these answers.
pub fn exactly(want: Vec<String>) -> Closed {
    Box::new(move |got| {
        if got == want.as_slice() {
            Ok(())
        } else {
            Err(format!(
                "closed form says {want:?}, oracle run gave {got:?}"
            ))
        }
    })
}

/// The oracle must have produced this many answers.
pub fn count_is(want: usize) -> Closed {
    Box::new(move |got| {
        if got.len() == want {
            Ok(())
        } else {
            Err(format!(
                "closed form says {want} answers, oracle run gave {}",
                got.len()
            ))
        }
    })
}

/// One answer holding `2^n - 1` moves.
pub fn hanoi_moves(n: u32) -> Closed {
    Box::new(move |got| {
        let want = (1usize << n) - 1;
        match got {
            [one] if one.matches("mv(").count() == want => Ok(()),
            _ => Err(format!("hanoi({n}) must be one answer of {want} moves")),
        }
    })
}

/// `[1,2,3]` → the integers (inputs are generated as text first, because
/// text is what the program under test receives).
pub fn ints(list: &str) -> Vec<i64> {
    list.trim_matches(|c| c == '[' || c == ']')
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().expect("generated integer list"))
        .collect()
}

/// `[[1,2],[3,4]]` → rows.
pub fn int_rows(matrix: &str) -> Vec<Vec<i64>> {
    matrix[1..matrix.len() - 1].split("],").map(ints).collect()
}

pub fn render_list(items: &[i64]) -> String {
    let items: Vec<String> = items.iter().map(i64::to_string).collect();
    format!("[{}]", items.join(","))
}

pub fn tak(x: i64, y: i64, z: i64) -> i64 {
    if x <= y {
        z
    } else {
        tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
    }
}

/// The corpus `map.pl` transformer: 160 rounds of `(x*3+1) mod 1000`.
pub fn map2_transform(x: i64) -> i64 {
    (0..160).fold(x, |x, _| (x * 3 + 1) % 1000)
}

/// Row-by-row product with the second operand given transposed, as
/// `matrix.pl` takes it.
pub fn matrix_product(a: &[Vec<i64>], bt: &[Vec<i64>]) -> Vec<Vec<i64>> {
    a.iter()
        .map(|row| {
            bt.iter()
                .map(|col| row.iter().zip(col).map(|(x, y)| x * y).sum())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn digest_ignores_order_but_not_multiplicity() {
        let a = Expected::of(&strs(&["X=1", "X=2", "X=3"]));
        assert_eq!(a, Expected::of(&strs(&["X=3", "X=1", "X=2"])));
        assert_ne!(a, Expected::of(&strs(&["X=1", "X=2", "X=2"])));
        assert_ne!(a, Expected::of(&strs(&["X=1", "X=2"])));
        assert!(a.matches(&strs(&["X=2", "X=3", "X=1"])));
        assert_eq!(Expected::from_json(&a.to_json()), Some(a));
    }

    #[test]
    fn closed_forms() {
        assert_eq!(ints("[3,1,2]"), vec![3, 1, 2]);
        assert_eq!(ints("[]"), Vec::<i64>::new());
        assert_eq!(int_rows("[[1,2],[3,4]]"), vec![vec![1, 2], vec![3, 4]]);
        assert_eq!(tak(6, 3, 0), 3);
        assert_eq!(
            matrix_product(&[vec![1, 2]], &[vec![3, 4], vec![5, 6]]),
            vec![vec![11, 17]]
        );
        assert!(hanoi_moves(2)(&strs(&["M=[mv(a,c),mv(a,b),mv(c,b)]"])).is_ok());
        assert!(hanoi_moves(3)(&strs(&["M=[mv(a,c)]"])).is_err());
        assert!(count_is(2)(&strs(&["a", "b"])).is_ok());
        assert!(exactly(strs(&["S=[1]"]))(&strs(&["S=[2]"])).is_err());
    }
}
