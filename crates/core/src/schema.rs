//! The paper's optimization taxonomy as data.
//!
//! The paper's central distinction is between an **optimization schema**
//! ("general guidelines that form the underpinning of a class of specific
//! optimizations") and the **actual optimizations** derived from it. This
//! module encodes that taxonomy so tooling (the `tables` harness, examples,
//! docs) can enumerate and describe what is being toggled.

use ace_runtime::OptFlags;

/// The three optimization schemas of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schema {
    /// "Flatten the tree structure, reducing the levels of nesting
    /// whenever possible, preserving the operational semantics." (§3)
    Flattening,
    /// "The execution of an operation that constitutes an overhead should
    /// be delayed until its effects are needed by the rest of the
    /// computation." (§4)
    Procrastination,
    /// "Two consecutive branches of the same node of the computation tree
    /// executed by the same computing agent should produce minimal
    /// overhead." (§4)
    Sequentialization,
}

impl Schema {
    pub fn statement(&self) -> &'static str {
        match self {
            Schema::Flattening => {
                "Flatten the tree structure, reducing the levels of nesting \
                 whenever possible, preserving the operational semantics."
            }
            Schema::Procrastination => {
                "The execution of an operation that constitutes an overhead \
                 should be delayed until its effects are needed by the rest \
                 of the computation."
            }
            Schema::Sequentialization => {
                "Two consecutive branches of the same node of the \
                 computation tree executed by the same computing agent \
                 should produce minimal overhead."
            }
        }
    }
}

/// The concrete optimizations implemented in this reproduction: the
/// paper's four, and lazy parcall frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Optimization {
    /// Last Parallel Call Optimization (§3.1).
    Lpco,
    /// Last Alternative Optimization (§3.2).
    Lao,
    /// Shallow Parallelism Optimization (§4.1).
    Spo,
    /// Processor Determinacy Optimization (§4.2).
    Pdo,
    /// Lazy parcall frames: procrastination applied to the parcall frame
    /// itself (not in the paper's tables).
    Lazy,
}

impl Optimization {
    pub const ALL: [Optimization; 5] = [
        Optimization::Lpco,
        Optimization::Lao,
        Optimization::Spo,
        Optimization::Pdo,
        Optimization::Lazy,
    ];

    /// Which schema this optimization instantiates.
    pub fn schema(&self) -> Schema {
        match self {
            Optimization::Lpco | Optimization::Lao => Schema::Flattening,
            Optimization::Spo | Optimization::Lazy => Schema::Procrastination,
            Optimization::Pdo => Schema::Sequentialization,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Optimization::Lpco => "Last Parallel Call Optimization",
            Optimization::Lao => "Last Alternative Optimization",
            Optimization::Spo => "Shallow Parallelism Optimization",
            Optimization::Pdo => "Processor Determinacy Optimization",
            Optimization::Lazy => "Lazy Parcall Frames",
        }
    }

    pub fn acronym(&self) -> &'static str {
        match self {
            Optimization::Lpco => "LPCO",
            Optimization::Lao => "LAO",
            Optimization::Spo => "SPO",
            Optimization::Pdo => "PDO",
            Optimization::Lazy => "LAZY",
        }
    }

    /// The flag set enabling exactly this optimization.
    pub fn flags(&self) -> OptFlags {
        match self {
            Optimization::Lpco => OptFlags::lpco_only(),
            Optimization::Lao => OptFlags::lao_only(),
            Optimization::Spo => OptFlags::spo_only(),
            Optimization::Pdo => OptFlags::pdo_only(),
            Optimization::Lazy => OptFlags::lazy_only(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_assignment_matches_paper() {
        assert_eq!(Optimization::Lpco.schema(), Schema::Flattening);
        assert_eq!(Optimization::Lao.schema(), Schema::Flattening);
        assert_eq!(Optimization::Spo.schema(), Schema::Procrastination);
        assert_eq!(Optimization::Pdo.schema(), Schema::Sequentialization);
        assert_eq!(Optimization::Lazy.schema(), Schema::Procrastination);
    }

    #[test]
    fn flags_are_singletons() {
        for opt in Optimization::ALL {
            let f = opt.flags();
            let on = [f.lpco, f.lao, f.spo, f.pdo, f.lazy]
                .iter()
                .filter(|b| **b)
                .count();
            assert_eq!(on, 1, "{opt:?}");
        }
    }

    #[test]
    fn statements_are_nonempty() {
        for s in [
            Schema::Flattening,
            Schema::Procrastination,
            Schema::Sequentialization,
        ] {
            assert!(!s.statement().is_empty());
        }
    }
}
