//! Direct tests of the machine-level parallel protocol the and-engine
//! builds on: parcall frames, inline branches and barriers, fences,
//! rollback, and cost surfacing.

use std::sync::Arc;

use ace_logic::Database;
use ace_machine::{CtrlFrame, Machine, Spine, Status};
use ace_runtime::CostModel;

fn machine(src: &str) -> Machine {
    let db = Arc::new(Database::load(src).unwrap());
    let mut m = Machine::new(db, Arc::new(CostModel::default()));
    m.enable_parallel(true);
    m
}

const PROG: &str = r#"
    a(1).
    b(2).
    c(X) :- X > 0.
    nd(1). nd(2).
"#;

#[test]
fn parcall_status_raised_with_branches() {
    let mut m = machine(PROG);
    m.load_query_text("a(X) & b(Y) & c(3)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let pf = m.top_parcall().unwrap();
    assert_eq!(pf.branches.len(), 3);
    assert!(pf.cont.is_none());
}

#[test]
fn sequential_mode_treats_amp_as_comma() {
    let db = Arc::new(Database::load(PROG).unwrap());
    let mut m = Machine::new(db, Arc::new(CostModel::default()));
    // par NOT enabled
    m.load_query_text("a(X) & b(Y)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Solution);
}

#[test]
fn inline_branch_runs_to_barrier() {
    let mut m = machine(PROG);
    m.load_query_text("a(X) & b(Y)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let branches = m.top_parcall().unwrap().branches.clone();
    let fid = m.top_parcall().unwrap().id;
    m.run_inline_branch(branches[1], fid);
    assert_eq!(m.run_to_completion(), Status::InlineBarrier(fid));
}

#[test]
fn inline_barrier_rearrives_after_backtracking() {
    let mut m = machine(PROG);
    m.load_query_text("a(X) & nd(Y)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let branches = m.top_parcall().unwrap().branches.clone();
    let fid = m.top_parcall().unwrap().id;
    m.run_inline_branch(branches[1], fid); // nd(Y): two alternatives
    assert_eq!(m.run_to_completion(), Status::InlineBarrier(fid));
    // local backtracking finds the second inline solution and re-arrives
    m.backtrack();
    assert_eq!(m.run_to_completion(), Status::InlineBarrier(fid));
    // third attempt exhausts nd/1 and reaches the frame itself
    m.backtrack();
    assert_eq!(m.run_to_completion(), Status::ParcallRedo);
}

#[test]
fn fence_reports_failure_of_guarded_region() {
    let mut m = machine(PROG);
    m.load_query_text("a(X) & b(Y)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let fid = m.top_parcall().unwrap().id;
    let _fence = m.push_fence(fid, 0);
    // run a failing goal above the fence
    let goal = {
        let (g, _) = ace_logic::parse_term(&mut m.heap, "c(-1)").unwrap();
        g
    };
    m.run_inline_branch(goal, fid);
    assert_eq!(m.run_to_completion(), Status::FenceHit(fid, 0));
}

#[test]
fn disarmed_fence_is_transparent() {
    let mut m = machine(PROG);
    m.load_query_text("nd(Z) & b(Y)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let fid = m.top_parcall().unwrap().id;
    // inline-run the nondeterministic branch FIRST (its cp sits below the
    // fence), then a guarded deterministic region
    let branches = m.top_parcall().unwrap().branches.clone();
    m.run_inline_branch(branches[0], fid);
    assert_eq!(m.run_to_completion(), Status::InlineBarrier(fid));
    let fence = m.push_fence(fid, 1);
    let goal = {
        let (g, _) = ace_logic::parse_term(&mut m.heap, "c(5)").unwrap();
        g
    };
    m.run_inline_branch(goal, fid);
    assert_eq!(m.run_to_completion(), Status::InlineBarrier(fid));
    m.disarm_fence(fence);
    // backtracking now flows through the disarmed fence into nd's cp
    m.backtrack();
    assert_eq!(m.run_to_completion(), Status::InlineBarrier(fid));
}

#[test]
fn rollback_restores_heap_and_ctrl() {
    let mut m = machine(PROG);
    m.load_query_text("a(X) & b(Y)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let fid = m.top_parcall().unwrap().id;
    let ctrl0 = m.ctrl_len();
    let trail0 = m.heap.trail_mark();
    let heap0 = m.heap.heap_mark();
    let goal = {
        let (g, _) = ace_logic::parse_term(&mut m.heap, "nd(W)").unwrap();
        g
    };
    m.run_inline_branch(goal, fid);
    assert_eq!(m.run_to_completion(), Status::InlineBarrier(fid));
    assert!(m.ctrl_len() > ctrl0, "nd left a choice point");
    m.rollback_to(ctrl0, trail0, heap0);
    assert_eq!(m.ctrl_len(), ctrl0);
}

#[test]
fn fail_parcall_until_discards_deeper_frames() {
    let mut m = machine(PROG);
    m.load_query_text("a(X) & b(Y)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let outer = m.top_parcall().unwrap().id;
    // raise a second, nested frame via the inline branch
    let goal = {
        let (g, _) = ace_logic::parse_term(&mut m.heap, "a(P) & b(Q)").unwrap();
        g
    };
    m.run_inline_branch(goal, outer);
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let inner = m.top_parcall().unwrap().id;
    assert_ne!(outer, inner);
    // failing the OUTER frame discards the inner one as well
    let st = m.fail_parcall_until(outer);
    assert_eq!(st, Status::Failed, "no choice points below: query fails");
    assert_eq!(m.ctrl_len(), 0);
}

#[test]
fn unsurfaced_cost_is_monotonic_and_exact() {
    let mut m = machine(PROG);
    m.load_query_text("a(X), b(Y)").unwrap();
    let mut total = 0;
    loop {
        let s = m.step();
        total += m.take_unsurfaced_cost();
        if s != Status::Running {
            break;
        }
    }
    assert_eq!(total, m.stats.cost, "every charged unit surfaced once");
    assert_eq!(m.take_unsurfaced_cost(), 0);
}

#[test]
fn deterministic_since_parcall() {
    let mut m = machine(PROG);
    m.load_query_text("a(X) & b(Y)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    // deterministic inline step then a nested parcall: condition holds
    let goal = {
        let (g, _) = ace_logic::parse_term(&mut m.heap, "b(K), (a(P) & b(Q))").unwrap();
        g
    };
    let fid = m.top_parcall().unwrap().id;
    m.run_inline_branch(goal, fid);
    assert_eq!(m.run_to_completion(), Status::Parcall);
    assert!(m.deterministic_since_parcall(fid, |_| true));
    assert!(!m.deterministic_since_parcall(fid + 1_000_000, |_| true));

    // a nondeterministic step in between breaks it
    let mut m2 = machine(PROG);
    m2.load_query_text("a(X) & b(Y)").unwrap();
    assert_eq!(m2.run_to_completion(), Status::Parcall);
    let fid2 = m2.top_parcall().unwrap().id;
    let goal2 = {
        let (g, _) = ace_logic::parse_term(&mut m2.heap, "nd(K), (a(P) & b(Q))").unwrap();
        g
    };
    m2.run_inline_branch(goal2, fid2);
    assert_eq!(m2.run_to_completion(), Status::Parcall);
    assert!(!m2.deterministic_since_parcall(fid2, |_| true));
}

#[test]
fn merge_out_parcall_resumes_past_frame() {
    let mut m = machine(PROG);
    m.load_query_text("(a(X) & b(Y)), c(1)").unwrap();
    assert_eq!(m.run_to_completion(), Status::Parcall);
    let pf = m.merge_out_parcall();
    assert_eq!(pf.branches.len(), 2);
    // machine continues with c(1) as if the parallel call never happened
    assert_eq!(m.run_to_completion(), Status::Solution);
}

/// Lazy frames: a record between the frame an inline-chain LPCO would
/// merge into and the call just raised is no choice point of its own, but
/// it ends nothing either: a choice point above it or below it still
/// counts. And the raised call, a goal of the record, is not the last goal
/// of the frame's inline branch.
#[test]
fn a_record_below_the_raised_call_keeps_its_choice_points() {
    // The branch run inline, and the control stack from the frame up when
    // the inner `&` is raised: Frame, Record, Choice point, raised call.
    for (branch, stack) in [
        ("a(K) & ((a(P) & b(Q)), true)", "FRF"),
        ("nd(K) & ((a(P) & b(Q)), true)", "FRCF"),
        ("nd(K), (a(L) & ((a(P) & b(Q)), true))", "FCRF"),
    ] {
        let mut m = machine(PROG);
        m.load_query_text("a(X) & b(Y)").unwrap();
        assert_eq!(m.run_to_completion(), Status::Parcall);
        let fid = m.top_parcall().unwrap().id;
        let (goal, _) = ace_logic::parse_term(&mut m.heap, branch).unwrap();
        m.run_inline_branch(goal, fid);
        m.defer_parcalls(true, Spine::None);
        while !m.ctrl_frames().last().is_some_and(CtrlFrame::is_record) {
            assert_eq!(m.step(), Status::Running);
        }
        m.defer_parcalls(false, Spine::None);
        assert_eq!(m.run_to_completion(), Status::Parcall);
        let kinds: String = m.ctrl_frames()[m.parcall_index(fid).unwrap()..]
            .iter()
            .map(|f| match f {
                CtrlFrame::Parcall(_) => 'F',
                CtrlFrame::Record(_) => 'R',
                CtrlFrame::Choice(_) => 'C',
                CtrlFrame::Marker(_) => 'M',
            })
            .collect();
        assert_eq!(kinds, stack, "{branch}");
        let det = !stack.contains('C');
        assert_eq!(
            m.deterministic_since_parcall(fid, |_| true),
            det,
            "{branch}"
        );
        assert!(!m.top_parcall_cont_is_barrier_of(fid), "{branch}");
    }
}

/// Lazy frames: with parallel calls deferred, a `&` that ends the inline
/// branch of a frame is still raised, for LPCO to merge; one followed by
/// another goal is recorded and runs as `,`.
#[test]
fn a_deferred_call_ending_the_spine_is_raised() {
    for (branch, raised) in [
        ("a(K), (a(P) & b(Q))", true),
        ("(a(P) & b(Q)), a(K)", false),
    ] {
        let mut m = machine(PROG);
        m.load_query_text("a(X) & b(Y)").unwrap();
        assert_eq!(m.run_to_completion(), Status::Parcall);
        let fid = m.top_parcall().unwrap().id;
        let (goal, _) = ace_logic::parse_term(&mut m.heap, branch).unwrap();
        m.run_inline_branch(goal, fid);
        m.defer_parcalls(true, Spine::Inline(fid));
        let want = if raised {
            Status::Parcall
        } else {
            Status::InlineBarrier(fid)
        };
        assert_eq!(m.run_to_completion(), want, "{branch}");
        if raised {
            assert!(m.top_parcall_cont_is_barrier_of(fid));
        }
    }
}
