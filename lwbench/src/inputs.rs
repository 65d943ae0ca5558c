//! Seeded inputs for the solver-service workloads, and the sequential
//! reference every served answer is checked against.
//!
//! The shape is the repository's incremental-session traffic: a random
//! 3-SAT base over [`VARS`] variables at 3.5 clauses per variable, then
//! [`STEPS`] incremental steps of [`STEP_CLAUSES`] clauses, each step
//! deepening the newest node three times in four and otherwise
//! branching an older one. Every session plan has a base of its own, so
//! that how hard one base happens to be does not set the cost of a
//! whole run. The generator lives here rather than in the workspace so
//! that a change to the program cannot change the benchmark's inputs.

use lwsnap_solver::{Lit, SolveResult, SolverService};

/// Variables in the base problem.
pub const VARS: usize = 70;
/// Clauses in the base problem (3.5 per variable: satisfiable region).
pub const BASE_CLAUSES: usize = 245;
/// Clauses added by each incremental step.
pub const STEP_CLAUSES: usize = 5;
/// Incremental steps per session.
pub const STEPS: usize = 24;
/// Nodes a session creates: its base solve plus one per step.
pub const NODES: usize = STEPS + 1;

/// SplitMix64: a tiny, fixed PRNG, so the inputs depend on the seed only.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_clause(rng: &mut SplitMix) -> Vec<Lit> {
    let mut vars: Vec<i64> = Vec::with_capacity(3);
    while vars.len() < 3 {
        let v = 1 + rng.below(VARS as u64) as i64;
        if !vars.contains(&v) {
            vars.push(v);
        }
    }
    vars.into_iter()
        .map(|v| Lit::from_dimacs(if rng.below(2) == 0 { v } else { -v }))
        .collect()
}

/// One incremental step: extend node `parent` of the same session
/// (0 is the session's base node, `k > 0` the result of step `k-1`).
pub struct Step {
    pub parent: usize,
    pub clauses: Vec<Vec<Lit>>,
}

/// One session's plan: its base problem and its steps.
pub struct Plan {
    pub base: Vec<Vec<Lit>>,
    pub steps: Vec<Step>,
}

/// Everything the service workloads send: a pool of session plans.
/// Running sessions cycle through the pool.
pub struct Inputs {
    pub plans: Vec<Plan>,
}

impl Inputs {
    pub fn generate(seed: u64, plans: usize) -> Inputs {
        let mut rng = SplitMix::new(seed);
        let plans = (0..plans)
            .map(|_| {
                let base = (0..BASE_CLAUSES).map(|_| random_clause(&mut rng)).collect();
                let steps = (0..STEPS)
                    .map(|step| {
                        let parent = if step == 0 || rng.below(4) != 0 {
                            step
                        } else {
                            rng.below(step as u64) as usize
                        };
                        let clauses = (0..STEP_CLAUSES).map(|_| random_clause(&mut rng)).collect();
                        Step { parent, clauses }
                    })
                    .collect();
                Plan { base, steps }
            })
            .collect();
        Inputs { plans }
    }

    /// The clauses added to create `node` of `plan` (the base for node 0).
    pub fn edge(&self, plan: usize, node: usize) -> &[Vec<Lit>] {
        match node {
            0 => &self.plans[plan].base,
            k => &self.plans[plan].steps[k - 1].clauses,
        }
    }

    /// The node `node` of `plan` extends (`None` for the base node).
    pub fn parent(&self, plan: usize, node: usize) -> Option<usize> {
        node.checked_sub(1)
            .map(|k| self.plans[plan].steps[k].parent)
    }

    /// Whether `model` satisfies every clause on the path from the base
    /// to `node` — the whole constraint stack of that problem.
    pub fn path_satisfied(&self, plan: usize, node: usize, model: &[bool]) -> bool {
        let mut cur = Some(node);
        while let Some(k) = cur {
            if !self
                .edge(plan, k)
                .iter()
                .all(|c| clause_satisfied(c, model))
            {
                return false;
            }
            cur = self.parent(plan, k);
        }
        true
    }
}

fn clause_satisfied(clause: &[Lit], model: &[bool]) -> bool {
    clause.iter().any(|lit| {
        let d = lit.to_dimacs();
        let value = model
            .get(d.unsigned_abs() as usize - 1)
            .copied()
            .unwrap_or(false);
        value == (d > 0)
    })
}

/// One expected answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Answer {
    pub result: SolveResult,
    pub model: Option<Vec<bool>>,
}

/// The expected answer of every node of every plan, from a sequential
/// in-process [`SolverService`] (one caller, no eviction).
pub struct Reference {
    pub answers: Vec<Vec<Answer>>,
    /// Reference models that failed their own path check (must be 0).
    pub bad_models: u64,
}

impl Reference {
    pub fn build(inputs: &Inputs) -> Reference {
        let mut service = SolverService::new();
        let mut bad_models = 0;
        let answers = (0..inputs.plans.len())
            .map(|plan| {
                let mut nodes = Vec::with_capacity(NODES);
                let mut answers = Vec::with_capacity(NODES);
                for node in 0..NODES {
                    let parent = match inputs.parent(plan, node) {
                        Some(p) => nodes[p],
                        None => service.root(),
                    };
                    let reply = service
                        .solve(parent, inputs.edge(plan, node))
                        .expect("reference parents are live");
                    if let Some(model) = &reply.model {
                        if !inputs.path_satisfied(plan, node, model) {
                            bad_models += 1;
                        }
                    }
                    nodes.push(reply.problem);
                    answers.push(Answer {
                        result: reply.result,
                        model: reply.model,
                    });
                }
                for &node in nodes.iter().rev() {
                    service.release(node);
                }
                answers
            })
            .collect();
        Reference {
            answers,
            bad_models,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_only() {
        let a = Inputs::generate(7, 3);
        let b = Inputs::generate(7, 3);
        let c = Inputs::generate(8, 3);
        assert_eq!(a.plans[1].base, b.plans[1].base);
        assert_ne!(a.plans[1].base, c.plans[1].base);
        assert_ne!(a.plans[1].base, a.plans[2].base);
        assert_eq!(a.plans[2].steps[5].clauses, b.plans[2].steps[5].clauses);
        assert_eq!(a.plans[2].steps[5].parent, b.plans[2].steps[5].parent);
    }

    #[test]
    fn reference_models_satisfy_their_paths_and_both_verdicts_occur() {
        let inputs = Inputs::generate(3, 4);
        let reference = Reference::build(&inputs);
        assert_eq!(reference.bad_models, 0);
        let all: Vec<_> = reference.answers.iter().flatten().collect();
        assert!(all.iter().any(|a| a.result == SolveResult::Sat));
        assert!(all.iter().any(|a| a.result == SolveResult::Unsat));
    }
}
