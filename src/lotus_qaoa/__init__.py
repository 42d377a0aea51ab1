"""QAOA MaxCut benchmarking with a hybrid Fourier-autoregressive ansatz."""

from .engine import (
    CostDiagonal,
    MirroredHalf,
    apply_cost_phase,
    apply_mixer,
    build_cost_diagonal,
    evolve,
    expectation_exact,
    expectation_sampled,
    plus_state,
    sample_best_bitstring,
)
from .harness import (
    ScoreRecord,
    SignificanceMatrix,
    SweepConfig,
    depth_transfer_experiment,
    improvement_summary,
    invariant_suite,
    run_sweep,
    score_records,
    significance_matrix,
)
from .instance import (
    CutResult,
    WeightedGraph,
    brute_force_maxcut,
    cut_value,
    gen_erdos_renyi,
    load_graph,
    save_graph,
)
from .optim import (
    LotusInitConfig,
    ObjectiveSpec,
    OptimizerOutcome,
    baseline_optimize,
    finite_difference_gradient,
    lotus_optimize,
    minimize,
)
from .records import RunRecord, load_records, write_csv
from .schedule import (
    HfaParams,
    LipschitzReport,
    Schedule,
    hfa_generate,
    lipschitz_certificate,
    standard_unpack,
)

__version__ = "0.1.0"
