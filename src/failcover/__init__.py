"""failcover: how well do search-based testing algorithms cover failure regions?

The package bundles four test-generation algorithms (random search, NSGA-II,
a diversified NSGA-II, and the OMOPSO swarm optimizer), synthetic problems
with analytically known failure regions, reference-set samplers, the coverage
inverted distance (CID) quality indicator, and the nonparametric statistics
used to compare algorithms over repeated seeded runs.
"""

from .algorithms import (
    Nsga2Config,
    NsgaDConfig,
    OmopsoConfig,
    RandomSearchConfig,
    run_algorithm,
    run_nsga2,
    run_omopso,
    run_random_search,
)
from .core import (
    BudgetExhausted,
    OracleSpec,
    ProblemDefinition,
    RunLog,
    SearchSpace,
    dominates,
    unit_box,
)
from .coverage import (
    CidParams,
    ConvergenceSeries,
    EmptyReferenceSetError,
    ReferenceSet,
    ReferenceSetIntegrityError,
    build_reference_set,
    cid,
    convergence_series,
    failure_count,
    first_failure_iteration,
    load_reference_set,
    save_reference_set,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    compare,
    emit_report,
    load_config,
    parse_config,
    run_experiment,
)
from .problems import (
    CATALOG,
    build_avp_analog,
    build_two_ball,
    build_two_region,
    doi_volume_estimate,
    get_problem,
)
from .samplers import (
    fps_sample,
    grid_sample,
    lhs_sample,
    make_rng,
    poisson_disc_sample,
    uniform_sample,
)
from .stats import StatResult, a12, classify_effect, wilcoxon_rank_sum, wilcoxon_signed_rank

__version__ = "0.1.0"
