"""Distribution-free K-sample and independence tests over all sample-space partitions."""

from .core import (
    BinomialTable,
    CumulativeCountGrid,
    GroupedSample,
    PerMStatistics,
    RankedSample,
    ScoreKind,
    binomial_table,
    cell_score,
    cumulative_count_grid,
    ksample_cell_score,
    rank_with_random_ties,
)
from .independence import (
    adp_max_2x2,
    adp_sum_all_m,
    ddp_max,
    ddp_sum_all_m,
    hhg_univariate,
    penalized_adp_sum,
)
from .ksample import (
    PriorSpec,
    ksample_max_all_m,
    ksample_sum_all_m,
    penalized_max,
    penalized_sum,
)
from .mi import MIEstimate, mi_adp, mi_ddp, mi_histogram, mi_ksample, miller_madow
from .nulltable import (
    NullTable,
    NullTableMeta,
    TestResult,
    combined_null_distribution,
    combined_statistic,
    generate_null_table,
    load_table,
    p_value,
    run_test,
    save_table,
)
from .simulate import (
    PowerReport,
    ScenarioSpec,
    builtin_scenarios,
    generate_scenario,
    make_scenario,
    parse_scenario_file,
    power_study,
)

__version__ = "0.1.0"
