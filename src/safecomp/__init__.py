"""safecomp: safe-region discovery, ReLU classifier verification, and
compositional assume-guarantee checking for learning-enabled systems."""

__version__ = "0.1.0"

from .network import (
    Layer,
    Network,
    NetworkFormatError,
    classify,
    evaluate,
    normalize,
    parse_network,
    render_network,
)
from .regions import (
    DiscoveryConfig,
    DiscoveryResult,
    LabeledDataset,
    Region,
    compute_radius,
    discover_regions,
    dist,
    kmeans,
    region_membership,
)
from .verifier import (
    Box,
    FullResult,
    LinearBounds,
    Verdict,
    VerificationTask,
    enclosing_box,
    find_counterexample,
    propagate_bounds,
    score_gap_bound,
    verify_full,
    verify_targeted,
)
from .contracts import (
    Always,
    Atom,
    ComponentContract,
    DnnContract,
    Eventually,
    LabelIs,
    LabelNotIn,
    RegionContract,
    emit_dnn_contract,
    parse_property,
    render_property,
)
from .compose import (
    AGReport,
    CheckResult,
    ComponentModel,
    System,
    Wire,
    abstract_dnn_component,
    check_assume_guarantee,
    check_property,
    contract_monitor,
    most_general_environment,
)
from .guard import Guard, GuardDecision, build_guard, guard_eval
from .app import (
    build_ebs_demo,
    build_semaphore_classifier,
    run_ebs_demo,
    run_parallel_verification,
)
